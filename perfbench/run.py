#!/usr/bin/env python3
"""perfbench — repro's end-to-end and layer-by-layer benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload compile_sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

``--trace 0`` measures with no spans and prints every end-to-end metric;
``--trace 1`` takes the layer-split path (one public call per layer) for
all of the time, half with span recording off and half with it on,
prints every per-layer metric (the cost of recording spans included) and
writes the spans to ``.perfbench/traces/<workload>-seed<seed>.json``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See perfbench/README.md for the workloads
and what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("compile_sweep", "restage_warm", "warm_calls", "paper_kernels")
#: set-ups per untraced run (setup_s is their median): more where a
#: set-up takes well under a second and so varies most
SETUP_REPEATS = {"compile_sweep": 7, "warm_calls": 7}
DEFAULT_SETUP_REPEATS = 3
#: op_tail_ms: p90 (>= 10 samples beyond it on every workload), and the
#: call p99 on warm_calls
TAIL_PCT = {"warm_calls": 99}

#: the gated end-to-end metrics.  Timings are ratios to a yardstick run
#: in the same process, because absolute timings on a shared host drift
#: by 10-20 % between runs while these ratios hold to a few percent.
END_TO_END = [("setup_s", "s"), ("kernel_speedup_gmean", "ratio"),
              ("ops_speedup", "ratio"), ("peak_rss_mb", "MB")]
#: absolute figures, printed next to the gated metrics (not gated)
ABSOLUTE = [("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
            ("kernel_gmean_ms", "ms")]

#: compile-path spans, reported as a per-kernel p50 and a per-run total
COMPILE_SPANS = ("core.stage", "core.typecheck", "passes.pipeline",
                 "backend.c.emit", "buildd.compile", "backend.c.bind",
                 "exec.first_call", "bench.first_result")

PER_LAYER = (
    [(f"{s}_ms.{agg}", "ms") for s in COMPILE_SPANS
     for agg in ("p50", "total")]
    + [("bench.first_result.self_ms.p50", "ms"),
       ("backend.c.c_bytes.p50", "bytes"), ("backend.c.c_bytes.total", "bytes"),
       ("buildd.submitted", "count"), ("buildd.gcc_runs", "count"),
       ("buildd.cache_hits", "count"), ("buildd.inflight_dedup", "count"),
       ("buildd.hit_ratio", "ratio"), ("buildd.busy_s", "s"),
       ("buildd.max_queue_depth", "count")]
    + [(f"{layer}.{kind}", "us")
       for layer in ("ffi.raw_call_us", "backend.c.handle_call_us",
                     "exec.dispatch_call_us", "backend.c.self_us",
                     "exec.self_us")
       for kind in ("scalar", "numpy")]
    + [("autotune.gemm_gflops.tuned", "GFLOP/s"),
       ("autotune.gemm_gflops.naive", "GFLOP/s"),
       ("orion.areafilter_speedup", "ratio"),
       ("orion.pointwise_speedup", "ratio"),
       ("orion.fluid_speedup", "ratio"),
       ("schedule.attention_speedup", "ratio"),
       ("schedule.dequant_speedup", "ratio"),
       ("schedule.scan_speedup", "ratio"),
       ("lib.datatable.normals_gbps.aos", "GB/s"),
       ("lib.datatable.normals_gbps.soa", "GB/s"),
       ("lib.datatable.translate_gbps.aos", "GB/s"),
       ("lib.datatable.translate_gbps.soa", "GB/s"),
       ("passes.autovec_speedup", "ratio"),
       ("passes.vec_loops", "count"), ("passes.vec_bailouts", "count"),
       ("schedule.applied", "count"), ("schedule.skipped", "count"),
       ("trace.overhead_pct", "%"), ("trace.spans", "count"),
       ("trace.valid", "bool"), ("oracle.checks", "count"),
       ("oracle.fail_ratio", "ratio")])

#: per-layer counts read from the process-wide metrics registry
REGISTRY_LAYERS = {"passes.vec_loops": "vec.loops",
                   "passes.vec_bailouts": "vec.bailouts",
                   "schedule.applied": "sched.applied",
                   "schedule.skipped": "sched.skipped"}


def pin_environment(workdir: Path, nproc: int) -> None:
    """A defined configuration: no inherited repro settings, tracing and
    profiling off, compile jobs and kernel threads at ``nproc``, numpy's
    BLAS single-threaded, temporary files inside the checkout."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_BUILDD_JOBS"] = str(nproc)
    os.environ["REPRO_TERRA_THREADS"] = str(nproc)
    os.environ["REPRO_TERRA_CACHE"] = str(workdir / "cache-0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


class Context:
    """What a workload needs from this script: its seed, a scratch
    directory, and compile services on fresh or reused caches."""

    def __init__(self, seed: int, workdir: Path, jobs: int):
        from harness import Tracer
        self.seed = seed
        self.workdir = str(workdir)
        self.jobs = jobs
        self.no_trace = Tracer(False)
        self._caches = 0
        self.cache_root = None

    def fresh_service(self):
        """A new compile service on an empty artifact cache (the previous
        cache directory is deleted)."""
        from repro import buildd
        old = self.cache_root
        self._caches += 1
        self.cache_root = os.path.join(self.workdir,
                                       f"cache-{self._caches}")
        svc = buildd.configure(jobs=self.jobs, cache_root=self.cache_root)
        if old is not None:
            shutil.rmtree(old, ignore_errors=True)
        return svc

    def reuse_service(self):
        """A new compile service (zeroed counters) on the current cache."""
        from repro import buildd
        return buildd.configure(jobs=self.jobs, cache_root=self.cache_root)


def _workload(name: str):
    import calls
    import compile_path
    import paper
    return {"compile_sweep": (compile_path.setup_sweep,
                              compile_path.measure_sweep),
            "restage_warm": (compile_path.setup_restage,
                             compile_path.measure_restage),
            "warm_calls": (calls.setup, calls.measure),
            "paper_kernels": (paper.setup, paper.measure)}[name]


def end_to_end(name: str, w, setups: list) -> tuple[dict, dict]:
    """The gated metrics and the absolute figures behind them."""
    from harness import gmean, median, pct
    kernel_med = {k: median(v) for k, v in w.kernel_ms.items() if len(v)}
    yard_med = {k: median(v) for k, v in w.yardstick_ms.items()}
    gated = {
        "setup_s": median(setups),
        "kernel_speedup_gmean": gmean(yard_med[w.yardstick_of[k]] / m
                                      for k, m in kernel_med.items()),
        "ops_speedup": median([rate * yard_ms / 1e3
                               for rate, yard_ms in w.blocks]),
        "peak_rss_mb": w.peak_rss_mb,
    }
    absolute = {
        "ops_per_s": median([rate for rate, _ in w.blocks]),
        "op_p50_ms": pct(w.op_ms, 50),
        "op_tail_ms": pct(w.op_ms, TAIL_PCT.get(name, 90)),
        "kernel_gmean_ms": gmean(kernel_med.values()),
    }
    return gated, absolute


def per_layer(untraced, traced, tracer, registry_delta, valid) -> dict:
    from harness import median, pct
    out = {metric: 0.0 for metric, _ in PER_LAYER}
    self_ns = tracer.self_times_ns()
    by_name: dict = {}
    for sp in tracer.spans:
        by_name.setdefault(sp.name, []).append(sp.dur_ns / 1e6)
    for span in COMPILE_SPANS:
        durs = by_name.get(span, [])
        out[f"{span}_ms.p50"] = median(durs)
        out[f"{span}_ms.total"] = sum(durs)
    out["bench.first_result.self_ms.p50"] = median(
        [ns / 1e6 for ns in self_ns.get("bench.first_result", [])])
    for window in (untraced, traced):
        out.update({k: v for k, v in window.layers.items() if k in out})
    for metric, counter in REGISTRY_LAYERS.items():
        out[metric] = registry_delta.get(counter, 0)
    base = pct(untraced.op_ms, 50)
    out["trace.overhead_pct"] = \
        (pct(traced.op_ms, 50) - base) / base * 100 if base else 0.0
    out["trace.spans"] = len(tracer.spans)
    out["trace.valid"] = 1 if valid else 0
    attempted = untraced.attempted + traced.attempted
    out["oracle.checks"] = untraced.checks + traced.checks
    out["oracle.fail_ratio"] = \
        (untraced.failed + traced.failed) / attempted if attempted else 0.0
    return out


def run_one(name: str, seed: int, seconds: float, trace: bool,
            workdir: Path, nproc: int) -> tuple[dict, dict]:
    from harness import (Tracer, delta, metadata, registry_counters)
    ctx = Context(seed, workdir, nproc)
    setup, measure = _workload(name)
    reg0 = registry_counters()
    setups = []
    repeats = SETUP_REPEATS.get(name, DEFAULT_SETUP_REPEATS)
    for _ in range(1 if trace else repeats):
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = setup(ctx)
        setups.append(time.perf_counter() - t0)
    gc.collect()
    meta = {"workload": name, "seed": seed, "seconds": seconds,
            "trace": int(trace), **metadata(nproc)}
    if not trace:
        w = measure(ctx, state, seconds, ctx.no_trace)
        windows = [w]
        metrics, absolute = end_to_end(name, w, setups)
        units = dict(END_TO_END)
        meta["absolute"] = {k: {"value": v, "unit": dict(ABSOLUTE)[k]}
                            for k, v in absolute.items()}
    else:
        # the same layer-split path, spans off then on: their difference
        # is the cost of recording spans
        untraced = measure(ctx, state, seconds / 2, Tracer(False, split=True))
        gc.collect()
        tracer = Tracer(True)
        traced = measure(ctx, state, seconds / 2, tracer)
        windows = [untraced, traced]
        path = ROOT / ".perfbench" / "traces" / f"{name}-seed{seed}.json"
        valid = tracer.write(str(path))
        metrics = per_layer(untraced, traced, tracer,
                            delta(registry_counters(), reg0), valid)
        units = dict(PER_LAYER)
        meta["trace_file"] = str(path.relative_to(ROOT))
        meta["trace_dropped_spans"] = tracer.dropped
    failures: dict = {}
    for w in windows:
        for kind, n in w.failures.items():
            failures[kind] = failures.get(kind, 0) + n
    failures["setup"] = getattr(state, "setup_failed", 0)
    attempted = sum(w.attempted for w in windows)
    failed = sum(failures.values())
    meta["samples"] = {"setups": len(setups),
                       "ops": sum(w.ops for w in windows),
                       "kernels": len(windows[-1].kernel_ms),
                       "checks": sum(w.checks for w in windows),
                       "yardstick": {k: len(v) for k, v in
                                     windows[-1].yardstick_ms.items()}}
    meta["failures"] = failures
    meta["counters"] = {"buildd": windows[-1].buildd,
                        "registry": delta(registry_counters(), reg0)}
    result = {"correct": failed == 0 and all(
                  w.checks > 0 for w in windows),
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    return result, meta


def summary(name: str, result: dict, meta: dict) -> str:
    lines = [f"# {name}: seed {meta['seed']}, {meta['seconds']} s, "
             f"trace {meta['trace']}, samples {json.dumps(meta['samples'])}"]
    for metric, m in result["metrics"].items():
        lines.append(f"#   {metric:<36} {m['value']:>14.6g} {m['unit']}")
    for metric, m in meta.get("absolute", {}).items():
        lines.append(f"#   {metric:<36} {m['value']:>14.6g} {m['unit']}"
                     f"  (absolute, not gated)")
    lines.append(f"#   failed {result['failed']} of {result['attempted']} "
                 f"attempted ({json.dumps(meta['failures'])})")
    return "\n".join(lines)


def run_all(args) -> int:
    """Every workload, each in its own process; prints each summary and
    a combined result whose metric names are prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        sys.stdout.write("".join(line + "\n" for line in
                                 proc.stdout.splitlines()[:-1]))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, m in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    nproc = len(os.sched_getaffinity(0))
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    pin_environment(workdir, nproc)
    try:
        result, meta = run_one(args.workload, args.seed, args.seconds,
                               bool(args.trace), workdir, nproc)
    finally:
        from repro import buildd
        buildd.get_service().shutdown(wait=True)
        shutil.rmtree(workdir, ignore_errors=True)
    print(summary(args.workload, result, meta))
    print("# meta " + json.dumps(meta, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
