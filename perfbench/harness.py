"""Measurement plumbing shared by every workload: benchmark-side spans,
summary statistics, counter snapshots and the run's metadata.

Spans are recorded here, around the calls the benchmark makes into each
layer's public functions; nothing inside ``src/`` is instrumented.  They
stay in memory and are written once, at exit, as Chrome ``trace_event``
JSON.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import time

import numpy as np

from repro.errors import TerraError

now_ns = time.perf_counter_ns


# -- statistics ----------------------------------------------------------------

def pct(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation); 0.0 when empty."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def gmean(values) -> float:
    """Geometric mean of positive values; 0.0 when empty."""
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def median(values) -> float:
    return pct(values, 50)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (ru_maxrss is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- spans ---------------------------------------------------------------------

class Span:
    """One recorded interval.  ``kid`` is the kernel or call it belongs
    to; ``parent`` indexes the enclosing span (None at top level);
    ``async_`` spans overlap work of other kernels on the same thread and
    are exported as async (``b``/``e``) events keyed by ``kid``."""

    __slots__ = ("name", "start", "end", "parent", "kid", "async_")

    def __init__(self, name, start, end, parent, kid, async_=False):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.kid = kid
        self.async_ = async_

    @property
    def dur_ns(self) -> int:
        return self.end - self.start


class Tracer:
    """In-memory span recorder.  Disabled, every method is a flag check.

    ``split`` asks the workloads to take the layer-split path (one public
    call per layer, see compile_path.py and calls.py) whether or not
    spans are recorded, so a disabled tracer with ``split`` set measures
    the same path as an enabled one and their difference is the cost of
    recording spans."""

    def __init__(self, enabled: bool, split: bool | None = None,
                 max_spans: int = 200_000):
        self.enabled = enabled
        self.split = enabled if split is None else split
        self.max_spans = max_spans
        self.spans: list[Span] = []
        self.dropped = 0

    def record(self, name: str, start: int, end: int, kid=None,
               parent=None, async_: bool = False):
        """Record an interval measured by the caller; returns its index."""
        if not self.enabled:
            return None
        return self._append(Span(name, start, end, parent, kid, async_))

    def _append(self, sp: Span):
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return None
        self.spans.append(sp)
        return len(self.spans) - 1

    def self_times_ns(self) -> dict[str, list[int]]:
        """Per span name: each span's duration minus the part its child
        spans cover (children never overlap one another here)."""
        child_ns = [0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child_ns[sp.parent] += sp.dur_ns
        out: dict[str, list[int]] = {}
        for i, sp in enumerate(self.spans):
            out.setdefault(sp.name, []).append(sp.dur_ns - child_ns[i])
        return out

    def chrome(self) -> dict:
        pid = os.getpid()
        events = [{"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                   "args": {"name": "perfbench"}}]
        for sp in self.spans:
            args = {"id": sp.kid}
            if sp.parent is not None:
                args["parent"] = self.spans[sp.parent].name
            base = {"name": sp.name, "cat": sp.name.split(".")[0],
                    "pid": pid, "tid": 0, "args": args}
            if sp.async_:
                events.append({**base, "ph": "b", "id": sp.kid,
                               "ts": sp.start / 1000.0})
                events.append({**base, "ph": "e", "id": sp.kid,
                               "ts": sp.end / 1000.0})
            else:
                events.append({**base, "ph": "X", "ts": sp.start / 1000.0,
                               "dur": sp.dur_ns / 1000.0})
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str) -> bool:
        """Write the Chrome trace to ``path`` and check it with
        ``python -m repro.trace validate``; returns whether it passed."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.chrome(), fh)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.trace", "validate", path],
            capture_output=True, text=True, env=os.environ.copy())
        return proc.returncode == 0


class Window:
    """What one timed window produced (see run.py for the metrics)."""

    def __init__(self):
        self.ops = 0
        #: per block of the window (a round, a pass): its ops per second
        #: and the yardstick time of its average op, measured alongside
        self.blocks: list[tuple[float, float]] = []
        self.op_ms: list[float] = []
        self.kernel_ms: dict = {}      # kernel -> its op times
        self.yardstick_ms: dict = {}   # yardstick -> its times
        self.yardstick_of: dict = {}   # kernel -> its yardstick
        self.attempted = 0
        #: ``cache``: a build-cache property broken (gcc ran during
        #: restage_warm, or compile_sweep's hits and in-flight dedups
        #: differ from its restaged units)
        self.failures = {"typed_error": 0, "crash": 0, "wrong_output": 0,
                         "cache": 0}
        self.checks = 0
        self.buildd: dict = {}
        self.layers: dict = {}
        #: (unit, outcome) pairs awaiting the oracle
        self.pending_checks: list = []
        #: peak RSS when the timed work ended (before summary statistics)
        self.peak_rss_mb = 0.0

    def block(self, ops: int, ns: int, yardstick_ms: float) -> None:
        """Close one block of the window that completed ``ops`` in ``ns``
        of timed work, while the yardstick took ``yardstick_ms`` for the
        block's average op."""
        if ops and ns > 0:
            self.blocks.append((ops / (ns / 1e9), yardstick_ms))

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def fail(self, exc: BaseException) -> None:
        kind = "typed_error" if isinstance(exc, TerraError) else "crash"
        self.failures[kind] += 1


# -- counters ------------------------------------------------------------------

#: compile-service counters read straight from its BuildStats view
BUILDD_FIELDS = ("submitted", "cache_hits", "cache_misses", "inflight_dedup",
                 "compiles", "failures", "compile_seconds")
#: process-wide registry prefixes the benchmark reports deltas of
REGISTRY_PREFIXES = ("vec.", "sched.", "exec.")


def buildd_counters(service) -> dict:
    s = service.stats
    return {f: getattr(s, f) for f in BUILDD_FIELDS}


def registry_counters() -> dict:
    from repro.trace.metrics import registry
    reg = registry()
    out: dict = {}
    for prefix in REGISTRY_PREFIXES:
        out.update(reg.counters(prefix))
    return out


def delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after
            if after[k] - before.get(k, 0)}


def add_into(total: dict, more: dict) -> None:
    for k, v in more.items():
        total[k] = total.get(k, 0) + v


# -- the run's metadata --------------------------------------------------------

def cpu_caches() -> dict:
    """Cache sizes of cpu0 as the kernel reports them (empty if it does
    not)."""
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            if not index.startswith("index"):
                continue
            path = os.path.join(base, index)
            with open(os.path.join(path, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(path, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(path, "size")) as fh:
                out[f"L{level}{kind[0].lower()}"] = fh.read().strip()
    except OSError:
        pass
    return out


def metadata(nproc: int) -> dict:
    from repro.buildd import toolchain
    import cbuild
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cc": str(toolchain.default_toolchain()),
        "yardstick_cc": cbuild.identity(),
        "nproc": nproc,
        "cpu_caches": cpu_caches(),
        "env": {k: os.environ[k] for k in sorted(os.environ)
                if k.startswith("REPRO_") or k.endswith("_NUM_THREADS")},
        "note": ("GB/s figures are computed from array sizes (bytes the "
                 "kernel must touch / time), not measured memory traffic; "
                 "the Fig. 9 arrays fit in the reported L3, so they are "
                 "not a memory-bandwidth measurement"),
    }
