"""The compile-path workloads: ``compile_sweep`` (write side of the
artifact cache) and ``restage_warm`` (its read side).

Untraced, a kernel goes through the public path a user takes:
``stage()`` (``repro.terra``), ``fn.compile_async()`` and the first
``kernel(*args)``.  In a ``--trace 1`` run (``tracer.split``), the same
work is split into the layers' public calls so each can get its own
span: ``repro.terra`` (inside the
unit's maker), ``fn.ensure_typechecked()``,
``repro.core.linker.pipelined_component``, ``CBackend.emit_source``,
``repro.buildd.compile_async`` (submit to ready), ``fn.compile()`` on the
now cached artifact (re-emit, cache lookup, ctypes bind) and the first
call.  Those spans, plus the gaps between them, make up the kernel's
``bench.first_result`` span.

Yardsticks do the same job without repro, in the same run.
``compile_sweep``'s (``c_jit``) writes a fixed hand-written C kernel,
runs gcc on it with the benchmark's own frozen flags (cbuild.py), loads
it with ctypes and calls it once; it runs between rounds, never
alongside a build.
``restage_warm`` runs no gcc, so its yardstick (``py_jit``) is the host
language's own path from source to first result: CPython's ``compile``
of the same kernel written in Python, ``exec`` and one call, timed after
every restaged kernel so machine drift cancels in the ratio.
"""

from __future__ import annotations

import ctypes
import os

from repro import buildd, get_backend
from repro.core.linker import pipelined_component

import cbuild

from harness import (Window, add_into, buildd_counters, delta, median, now_ns,
                     peak_rss_mb)
from units import (RESTAGED_KINDS, Draw, References, expected_outcome,
                   terra_fn)

#: rounds of units in the restage_warm set: 64 kernels, so the set's
#: mix (program sizes, GEMM candidates) varies little from seed to seed
RESTAGE_ROUNDS = 4


# -- the yardstick -------------------------------------------------------------

C_JIT_SOURCE = r"""
#include <stdint.h>
int32_t yardstick(int32_t x, int32_t s, int32_t nn) {
    int32_t A[64], B[64], C[64];
    for (int32_t i = 0; i < 64; i++) {
        A[i] = (i * 3 + x) % 11; B[i] = i - 4; C[i] = 0;
    }
    int32_t m = nn & 63;
    for (int32_t i = 0; i < m; i++) C[i] = (A[i] + B[i]) * s;
    int32_t acc = 0;
    for (int32_t i = 0; i < 64; i++) acc += A[i] * C[i];
    return acc;
}
"""


def _yardstick_expected(x: int, s: int, nn: int) -> int:
    a = [(i * 3 + x) % 11 for i in range(64)]
    c = [0] * 64
    for i in range(nn & 63):
        c[i] = (a[i] + i - 4) * s
    return sum(a[i] * c[i] for i in range(64))


class CJit:
    """Times one hand-written C kernel from source to first result."""

    def __init__(self, workdir: str):
        self.dir = os.path.join(workdir, "c_jit")
        os.makedirs(self.dir, exist_ok=True)
        self.count = 0

    def run(self, window: Window) -> None:
        self.count += 1
        base = os.path.join(self.dir, f"k{self.count}")
        t0 = now_ns()
        with open(base + ".c", "w") as fh:
            fh.write(C_JIT_SOURCE)
        cbuild.compile_so(base + ".c", base + ".so")
        fn = ctypes.CDLL(base + ".so").yardstick
        fn.restype = ctypes.c_int32
        fn.argtypes = [ctypes.c_int32] * 3
        got = fn(5, 3, 40)
        window.yardstick_ms.setdefault("c_jit", []).append(
            (now_ns() - t0) / 1e6)
        window.checks += 1
        if got != _yardstick_expected(5, 3, 40):
            window.failures["wrong_output"] += 1


PY_JIT_SOURCE = """
def yardstick(x, s, nn):
    A = [0] * 64
    B = [0] * 64
    C = [0] * 64
    for i in range(64):
        A[i] = (i * 3 + x) % 11
        B[i] = i - 4
    for i in range(nn & 63):
        C[i] = (A[i] + B[i]) * s
    acc = 0
    for i in range(64):
        acc += A[i] * C[i]
    return acc
"""


def py_jit(window: Window) -> None:
    """Times the Python twin of the C yardstick from source to result."""
    t0 = now_ns()
    namespace: dict = {}
    exec(compile(PY_JIT_SOURCE, "<py_jit>", "exec"), namespace)
    got = namespace["yardstick"](5, 3, 40)
    window.yardstick_ms.setdefault("py_jit", []).append((now_ns() - t0) / 1e6)
    window.checks += 1
    if got != _yardstick_expected(5, 3, 40):
        window.failures["wrong_output"] += 1


# -- one kernel, on the user's path or split by layer ----------------------------

class Pending:
    __slots__ = ("unit", "kernel", "args", "t0", "span", "future",
                 "t_submit", "ready")

    def __init__(self, unit, t0):
        self.unit = unit
        self.t0 = t0
        self.kernel = self.args = self.span = self.future = None
        self.t_submit = self.ready = 0


def submit(unit, tracer, counts: dict, build_async: bool = True) -> Pending:
    """Stage ``unit`` and, with ``build_async``, start its build (else
    the first call builds it); returns the pending kernel.  ``counts``
    accumulates the cache outcome of each split submission (the split
    path's bind does its own cache lookup, which must not count as a
    hit)."""
    args = unit.make_args()
    p = Pending(unit, now_ns())
    p.args = args
    if not tracer.split:
        p.kernel = unit.stage()
        if build_async:
            terra_fn(p.kernel).compile_async()
        return p
    kid = unit.uid
    p.span = tracer.record("bench.first_result", p.t0, p.t0, kid,
                           async_=True)
    try:
        t = p.t0
        p.kernel = unit.stage()
        t = _step(tracer, "core.stage", t, kid, p.span)
        fn = terra_fn(p.kernel)
        fn.ensure_typechecked()
        t = _step(tracer, "core.typecheck", t, kid, p.span)
        backend = get_backend("c")
        pipelined_component(fn, backend)
        t = _step(tracer, "passes.pipeline", t, kid, p.span)
        source = backend.emit_source(fn)
        t = _step(tracer, "backend.c.emit", t, kid, p.span)
        counts.setdefault("c_bytes", []).append(len(source))
        before = buildd_counters(buildd.get_service())
        p.t_submit = t
        p.future = buildd.compile_async(source)
        add_into(counts, delta(buildd_counters(buildd.get_service()), before))
    except Exception:
        _close(tracer, p.span, now_ns())
        raise
    p.future.add_done_callback(lambda _f, p=p: setattr(p, "ready", now_ns()))
    return p


def _close(tracer, span, end: int) -> None:
    if span is not None:
        tracer.spans[span].end = end


def _step(tracer, name, start, kid, parent) -> int:
    end = now_ns()
    tracer.record(name, start, end, kid, parent)
    return end


def join(p: Pending, tracer, window: Window) -> None:
    """Wait for ``p``'s build, make its first call and check it."""
    unit = p.unit
    try:
        if tracer.split:
            outcome, t1 = _join_split(p, tracer)
        else:
            outcome = unit.run(p.kernel, p.args)
            t1 = now_ns()
    except Exception as exc:  # counted, never skipped
        window.fail(exc)
        return
    ms = (t1 - p.t0) / 1e6
    window.ops += 1
    window.op_ms.append(ms)
    window.kernel_ms.setdefault(unit.uid, []).append(ms)
    window.pending_checks.append((unit, outcome))


def _join_split(p: Pending, tracer):
    kid = p.unit.uid
    try:
        p.future.result()
        # the done-callback may run just after result() returns
        p.ready = p.ready or now_ns()
        tracer.record("buildd.compile", p.t_submit, p.ready, kid, p.span,
                      async_=True)
        t = now_ns()
        terra_fn(p.kernel).compile()
        t = _step(tracer, "backend.c.bind", t, kid, p.span)
        outcome = p.unit.run(p.kernel, p.args)
        t = _step(tracer, "exec.first_call", t, kid, p.span)
    except Exception:
        _close(tracer, p.span, now_ns())
        raise
    _close(tracer, p.span, t)
    return outcome, t


def check_outcomes(window: Window) -> None:
    """The oracle pass, outside the timed region."""
    for unit, outcome in window.pending_checks:
        window.checks += 1
        try:
            ok = outcome == expected_outcome(unit)
        except Exception as exc:
            window.fail(exc)
            continue
        if not ok:
            window.failures["wrong_output"] += 1
    window.pending_checks = []


# -- workloads -----------------------------------------------------------------

class CompileState:
    def __init__(self, ctx):
        self.refs = References(ctx.seed)
        self.draw = Draw(ctx.seed, self.refs)
        self.cjit = CJit(ctx.workdir)
        #: failed checks of the set-up's own references and kernels
        self.setup_failed = self.refs.failures


def setup_sweep(ctx) -> CompileState:
    """Naive-point references (compiled and run) and the unit draw."""
    ctx.fresh_service()
    state = CompileState(ctx)
    state.cjit.run(Window())     # warm gcc's files and ctypes
    return state


def measure_sweep(ctx, state: CompileState, seconds: float, tracer) -> Window:
    """Rounds of ROUND units, each on an empty artifact cache: every unit
    staged and submitted up front (as the §6.1 tuner does), then each
    joined, called once and checked.  A round whose cache hits plus
    in-flight dedups differ from its restaged units is a failure."""
    w = Window()
    counts: dict = {}
    max_depth = 0
    spent = 0
    while spent < seconds * 1e9:
        units = state.draw.round()
        w.attempted += len(units)
        svc = ctx.fresh_service()
        before = buildd_counters(svc)
        counts0 = {k: counts.get(k, 0)
                   for k in ("cache_hits", "inflight_dedup")}
        ops0 = w.ops
        t0 = now_ns()
        pending = []
        for unit in units:
            try:
                pending.append(submit(unit, tracer, counts))
            except Exception as exc:
                w.fail(exc)
        for p in pending:
            join(p, tracer, w)
        t1 = now_ns()
        spent += t1 - t0
        round_delta = delta(buildd_counters(svc), before)
        add_into(w.buildd, round_delta)
        max_depth = max(max_depth, svc.stats.max_queue_depth)
        # split, the bind's own cache lookup is a hit too: count the
        # outcomes of the submissions only
        if tracer.split:
            shared = _shared(counts) - _shared(counts0)
        else:
            shared = _shared(round_delta)
        if shared != len(RESTAGED_KINDS):
            w.failures["cache"] += 1
        check_outcomes(w)
        state.cjit.run(w)
        state.cjit.run(w)
        w.block(w.ops - ops0, t1 - t0, median(w.yardstick_ms["c_jit"][-2:]))
    w.peak_rss_mb = peak_rss_mb()
    for k in w.kernel_ms:
        w.yardstick_of[k] = "c_jit"
    w.layers = _compile_layers(w, counts, max_depth, tracer)
    return w


def _shared(counters: dict) -> int:
    """Submissions that shared an earlier build: hits and dedups."""
    return counters.get("cache_hits", 0) + counters.get("inflight_dedup", 0)


def setup_restage(ctx) -> CompileState:
    """RESTAGE_ROUNDS rounds of units built into a fresh cache and
    first-called, so the timed window only ever hits."""
    ctx.fresh_service()
    state = CompileState(ctx)
    state.units = [u for _ in range(RESTAGE_ROUNDS)
                   for u in state.draw.round()]
    w = Window()
    pending = [submit(u, ctx.no_trace, {}) for u in state.units]
    for p in pending:
        join(p, ctx.no_trace, w)
    check_outcomes(w)
    state.setup_failed += w.failed
    return state


def measure_restage(ctx, state: CompileState, seconds: float,
                    tracer) -> Window:
    """The set-up units restaged from source one at a time, each staged,
    built (a cache hit), bound and first-called before the next; a
    seeded order per pass.  buildd runs no gcc here: each gcc run is a
    failure."""
    import random
    rng = random.Random(f"perfbench-restage:{ctx.seed}")
    w = Window()
    counts: dict = {}
    svc = ctx.reuse_service()
    before = buildd_counters(svc)
    spent = 0
    while spent < seconds * 1e9:
        order = list(state.units)
        rng.shuffle(order)
        w.attempted += len(order)
        ops0, busy = w.ops, 0
        yard0 = len(w.yardstick_ms.get("py_jit", []))
        pass_before = buildd_counters(svc)
        t0 = now_ns()
        for unit in order:
            try:
                p = submit(unit, tracer, counts, build_async=False)
            except Exception as exc:
                w.fail(exc)
                continue
            join(p, tracer, w)
            busy += now_ns() - p.t0
            py_jit(w)
        t1 = now_ns()
        spent += t1 - t0
        w.block(w.ops - ops0, busy, median(w.yardstick_ms["py_jit"][yard0:]))
        gcc_runs = delta(buildd_counters(svc), pass_before).get("compiles", 0)
        w.failures["cache"] += min(gcc_runs, len(order))
        check_outcomes(w)
    w.peak_rss_mb = peak_rss_mb()
    w.buildd = delta(buildd_counters(svc), before)
    for k in w.kernel_ms:
        w.yardstick_of[k] = "py_jit"
    w.layers = _compile_layers(w, counts, svc.stats.max_queue_depth, tracer)
    return w


def _compile_layers(w: Window, counts: dict, max_depth: int,
                    tracer) -> dict:
    """Counter-based compile-path layer metrics (the span-based ones are
    derived in run.py).  With tracing, hits and dedups are the outcomes
    of the submissions only."""
    if not tracer.enabled:
        return {}
    submitted = counts.get("submitted", 0)
    hits = counts.get("cache_hits", 0)
    c_bytes = counts.get("c_bytes", [])
    return {
        "buildd.submitted": submitted,
        "buildd.cache_hits": hits,
        "buildd.inflight_dedup": counts.get("inflight_dedup", 0),
        "buildd.hit_ratio": hits / submitted if submitted else 0.0,
        "buildd.gcc_runs": w.buildd.get("compiles", 0),
        "buildd.busy_s": w.buildd.get("compile_seconds", 0.0),
        "buildd.max_queue_depth": max_depth,
        "backend.c.c_bytes.p50": median(c_bytes),
        "backend.c.c_bytes.total": sum(c_bytes),
    }
