"""``warm_calls``: Python -> Terra calls to kernels compiled in set-up.

A closed loop with one caller thread walks a seeded interleaving of
scalar-argument functions and numpy kernels small enough that the
kernel costs less than the call, so ``exec``, ``ffi`` and the
``backend.c`` runtime own the time.  Every 4th pass over the interleaving
is a yardstick pass: the same seven functions written in C
(``C_SOURCE``), built by the benchmark itself (cbuild.py) and called
through the benchmark's own ctypes bindings with arguments converted
beforehand, a foreign call with no repro code on its path.

In a ``--trace 1`` run (``tracer.split``), passes rotate between the
three entry points of the call path: the bound ctypes entry repro
generated, called with arguments its handle converted beforehand
(``ffi``), the backend handle ``fn.compile()`` (``backend.c``: argument
conversion, trap check) and ``fn(*args)`` (``exec``: the dispatcher and
policy).  The differences between their medians are each layer's self
time.  The first reaches into the handle's internals; if they change,
``ffi.raw_call_us`` and the ``backend.c`` self time read 0 rather than
the run failing.
"""

from __future__ import annotations

import ctypes
import random
from array import array

import numpy as np

from repro import terra

import cbuild
from harness import Window, median, now_ns, peak_rss_mb

SOURCE = """
terra add(a : int, b : int) : int return a + b end
terra poly(x : double) : double return ((2.0 * x + 3.0) * x - 1.0) * x + 0.5 end
terra mix(a : int64, b : double, c : int32) : double
  return [double](a) * b + c
end
terra lt(a : float, b : float) : bool return a < b end
terra dot(x : &double, y : &double, n : int) : double
  var acc = 0.0
  for i = 0, n do acc = acc + x[i] * y[i] end
  return acc
end
terra saxpy(a : float, x : &float, y : &float, out : &float, n : int) : {}
  for i = 0, n do out[i] = a * x[i] + y[i] end
end
terra isum(x : &int32, n : int) : int32
  var acc : int32 = 0
  for i = 0, n do acc = acc + x[i] end
  return acc
end
"""

#: the yardstick: SOURCE's functions in C, with the same IEEE operations
C_SOURCE = r"""
#include <stdbool.h>
#include <stdint.h>
int32_t add(int32_t a, int32_t b) { return a + b; }
double poly(double x) { return ((2.0 * x + 3.0) * x - 1.0) * x + 0.5; }
double mix(int64_t a, double b, int32_t c) { return (double)a * b + c; }
bool lt(float a, float b) { return a < b; }
double dot(const double *x, const double *y, int32_t n) {
    double acc = 0.0;
    for (int32_t i = 0; i < n; i++) acc = acc + x[i] * y[i];
    return acc;
}
void saxpy(float a, const float *x, const float *y, float *out, int32_t n) {
    for (int32_t i = 0; i < n; i++) out[i] = a * x[i] + y[i];
}
int32_t isum(const int32_t *x, int32_t n) {
    int32_t acc = 0;
    for (int32_t i = 0; i < n; i++) acc = acc + x[i];
    return acc;
}
"""
_P = ctypes.c_void_p
#: name -> (argtypes, restype) of the C yardstick
C_SIGNATURES = {
    "add": ((ctypes.c_int32, ctypes.c_int32), ctypes.c_int32),
    "poly": ((ctypes.c_double,), ctypes.c_double),
    "mix": ((ctypes.c_int64, ctypes.c_double, ctypes.c_int32),
            ctypes.c_double),
    "lt": ((ctypes.c_float, ctypes.c_float), ctypes.c_bool),
    "dot": ((_P, _P, ctypes.c_int32), ctypes.c_double),
    "saxpy": ((ctypes.c_float, _P, _P, _P, ctypes.c_int32), None),
    "isum": ((_P, ctypes.c_int32), ctypes.c_int32),
}

SCALAR = ("add", "poly", "mix", "lt")
NUMPY = ("dot", "saxpy", "isum")
ARGSETS = 64          # argument sets per function
SEQUENCE = 512        # calls per pass over the interleaving
YARD_EVERY = 4        # every 4th untraced pass is a yardstick pass
SPAN_EVERY = 16       # traced: one span per 16 calls keeps the trace small
YARDSTICK = "c.call"
VARIANTS = ("ffi.raw_call", "backend.c.handle_call", "exec.dispatch_call")


def _argsets(name: str, rng: np.random.RandomState):
    """(args, expected) pairs; ``expected`` mirrors the kernel's IEEE
    operations exactly (no contraction), or is the output array's
    expected contents for ``saxpy``."""
    out = []
    for _ in range(ARGSETS):
        if name == "add":
            a, b = (int(v) for v in rng.randint(-1000, 1000, 2))
            out.append(((a, b), a + b))
        elif name == "poly":
            x = float(rng.uniform(-10, 10))
            out.append(((x,), ((2.0 * x + 3.0) * x - 1.0) * x + 0.5))
        elif name == "mix":
            a, c = int(rng.randint(-10 ** 6, 10 ** 6)), int(rng.randint(-999, 999))
            b = float(rng.uniform(-5, 5))
            out.append(((a, b, c), float(a) * b + float(c)))
        elif name == "lt":
            a, b = (float(v) for v in rng.uniform(-1, 1, 2))
            out.append(((a, b), bool(np.float32(a) < np.float32(b))))
        elif name == "dot":
            x, y = rng.rand(8), rng.rand(8)
            acc = 0.0
            for i in range(8):
                acc = acc + float(x[i]) * float(y[i])
            out.append(((x, y, 8), acc))
        elif name == "saxpy":
            a = np.float32(rng.uniform(-2, 2))
            x = rng.rand(16).astype(np.float32)
            y = rng.rand(16).astype(np.float32)
            o = np.zeros(16, np.float32)
            out.append(((float(a), x, y, o, 16), (a * x + y).tobytes()))
        else:
            x = rng.randint(-1000, 1000, 32).astype(np.int32)
            out.append(((x, 32), int(x.sum())))
    return out


def _c_args(args, argtypes) -> tuple:
    """``args`` converted beforehand for the C yardstick: arrays become
    pointers to their data, scalars ctypes values."""
    return tuple(ty(a.ctypes.data) if isinstance(a, np.ndarray) else ty(a)
                 for a, ty in zip(args, argtypes))


def _raw_entry(handle, args):
    """The bound ctypes entry repro generated and its arguments as the
    handle converts them, beforehand (handle internals)."""
    keep: list = []
    cargs = [handle._to_c(v, ty, keep)
             for v, ty in zip(args, handle.type.parameters)]
    if handle.centry is not None:
        return handle.centry, (*cargs, ctypes.byref(ctypes.c_int32(0))), keep
    return handle.cfn, tuple(cargs), keep


class CallState:
    def __init__(self, ctx):
        ns = terra(SOURCE, env={})
        rng = np.random.RandomState(ctx.seed % (2 ** 32))
        self.fns = {name: ns[name] for name in SCALAR + NUMPY}
        self.sets = {name: _argsets(name, rng) for name in self.fns}
        for name, fn in self.fns.items():   # compile and first-call all
            fn(*self.sets[name][0][0])
        lib = cbuild.build(C_SOURCE, "calls", ctx.workdir)
        self.cfns = {}
        for name, (argtypes, restype) in C_SIGNATURES.items():
            cfn = getattr(lib, name)
            cfn.argtypes, cfn.restype = argtypes, restype
            self.cfns[name] = cfn
        order = random.Random(f"perfbench-calls:{ctx.seed}")
        self.seq = [(order.choice(list(self.fns)), order.randrange(ARGSETS))
                    for _ in range(SEQUENCE)]
        self.positions = {name: np.array([i for i, (n, _) in
                                          enumerate(self.seq) if n == name])
                          for name in self.fns}
        self.keep = []
        self.calls = {
            "exec.dispatch_call": [(self.fns[n], self.sets[n][k][0])
                                   for n, k in self.seq],
            "backend.c.handle_call": [(self.fns[n].compile(),
                                       self.sets[n][k][0])
                                      for n, k in self.seq],
            YARDSTICK: [(self.cfns[n], _c_args(self.sets[n][k][0],
                                               C_SIGNATURES[n][0]))
                        for n, k in self.seq]}
        try:
            raw = []
            for n, k in self.seq:
                entry, cargs, keep = _raw_entry(self.fns[n].compile(),
                                                self.sets[n][k][0])
                self.keep.append(keep)
                raw.append((entry, cargs))
            self.calls["ffi.raw_call"] = raw
        except Exception:   # the handle's internals changed: no ffi layer
            self.keep = []
        #: the entry points a traced run rotates between
        self.variants = [v for v in VARIANTS if v in self.calls]


def setup(ctx) -> CallState:
    ctx.fresh_service()
    return CallState(ctx)


def _pass(calls, tracer, variant, first_kid):
    """One timed pass; returns (durations ns, results, wall ns)."""
    durs = array("q")
    results = []
    pc = now_ns
    start = pc()
    if tracer.split:
        for j, (f, a) in enumerate(calls):
            t0 = pc()
            r = f(*a)
            t1 = pc()
            durs.append(t1 - t0)
            results.append(r)
            if j % SPAN_EVERY == 0:
                tracer.record(variant, t0, t1, first_kid + j)
    else:
        for f, a in calls:
            t0 = pc()
            r = f(*a)
            t1 = pc()
            durs.append(t1 - t0)
            results.append(r)
    return durs, results, pc() - start


def _check(state, variant, results, w: Window) -> None:
    for (name, k), r in zip(state.seq, results):
        w.checks += 1
        args, expected = state.sets[name][k]
        if name == "saxpy":
            ok = args[3].tobytes() == expected
        elif variant == "ffi.raw_call" and name == "lt":
            ok = bool(r) == expected
        else:
            ok = r == expected
        if not ok:
            w.failures["wrong_output"] += 1


def measure(ctx, state: CallState, seconds: float, tracer) -> Window:
    w = Window()
    per_fn = {v: {name: [] for name in state.fns}
              for v in VARIANTS + (YARDSTICK,)}
    p = 0
    spent = 0
    block_ops = block_ns = 0
    while spent < seconds * 1e9:
        if tracer.split:
            variant = state.variants[p % len(state.variants)]
        elif p % YARD_EVERY == YARD_EVERY - 1:
            variant = YARDSTICK
        else:
            variant = "exec.dispatch_call"
        t_pass = now_ns()
        try:
            durs, results, wall = _pass(state.calls[variant], tracer,
                                        variant, p * SEQUENCE)
        except Exception as exc:  # counted, never skipped
            w.fail(exc)
            w.attempted += SEQUENCE
            spent += now_ns() - t_pass
            p += 1
            continue
        spent += wall
        # float32 ms: a run stores ~10^6 of them
        d = (np.frombuffer(durs, dtype=np.int64) / 1e6).astype(np.float32)
        for name, pos in state.positions.items():
            per_fn[variant][name].append(d[pos])
        if variant == "exec.dispatch_call":
            w.ops += len(durs)
            block_ops += len(durs)
            block_ns += wall
            w.attempted += SEQUENCE
            w.op_ms.append(d)
        elif variant == YARDSTICK and block_ops:
            # the yardstick pass walks the same interleaving: its mean is
            # the yardstick time of the average call
            w.block(block_ops, block_ns, float(d.mean()))
            block_ops = block_ns = 0
        _check(state, variant, results, w)
        p += 1
    w.peak_rss_mb = peak_rss_mb()
    w.op_ms = np.concatenate(w.op_ms) if w.op_ms else np.zeros(0)
    merged = {v: {name: np.concatenate(parts) if parts else np.zeros(0)
                  for name, parts in fns.items()}
              for v, fns in per_fn.items()}
    for name in state.fns:
        w.kernel_ms[name] = merged["exec.dispatch_call"][name]
        w.yardstick_ms["c:" + name] = merged[YARDSTICK][name]
        w.yardstick_of[name] = "c:" + name
    if tracer.enabled:
        w.layers = _call_layers(merged)
    return w


def _call_layers(merged) -> dict:
    """Per-layer call times in µs, for scalar and numpy arguments."""
    out = {}
    for kind, names in (("scalar", SCALAR), ("numpy", NUMPY)):
        med = {v: median(np.concatenate([merged[v][n] for n in names])) * 1e3
               for v in VARIANTS}
        raw = med["ffi.raw_call"]
        handle = med["backend.c.handle_call"]
        dispatch = med["exec.dispatch_call"]
        out[f"ffi.raw_call_us.{kind}"] = raw
        out[f"backend.c.handle_call_us.{kind}"] = handle
        out[f"exec.dispatch_call_us.{kind}"] = dispatch
        out[f"backend.c.self_us.{kind}"] = handle - raw if raw else 0.0
        out[f"exec.self_us.{kind}"] = dispatch - handle
    return out
