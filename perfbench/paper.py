"""``paper_kernels``: the §6 kernels at moderate sizes, each next to a
yardstick that repro does not generate, timed in the same rounds.

=============================  =========================================
Terra kernels                  yardstick
=============================  =========================================
Fig. 6 GEMM, tuned packed and  numpy ``matmul`` (BLAS pinned to one
naive                          thread)
Fig. 8 area filter ladder      hand-written C (``CAreaFilter``)
Fig. 8 pointwise ladder        single-threaded numpy
Fig. 8 fluid step              hand-written C (``make_c_fluid``)
Fig. 9 normals / translate,    hand-written C over flat xyz arrays
AoS and SoA
attention, dequant, scan:      numpy reference of each family
naive and every schedule point
§6.3.1 virtual dispatch loop   hand-written C vtable dispatch
auto-vectorized kernel,        the same expressions in numpy
levels 1 and 3
=============================  =========================================

Every kernel, and every yardstick, runs once per round in a seeded
order, so drift hits both sides of each ratio alike.  Outputs are
checked after the timed window: against the yardstick's result within a
tolerance, and schedule points and the level-3 kernel bitwise against
their naive form.
"""

from __future__ import annotations

import ctypes
import random

import numpy as np

from repro import terra
from repro.apps import attention, dequant, scan
from repro.apps.areafilter import (CAreaFilter, build_area_filter,
                                   reference_numpy as areafilter_reference)
from repro.apps.dispatch import build_c_dispatch, build_terra_dispatch
from repro.apps.fluid import (FluidParams, initial_conditions, make_c_fluid,
                              make_orion_fluid)
from repro.apps.mesh import build_mesh_kernels, normals_reference, random_mesh
from repro.apps.pointwise import build_pipeline, reference_numpy as pw_reference
from repro.autotune.matmul import make_gemm_packed, naive_matmul
from repro.backend.c.runtime import extra_cflags
from repro.orion import lang as L
from repro.passes import PIPELINE_CANON, PIPELINE_VEC, pipeline_override

import cbuild
from harness import Window, median, now_ns, peak_rss_mb

GEMM_N, NAIVE_N = 256, 128
IMAGE_N = 1024
FLUID_N = 128
NVERTS, NTRIS = 100_000, 200_000
ATTN_N, ATTN_D = 128, 64
DQ_N, DQ_M, DQ_K = 64, 256, 256
SCAN_N, SCAN_R = 2048, 64
DISPATCH_ITERS = 200_000
VEC_N, VEC_REPS = 2048, 20

AUTOVEC_SRC = """
terra k(a : &float, b : &float, c : &float, d : &float,
        o1 : &float, o2 : &float, o3 : &float, o4 : &float,
        n : int, reps : int) : {}
  for r = 0, reps do
    a[0] = [float](r)
    for i = 0, n do
      o1[i] = a[i] * b[i] + c[i] * d[i] + a[i] * c[i] + b[i] * d[i]
      o2[i] = (a[i] + b[i]) * (c[i] + d[i]) - a[i] * d[i]
      o3[i] = a[i] * a[i] + b[i] * b[i] + c[i] * c[i] + d[i] * d[i]
      o4[i] = (a[i] - b[i]) * (c[i] - d[i]) + b[i] * c[i]
    end
  end
end
"""


#: the Fig. 9 yardsticks: the same two kernels over flat xyz float
#: arrays, built by the benchmark itself (cbuild.py)
MESH_C_SOURCE = r"""
void normals(const float *pos, const int *tris, float *nrm, long ntris) {
    for (long k = 0; k < ntris; k++) {
        const float *a = pos + 3 * tris[3 * k];
        const float *b = pos + 3 * tris[3 * k + 1];
        const float *c = pos + 3 * tris[3 * k + 2];
        float e1x = b[0] - a[0], e1y = b[1] - a[1], e1z = b[2] - a[2];
        float e2x = c[0] - a[0], e2y = c[1] - a[1], e2z = c[2] - a[2];
        float fx = e1y * e2z - e1z * e2y;
        float fy = e1z * e2x - e1x * e2z;
        float fz = e1x * e2y - e1y * e2x;
        for (int v = 0; v < 3; v++) {
            float *n = nrm + 3 * tris[3 * k + v];
            n[0] += fx; n[1] += fy; n[2] += fz;
        }
    }
}

void translate(float *pos, float dx, float dy, float dz, long n) {
    for (long i = 0; i < n; i++) {
        pos[3 * i] += dx; pos[3 * i + 1] += dy; pos[3 * i + 2] += dz;
    }
}
"""


class Kernel:
    """One Terra kernel: ``run()`` executes it once, ``check()`` tests
    the output it left behind."""

    def __init__(self, run, yardstick: str, check):
        self.run = run
        self.yardstick = yardstick
        self.check = check


class PaperState:
    def __init__(self):
        self.kernels: dict[str, Kernel] = {}
        self.yardsticks: dict = {}
        self.setup_checks: list[bool] = []


def setup(ctx) -> PaperState:
    ctx.fresh_service()
    st = PaperState()
    rng = np.random.RandomState(ctx.seed % (2 ** 32))
    # asynchronously built units first, so the pool compiles them while
    # the Orion builders below compile theirs synchronously
    _schedules(st, rng)
    _gemm(st, rng)
    _autovec(st, rng)
    _mesh(st, rng, ctx.workdir)
    _dispatch(st)
    _orion(st, rng)
    for k in st.kernels.values():      # compile (where lazy) and warm up
        k.run()
    for y in st.yardsticks.values():
        y()
    return st


def _gemm(st, rng):
    for name, n, make in (("tuned", GEMM_N, lambda: make_gemm_packed(
            128, 4, 2, 4)), ("naive", NAIVE_N, naive_matmul)):
        a, b = rng.rand(n, n), rng.rand(n, n)
        c, cy = np.zeros((n, n)), np.zeros((n, n))
        gemm = make()
        gemm.compile_async()
        ref = a @ b
        st.kernels[f"gemm.{name}"] = Kernel(
            lambda g=gemm, c=c, a=a, b=b, n=n: g(c, a, b, n), f"numpy.gemm{n}",
            lambda c=c, ref=ref, n=n: np.allclose(c, ref, rtol=1e-12,
                                                  atol=1e-12 * n))
        st.yardsticks[f"numpy.gemm{n}"] = \
            lambda a=a, b=b, cy=cy: np.matmul(a, b, out=cy)


def _orion(st, rng):
    img = rng.rand(IMAGE_N, IMAGE_N).astype(np.float32)
    caf = CAreaFilter(IMAGE_N)
    csrc, cout = caf.pad(img), caf.alloc_out()
    st.yardsticks["c.areafilter"] = lambda: caf(csrc, cout)
    ref = areafilter_reference(img)
    st.setup_checks.append(np.allclose(caf.run(img), ref, atol=1e-4))
    for label, vec, lb in (("match", 0, False), ("vec4", 4, False),
                           ("vec4lb", 4, True)):
        af = build_area_filter(IMAGE_N, vectorize=vec, linebuffer=lb)
        src, out = af.pad(img), af.alloc_out()
        st.kernels[f"orion.areafilter.{label}"] = Kernel(
            lambda af=af, o=out, s=src: af(o, s), "c.areafilter",
            lambda af=af, o=out: np.allclose(af.unpad(o), ref, atol=1e-4))

    pw_ref = pw_reference(img)
    st.yardsticks["numpy.pointwise"] = lambda: pw_reference(img)
    for policy in (L.MATERIALIZE, L.INLINE, L.LINEBUFFER):
        pipe = build_pipeline(IMAGE_N, policy=policy)
        src, out = pipe.pad(img), pipe.alloc_out()
        st.kernels[f"orion.pointwise.{policy}"] = Kernel(
            lambda p=pipe, o=out, s=src: p(o, s), "numpy.pointwise",
            lambda p=pipe, o=out: np.allclose(p.unpad(o), pw_ref, atol=1e-6))

    params = FluidParams(FLUID_N)
    u, v, d = initial_conditions(FLUID_N, seed=int(rng.randint(1 << 30)))
    cfluid = make_c_fluid(params)
    cfluid.set_state(u, v, d)
    st.yardsticks["c.fluid"] = cfluid.step
    for label, vec, lb in (("match", 0, False), ("vec4lb", 4, True)):
        sim = make_orion_fluid(params, vectorize=vec, linebuffer=lb)
        sim.set_state(u, v, d)
        st.kernels[f"orion.fluid.{label}"] = Kernel(
            sim.step, "c.fluid",
            lambda sim=sim: _fluid_agrees(sim, cfluid, (u, v, d)))


def _fluid_agrees(sim, cfluid, state) -> bool:
    """Two steps from the initial state match the C reference (the timed
    steps evolve the state, so the check restarts both)."""
    sim.set_state(*state)
    cfluid.set_state(*state)
    for _ in range(2):
        sim.step()
        cfluid.step()
    return all(np.allclose(a, b, atol=1e-4)
               for a, b in zip(sim.get_state(), cfluid.get_state()))


def _mesh(st, rng, workdir):
    positions, tris = random_mesh(NVERTS, NTRIS,
                                  seed=int(rng.randint(1 << 30)))
    fpos = np.ascontiguousarray(positions.reshape(-1))
    ftris = np.ascontiguousarray(tris.reshape(-1))
    mesh_c = cbuild.build(MESH_C_SOURCE, "mesh", workdir)
    p, f = ctypes.c_void_p, ctypes.c_float
    normals, translate = mesh_c.normals, mesh_c.translate
    normals.argtypes, normals.restype = [p, p, p, ctypes.c_long], None
    translate.argtypes = [p, f, f, f, ctypes.c_long]
    translate.restype = None
    pos_y = fpos.copy()
    nrm_y = np.zeros_like(fpos)
    st.yardsticks["c.normals"] = \
        lambda: normals(fpos.ctypes.data, ftris.ctypes.data,
                        nrm_y.ctypes.data, NTRIS)
    st.yardsticks["c.translate"] = \
        lambda: translate(pos_y.ctypes.data, 0.001, 0.0, 0.0, NVERTS)
    ref = normals_reference(positions, tris)
    st.yardsticks["c.normals"]()
    st.setup_checks.append(np.allclose(nrm_y.reshape(-1, 3), ref, atol=1e-3))
    for layout in ("AoS", "SoA"):
        # type-clean units: compiled with strict aliasing, as the
        # Fig. 9 layout benchmark does
        with extra_cflags("-fstrict-aliasing"):
            k = build_mesh_kernels(layout)
            for fn in (k.alloc, k.fill, k.calc_normals, k.translate,
                       k.readback):
                fn.compile_async()
            table = k.alloc(NVERTS)
            k.fill(table, fpos, NVERTS)
            k.calc_normals(table, ftris, NTRIS)
            k.translate(table, 0.0, 0.0, 0.0, NVERTS)
            k.readback(table, np.zeros(NVERTS * 3, np.float32),
                       np.zeros(NVERTS * 3, np.float32), NVERTS)
        check = (lambda k=k, t=table: _mesh_agrees(k, t, fpos, ftris,
                                                   positions, ref))
        low = layout.lower()
        st.kernels[f"lib.datatable.{low}.normals"] = Kernel(
            lambda k=k, t=table: k.calc_normals(t, ftris, NTRIS),
            "c.normals", check)
        st.kernels[f"lib.datatable.{low}.translate"] = Kernel(
            lambda k=k, t=table: k.translate(t, 0.001, 0.0, 0.0, NVERTS),
            "c.translate", check)


def _mesh_agrees(k, table, fpos, ftris, positions, ref) -> bool:
    k.fill(table, fpos, NVERTS)
    k.calc_normals(table, ftris, NTRIS)
    k.translate(table, 1.0, -2.0, 0.5, NVERTS)
    pos = np.zeros(NVERTS * 3, np.float32)
    nrm = np.zeros(NVERTS * 3, np.float32)
    k.readback(table, pos, nrm, NVERTS)
    moved = positions + np.float32([1.0, -2.0, 0.5])
    return (np.allclose(nrm.reshape(-1, 3), ref, atol=1e-3)
            and np.allclose(pos.reshape(-1, 3), moved, atol=1e-5))


def _schedules(st, rng):
    q, k, v = (rng.rand(ATTN_N, ATTN_D).astype(np.float32) for _ in range(3))
    st.yardsticks["numpy.attention"] = lambda: attention.reference(q, k, v)
    _family(st, "attention", [None] + attention.schedule_points(ATTN_D),
            lambda p: attention.make_attention(ATTN_D, p),
            lambda: np.zeros((ATTN_N, ATTN_D), np.float32),
            lambda kern, o: kern(ATTN_N, q, k, v, o),
            lambda o: np.allclose(o, attention.reference(q, k, v),
                                  atol=1e-4))

    a = rng.rand(DQ_N, DQ_K).astype(np.float32)
    b = rng.randint(-128, 128, size=(DQ_K, DQ_M)).astype(np.int8)
    scale = 0.03125
    st.yardsticks["numpy.dequant"] = lambda: dequant.reference(a, b, scale)

    def dq_run(kern, c):
        c.fill(0)                   # scheduled forms accumulate into c
        kern(DQ_N, DQ_M, DQ_K, a, b, scale, c)

    _family(st, "dequant", [None] + dequant.schedule_points(),
            dequant.make_dequant_gemm,
            lambda: np.zeros((DQ_N, DQ_M), np.float32), dq_run,
            lambda c: np.allclose(c, dequant.reference(a, b, scale),
                                  rtol=1e-4, atol=1e-3))

    x = rng.rand(SCAN_N, SCAN_R).astype(np.float32)
    xy = np.zeros_like(x)
    st.yardsticks["numpy.scan"] = lambda: np.cumsum(x, axis=0, out=xy)
    _family(st, "scan", [None] + scan.schedule_points(SCAN_R),
            lambda p: scan.make_scan(SCAN_R, p), lambda: np.zeros_like(x),
            lambda kern, o: kern(SCAN_N, x, o),
            lambda o: np.allclose(o, scan.reference(x), rtol=1e-4))


def _family(st, family, points, make, alloc, call, near_reference):
    """The naive point (checked against numpy) and every schedule point
    (checked bitwise against the naive point's output)."""
    naive_out = None
    for i, point in enumerate(points):
        kern = make(point)
        out = alloc()
        if point is None:
            naive_out = out
            check = (lambda o=out: near_reference(o))
            name = f"schedule.{family}.naive"
        else:
            check = (lambda o=out: o.tobytes() == naive_out.tobytes())
            name = f"schedule.{family}.p{i}"
        kern.compile_async()        # built on the pool while staging on
        st.kernels[name] = Kernel(lambda kern=kern, o=out: call(kern, o),
                                  f"numpy.{family}", check)


def _dispatch(st):
    tk, ck = build_terra_dispatch(), build_c_dispatch()
    obj, cobj = tk.make(1.0001, 0.5), ck.c_make(1.0001, 0.5)
    st.yardsticks["c.dispatch"] = \
        lambda: ck.c_loop_virtual(cobj, DISPATCH_ITERS)
    st.kernels["dispatch.virtual"] = Kernel(
        lambda: tk.loop_virtual(obj, DISPATCH_ITERS), "c.dispatch",
        lambda: abs(tk.loop_virtual(obj, 100_000)
                    - ck.c_loop_virtual(cobj, 100_000)) < 1e-3)


def _autovec(st, rng):
    ins = [rng.rand(VEC_N).astype(np.float32) for _ in range(4)]
    outs = {}
    for label, level in (("l1", PIPELINE_CANON), ("l3", PIPELINE_VEC)):
        # a fresh terra() per level: two independent C units
        with pipeline_override(level):
            fn = terra(AUTOVEC_SRC, env={})
            fn.compile_async()
        arrays = [a.copy() for a in ins] + \
            [np.zeros(VEC_N, np.float32) for _ in range(4)]
        outs[label] = arrays
        st.kernels[f"passes.autovec.{label}"] = Kernel(
            lambda fn=fn, ar=arrays: fn(*ar, VEC_N, VEC_REPS),
            "numpy.autovec", None)
    yard = [a.copy() for a in ins] + \
        [np.zeros(VEC_N, np.float32) for _ in range(4)]
    st.yardsticks["numpy.autovec"] = lambda: _autovec_numpy(*yard)

    def l1_check():
        _autovec_numpy(*yard)
        return all(np.allclose(o, y, rtol=1e-5)
                   for o, y in zip(outs["l1"], yard))

    def l3_check():
        return all(o.tobytes() == p.tobytes()
                   for o, p in zip(outs["l3"], outs["l1"]))

    st.kernels["passes.autovec.l1"].check = l1_check
    st.kernels["passes.autovec.l3"].check = l3_check


def _autovec_numpy(a, b, c, d, o1, o2, o3, o4):
    for r in range(VEC_REPS):
        a[0] = r
        o1[:] = a * b + c * d + a * c + b * d
        o2[:] = (a + b) * (c + d) - a * d
        o3[:] = a * a + b * b + c * c + d * d
        o4[:] = (a - b) * (c - d) + b * c


# -- the timed window ----------------------------------------------------------

def measure(ctx, st: PaperState, seconds: float, tracer) -> Window:
    w = Window()
    names = sorted(st.kernels) + sorted(st.yardsticks)
    order = random.Random(f"perfbench-paper:{ctx.seed}")
    spent = 0
    while spent < seconds * 1e9:
        order.shuffle(names)
        ops0, busy = w.ops, 0
        round_yard: dict = {}
        t_round = now_ns()
        for name in names:
            kernel = st.kernels.get(name)
            f = kernel.run if kernel is not None else st.yardsticks[name]
            t0 = now_ns()
            try:
                f()
            except Exception as exc:  # counted, never skipped
                w.fail(exc)
                w.attempted += kernel is not None
                continue
            t1 = now_ns()
            ms = (t1 - t0) / 1e6
            if kernel is None:
                w.yardstick_ms.setdefault(name, []).append(ms)
                round_yard[name] = ms
                continue
            tracer.record("exec.kernel_call", t0, t1, name)
            w.attempted += 1
            w.ops += 1
            busy += t1 - t0
            w.op_ms.append(ms)
            w.kernel_ms.setdefault(name, []).append(ms)
        spent += now_ns() - t_round
        # yardstick time of the round's average kernel run
        yard = [round_yard[k.yardstick] for k in st.kernels.values()
                if k.yardstick in round_yard]
        w.block(w.ops - ops0, busy, sum(yard) / len(yard) if yard else 0.0)
    w.peak_rss_mb = peak_rss_mb()
    for name, kernel in st.kernels.items():
        w.yardstick_of[name] = kernel.yardstick
        w.checks += 1
        try:
            ok = bool(kernel.check())
        except Exception as exc:
            w.fail(exc)
            continue
        if not ok:
            w.failures["wrong_output"] += len(w.kernel_ms.get(name, [])) or 1
    for ok in st.setup_checks:
        w.checks += 1
        w.failures["wrong_output"] += not ok
    if tracer.enabled:
        w.layers = _kernel_layers(w)
    return w


def _kernel_layers(w: Window) -> dict:
    med = {k: median(v) for k, v in w.kernel_ms.items()}
    yard = {k: median(v) for k, v in w.yardstick_ms.items()}

    def rate(amount, name):
        return amount / (med[name] / 1e3) / 1e9 if med.get(name) else 0.0

    def best_point(family):
        pts = [v for k, v in med.items()
               if k.startswith(f"schedule.{family}.p")]
        naive = med.get(f"schedule.{family}.naive")
        return naive / min(pts) if pts and naive else 0.0

    def ratio(num, den):
        return num / den if num and den else 0.0

    normals_bytes = NTRIS * 3 * (12 + 12 + 12)
    translate_bytes = NVERTS * 24
    return {
        "autotune.gemm_gflops.tuned": rate(2.0 * GEMM_N ** 3, "gemm.tuned"),
        "autotune.gemm_gflops.naive": rate(2.0 * NAIVE_N ** 3, "gemm.naive"),
        "orion.areafilter_speedup": ratio(
            yard.get("c.areafilter"), med.get("orion.areafilter.vec4lb")),
        "orion.pointwise_speedup": ratio(
            med.get("orion.pointwise.materialize"),
            med.get("orion.pointwise.inline")),
        "orion.fluid_speedup": ratio(yard.get("c.fluid"),
                                     med.get("orion.fluid.vec4lb")),
        "schedule.attention_speedup": best_point("attention"),
        "schedule.dequant_speedup": best_point("dequant"),
        "schedule.scan_speedup": best_point("scan"),
        "lib.datatable.normals_gbps.aos": rate(
            normals_bytes, "lib.datatable.aos.normals"),
        "lib.datatable.normals_gbps.soa": rate(
            normals_bytes, "lib.datatable.soa.normals"),
        "lib.datatable.translate_gbps.aos": rate(
            translate_bytes, "lib.datatable.aos.translate"),
        "lib.datatable.translate_gbps.soa": rate(
            translate_bytes, "lib.datatable.soa.translate"),
        "passes.autovec_speedup": ratio(med.get("passes.autovec.l1"),
                                        med.get("passes.autovec.l3")),
    }
