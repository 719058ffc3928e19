"""The full blocked matrix multiply built on the Figure-5 kernel.

Paper §6.1: "ATLAS breaks down a matrix multiply into smaller operations
where the matrices fit into L1 cache.  An optimized kernel for L1-sized
multiplies is used for each operation. ... We found that a simple
two-level blocking scheme worked well."

One staging function builds ``gemm(C, A, B, N)`` for any square
row-major N: a row-panel loop around two instances of the L1 kernel (an
``alpha=0`` variant for the first k-block, which also initializes C, and
an ``alpha=1`` accumulating variant), with naive loops for whatever the
NB-blocked interior leaves out.  Panel packing is spliced in or left
out; thread dispatch is a ``Parallel("i_o")`` schedule directive.
``make_gemm``/``make_gemm_packed`` take the (NB, RM, RN, V) tuple,
``make_gemm_from_schedule`` the tuner's :class:`repro.schedule.Schedule`.
"""

from __future__ import annotations

from .. import (double, expr, includec, int64, pointer, quote_, symbol,
               terra)
from ..core import types as T
from ..schedule import (Pack, Parallel, Schedule, ScheduleError, Tile, Unroll,
                        Vectorize, apply)
from .genkernel import genkernel


def _start_compile(gemm, fma: bool, async_compile: bool) -> None:
    """Kick off the kernel's native build: blocking by default, or
    submitted to the buildd pool (``async_compile=True``) so many
    candidate kernels compile concurrently — the first call joins the
    pending build.  FMA contraction flags are captured at submission."""
    from ..backend.c.runtime import extra_cflags
    if fma:
        with extra_cflags("-ffp-contract=fast"):
            if async_compile:
                gemm.compile_async("c")
            else:
                gemm.compile("c")
    elif async_compile:
        gemm.compile_async("c")


def _stage_gemm(NB: int, RM: int, RN: int, V: int, elem: T.Type,
                use_prefetch: bool, fma: bool, async_compile: bool,
                packed: bool, parallel=None):
    """Stage ``gemm(C, A, B, N)`` for any N as one row-panel loop
    ``for i_o = 0, N, NB`` (the axis ``Parallel("i_o")`` dispatches).

    A full panel runs the NB-blocked interior over ``(nb, kb)`` —
    ``l1_first`` at ``kb == 0``, ``l1_accum`` after — then its k tail,
    then its right-edge columns as naive full-k dot products; the
    partial last panel is all naive dot products.  Every element thus
    accumulates in ascending k, as ``naive_matmul`` does.

    ``packed`` splices in ATLAS-style panel packing: each L1 block of A
    and B is copied into per-panel scratch, so the kernel sees unit
    stride and no cache-set conflicts.  Unpacked, the kernel reads the
    blocks in place with leading dimension N.  A ``parallel`` directive
    is attached with :func:`repro.schedule.apply`."""
    l1_first = genkernel(NB, RM, RN, V, 0.0, elem, use_prefetch)
    l1_accum = genkernel(NB, RM, RN, V, 1.0, elem, use_prefetch)
    eptr = pointer(elem)
    C, A, B = symbol(eptr, "C"), symbol(eptr, "A"), symbol(eptr, "B")
    N, i_o, nb, kb = (symbol(int64, s) for s in ("N", "i_o", "nb", "kb"))
    if packed:
        std = includec("stdlib.h")
        pa, pb, ld = symbol(eptr, "bufA"), symbol(eptr, "bufB"), NB
        alloc = quote_("""
          var [pa] = [eptr](std.malloc(NB * NB * sizeof(elem)))
          var [pb] = [eptr](std.malloc(NB * NB * sizeof(elem)))
        """)
        pack = quote_("""
          for i = 0, NB do   -- B[kb : kb+NB, nb : nb+NB]
            var src = [B] + ([kb] + i) * [N] + [nb]
            var dst = [pb] + i * NB
            for j = 0, NB do dst[j] = src[j] end
          end
          for i = 0, NB do   -- A[i_o : i_o+NB, kb : kb+NB]
            var src = [A] + ([i_o] + i) * [N] + [kb]
            var dst = [pa] + i * NB
            for j = 0, NB do dst[j] = src[j] end
          end
        """)
        free = quote_("""
          std.free([pa])
          std.free([pb])
        """)
    else:
        pa = expr("[A] + [i_o] * [N] + [kb]")
        pb = expr("[B] + [kb] * [N] + [nb]")
        ld, alloc, pack, free = N, [], [], []
    gemm = terra("""
    terra gemm([C] : &elem, [A] : &elem, [B] : &elem, [N] : int64) : {}
      var N0 = ([N] / NB) * NB   -- the extent of the blocked interior
      for [i_o] = 0, [N], NB do
        var ilim, jlo = [N], int64(0)   -- a partial panel is all naive
        if [i_o] < N0 then
          ilim, jlo = [i_o] + NB, N0
          [alloc]
          for [nb] = 0, N0, NB do
            for [kb] = 0, N0, NB do
              [pack]
              var c = [C] + [i_o] * [N] + [nb]
              if [kb] == 0 then l1_first([pa], [pb], c, [ld], [ld], [N])
              else l1_accum([pa], [pb], c, [ld], [ld], [N]) end
            end
          end
          [free]
          for i = [i_o], ilim do   -- the panel's k tail
            for k = N0, [N] do
              var aik = [A][i * [N] + k]
              for j = 0, N0 do
                [C][i * [N] + j] = [C][i * [N] + j] + aik * [B][k * [N] + j]
              end
            end
          end
        end
        for i = [i_o], ilim do   -- naive columns [jlo, N), full k
          for j = jlo, [N] do
            var sum = [zero]
            for k = 0, [N] do
              sum = sum + [A][i * [N] + k] * [B][k * [N] + j]
            end
            [C][i * [N] + j] = sum
          end
        end
      end
    end
    """, env=dict(zero=_zero(elem)))
    if parallel is not None:
        gemm = apply(gemm, Schedule([parallel]))
    _start_compile(gemm, fma, async_compile)
    return gemm


def make_gemm(NB: int, RM: int, RN: int, V: int, elem: T.Type = double,
              use_prefetch: bool = True, fma: bool = True,
              async_compile: bool = False):
    """Build ``gemm(C, A, B, N)`` for any N, with the L1 blocks read in
    place.

    ``fma=True`` compiles the kernel with fused multiply-add contraction
    (what a hand-tuned BLAS uses on FMA hardware); pass False for strict
    per-operation IEEE results, bitwise equal to :func:`naive_matmul`.
    ``async_compile=True`` returns while gcc still runs on the
    :mod:`repro.buildd` pool (the auto-tuner uses this to overlap
    candidate compilation with timing runs).
    """
    return _stage_gemm(NB, RM, RN, V, elem, use_prefetch, fma,
                       async_compile, packed=False)


def make_gemm_packed(NB: int, RM: int, RN: int, V: int,
                     elem: T.Type = double, use_prefetch: bool = True,
                     fma: bool = True, async_compile: bool = False):
    """:func:`make_gemm` with ATLAS-style panel packing: each L1 block of
    A and B is copied into contiguous scratch before the micro-kernel
    runs — the data-copy strategy ATLAS uses around its generated
    kernels.  Usually several GFLOPS faster at large N.
    """
    return _stage_gemm(NB, RM, RN, V, elem, use_prefetch, fma,
                       async_compile, packed=True)


def make_gemm_from_schedule(schedule, elem: T.Type = double,
                            use_prefetch: bool = True, fma: bool = True,
                            async_compile: bool = False):
    """Build a staged GEMM from a :class:`repro.schedule.Schedule`.

    The schedule describes the candidate; the builder consumes the
    blocking, register and packing directives, and a ``Parallel`` goes
    to :func:`repro.schedule.apply` like any other scheduled kernel's.
    Directive mapping:

    ==========================  ===========================================
    ``Tile(("i","j"),(NB,NB))`` the square L1 cache block (required)
    ``Vectorize("j", V)``       vector width of the micro-kernel (required)
    ``Unroll("i", RM)``         register-block rows (default 1)
    ``Unroll("jj", RN)``        register-block *column vectors* (default 1;
                                ``jj`` is the vector-column axis inside a
                                j-tile — distinct from the lane axis ``j``)
    ``Pack("a"/"b","panel")``   ATLAS-style panel packing (both or neither)
    ``Parallel("i_o", NT)``     row-panel thread dispatch, packed or not
                                (``i_o`` is the row-panel loop, the Tile's
                                outer chunk loop in the generic naming)
    ==========================  ===========================================

    Anything else — or a directive violating the micro-kernel's
    divisibility constraints — raises :class:`ScheduleError` naming it.
    """
    if not isinstance(schedule, Schedule):
        raise ScheduleError(
            f"make_gemm_from_schedule needs a Schedule, got {schedule!r}")
    tiles = schedule.of_kind(Tile)
    if len(tiles) != 1 or tiles[0].axes != ("i", "j"):
        raise ScheduleError(
            f"{schedule.key()}: GEMM schedules need exactly one "
            f"Tile(('i', 'j'), (NB, NB))")
    tile = tiles[0]
    if tile.sizes[0] != tile.sizes[1]:
        raise ScheduleError(f"{tile}: the L1 block must be square")
    NB = tile.sizes[0]
    vecs = schedule.of_kind(Vectorize)
    if len(vecs) != 1 or vecs[0].axis != "j" or vecs[0].width < 2:
        raise ScheduleError(
            f"{schedule.key()}: GEMM schedules need exactly one "
            f"Vectorize('j', V) with an explicit width")
    V = vecs[0].width
    RM = RN = 1
    for u in schedule.of_kind(Unroll):
        if u.axis == "i":
            RM = u.factor
        elif u.axis == "jj":
            RN = u.factor
        else:
            raise ScheduleError(
                f"{u}: GEMM register blocking unrolls 'i' (rows) or "
                f"'jj' (column vectors)")
    pack_ops = {p.operand for p in schedule.packs}
    if pack_ops and pack_ops != {"a", "b"}:
        raise ScheduleError(
            f"{schedule.packs[0]}: GEMM packs panels of both 'a' and "
            f"'b' or neither")
    for p in schedule.packs:
        if p.layout != "panel":
            raise ScheduleError(f"{p}: GEMM packing is per panel")
    par = schedule.parallel
    if par is not None and par.axis != "i_o":
        raise ScheduleError(
            f"{par}: GEMM parallelizes its row-panel loop 'i_o'")
    for d in schedule:
        if not isinstance(d, (Tile, Vectorize, Unroll, Pack, Parallel)):
            raise ScheduleError(
                f"{d}: no GEMM staging for this directive")
    if NB % RM:
        raise ScheduleError(
            f"Unroll('i', {RM}): register rows must divide the "
            f"{NB}-row L1 block")
    if NB % (RN * V):
        raise ScheduleError(
            f"Unroll('jj', {RN}): RN*V = {RN * V} must divide the "
            f"{NB}-column L1 block")
    return _stage_gemm(NB, RM, RN, V, elem, use_prefetch, fma,
                       async_compile, packed=bool(pack_ops), parallel=par)


def blocked_matmul(NB: int, elem: T.Type = double):
    """The plain cache-blocked (but unvectorized, non-register-blocked)
    baseline — the "Blocked" series of paper Figure 6.  Block edges are
    clamped, so any N works (not just multiples of NB)."""
    return terra("""
    terra blocked(C : &elem, A : &elem, B : &elem, N : int64) : {}
      for i = 0, N*N do C[i] = [elem0] end
      for mb = 0, N, NB do
        var mlim = mb + NB
        if mlim > N then mlim = N end
        for kb = 0, N, NB do
          var klim = kb + NB
          if klim > N then klim = N end
          for nb = 0, N, NB do
            var nlim = nb + NB
            if nlim > N then nlim = N end
            for i = mb, mlim do
              for k = kb, klim do
                var aik = A[i*N + k]
                for j = nb, nlim do
                  C[i*N + j] = C[i*N + j] + aik * B[k*N + j]
                end
              end
            end
          end
        end
      end
    end
    """, env=dict(elem=elem, NB=NB, elem0=_zero(elem)))


def naive_matmul(elem: T.Type = double):
    """The naive triple loop — paper §6.1: "a naive DGEMM can run over 65
    times slower than the best-tuned algorithm"."""
    return terra("""
    terra naive(C : &elem, A : &elem, B : &elem, N : int64) : {}
      for i = 0, N do
        for j = 0, N do
          var sum = [elem0]
          for k = 0, N do
            sum = sum + A[i*N + k] * B[k*N + j]
          end
          C[i*N + j] = sum
        end
      end
    end
    """, env=dict(elem=elem, elem0=_zero(elem)))


def _zero(elem: T.Type):
    from .. import constant
    return constant(elem, 0.0)
