"""The full blocked matrix multiply built on the Figure-5 kernel.

Paper §6.1: "ATLAS breaks down a matrix multiply into smaller operations
where the matrices fit into L1 cache.  An optimized kernel for L1-sized
multiplies is used for each operation. ... We found that a simple
two-level blocking scheme worked well."

``make_gemm`` stages the outer two-level blocking around two instances of
the L1 kernel (an ``alpha=0`` variant for the first k-panel, which also
initializes C, and an ``alpha=1`` accumulating variant), computing
``C = A*B`` for square row-major matrices whose size is a multiple of NB.
"""

from __future__ import annotations

from .. import double, terra
from ..core import types as T
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


def _gemm_edges(NB: int, elem: T.Type):
    """``gemm_edges(C, A, B, N)``: everything the NB-blocked interior
    leaves out when NB does not divide N — the k tail of the interior,
    then the bottom rows and right columns as naive full-k dot products.
    Every GEMM maker runs it after its interior."""
    return terra("""
    terra gemm_edges(C : &elem, A : &elem, B : &elem, N : int64) : {}
      var N0 = (N / NB) * NB
      if N0 == N then return end
      -- k tail for the blocked interior
      for i = 0, N0 do
        for k = N0, N do
          var aik = A[i * N + k]
          for j = 0, N0 do
            C[i * N + j] = C[i * N + j] + aik * B[k * N + j]
          end
        end
      end
      -- bottom edge rows (full k)
      for i = N0, N do
        for j = 0, N do
          var sum = [zeroconst]
          for k = 0, N do sum = sum + A[i * N + k] * B[k * N + j] end
          C[i * N + j] = sum
        end
      end
      -- right edge columns above the bottom edge (full k)
      for i = 0, N0 do
        for j = N0, N do
          var sum = [zeroconst]
          for k = 0, N do sum = sum + A[i * N + k] * B[k * N + j] end
          C[i * N + j] = sum
        end
      end
    end
    """, env=dict(elem=elem, NB=NB, zeroconst=_zero(elem)))


def make_gemm(NB: int, RM: int, RN: int, V: int, elem: T.Type = double,
              use_prefetch: bool = True, fma: bool = True,
              async_compile: bool = False):
    """Build ``gemm(C, A, B, N)`` for any N.

    The blocked interior covers the largest multiple of NB; the k tail
    and the bottom/right edges run in the naive ``gemm_edges`` shared by
    every GEMM maker (an earlier version assumed NB | N and read and
    wrote past the matrices otherwise).

    ``fma=True`` compiles the kernel with fused multiply-add contraction
    (what a hand-tuned BLAS uses on FMA hardware); pass False for strict
    per-operation IEEE results.  ``async_compile=True`` returns while gcc
    still runs on the :mod:`repro.buildd` pool (the auto-tuner uses this
    to overlap candidate compilation with timing runs).
    """
    l1_first = genkernel(NB, RM, RN, V, 0.0, elem, use_prefetch)
    l1_accum = genkernel(NB, RM, RN, V, 1.0, elem, use_prefetch)
    gemm = terra("""
    terra gemm(C : &elem, A : &elem, B : &elem, N : int64) : {}
      var N0 = (N / NB) * NB     -- the blocked interior; edges go naive
      for mb = 0, N0, NB do
        for nb = 0, N0, NB do
          l1_first(A + mb*N, B + nb, C + mb*N + nb, N, N, N)
          for kb = NB, N0, NB do
            l1_accum(A + mb*N + kb, B + kb*N + nb, C + mb*N + nb, N, N, N)
          end
        end
      end
      edges(C, A, B, N)
    end
    """, env=dict(elem=elem, NB=NB, l1_first=l1_first, l1_accum=l1_accum,
                  edges=_gemm_edges(NB, elem)))
    _start_compile(gemm, fma, async_compile)
    return gemm


def make_gemm_packed(NB: int, RM: int, RN: int, V: int,
                     elem: T.Type = double, use_prefetch: bool = True,
                     fma: bool = True, async_compile: bool = False):
    """Blocked GEMM with ATLAS-style panel packing.

    Each L1 block of A and B is copied into a contiguous scratch buffer
    before the micro-kernel runs, so the kernel's inner loops see unit
    stride and no cache-set conflicts — the same data-copy strategy ATLAS
    uses around its generated kernels.  Usually several GFLOPS faster than
    :func:`make_gemm` at large N.
    """
    from .. import includec
    std = includec("stdlib.h")
    l1_first = genkernel(NB, RM, RN, V, 0.0, elem, use_prefetch)
    l1_accum = genkernel(NB, RM, RN, V, 1.0, elem, use_prefetch)
    gemm = terra("""
    terra gemm(C : &elem, A : &elem, B : &elem, N : int64) : {}
      var N0 = (N / NB) * NB     -- the blocked interior; edges go naive
      var bufA = [&elem](std.malloc(NB * NB * sizeof(elem)))
      var bufB = [&elem](std.malloc(NB * NB * sizeof(elem)))
      for nb = 0, N0, NB do
        for kb = 0, N0, NB do
          -- pack B[kb : kb+NB, nb : nb+NB] contiguously
          for i = 0, NB do
            var src = B + (kb + i) * N + nb
            var dst = bufB + i * NB
            for j = 0, NB do dst[j] = src[j] end
          end
          for mb = 0, N0, NB do
            -- pack A[mb : mb+NB, kb : kb+NB]
            for i = 0, NB do
              var src = A + (mb + i) * N + kb
              var dst = bufA + i * NB
              for j = 0, NB do dst[j] = src[j] end
            end
            if kb == 0 then
              l1_first(bufA, bufB, C + mb * N + nb, NB, NB, N)
            else
              l1_accum(bufA, bufB, C + mb * N + nb, NB, NB, N)
            end
          end
        end
      end
      std.free(bufA)
      std.free(bufB)
      edges(C, A, B, N)
    end
    """, env=dict(elem=elem, NB=NB, l1_first=l1_first, l1_accum=l1_accum,
                  std=std, edges=_gemm_edges(NB, elem)))
    _start_compile(gemm, fma, async_compile)
    return gemm


def make_gemm_packed_parallel(NB: int, RM: int, RN: int, V: int,
                              elem: T.Type = double,
                              use_prefetch: bool = True, fma: bool = True,
                              nthreads: int = 0):
    """Packed GEMM whose row-panel loop runs across worker threads.

    The kernel is restructured so ``mb`` (the C row-panel index) is the
    *outer* loop: each panel of C has exactly one writer, so panels
    dispatch independently, and each chunk call packs into its own
    freshly-malloc'd scratch (per-worker buffers for free).  Per element
    of C the k-accumulation order is unchanged, so the result is
    bit-identical to the serial packed GEMM.  Edge tails (N not a
    multiple of NB) run serially after the panels.

    Returns a Python driver ``gemm(C, A, B, N)``; the staged pieces are
    exposed as ``gemm.panels`` / ``gemm.edges`` for inspection.
    """
    from .. import includec
    from ..parallel import default_nthreads, parallel_for
    std = includec("stdlib.h")
    l1_first = genkernel(NB, RM, RN, V, 0.0, elem, use_prefetch)
    l1_accum = genkernel(NB, RM, RN, V, 1.0, elem, use_prefetch)
    panels = terra("""
    terra gemm_panels(C : &elem, A : &elem, B : &elem, N : int64) : {}
      var N0 = (N / NB) * NB     -- the blocked interior; edges go naive
      for mb = 0, N0, NB do
        var bufA = [&elem](std.malloc(NB * NB * sizeof(elem)))
        var bufB = [&elem](std.malloc(NB * NB * sizeof(elem)))
        for nb = 0, N0, NB do
          for kb = 0, N0, NB do
            -- pack B[kb : kb+NB, nb : nb+NB] contiguously
            for i = 0, NB do
              var src = B + (kb + i) * N + nb
              var dst = bufB + i * NB
              for j = 0, NB do dst[j] = src[j] end
            end
            -- pack A[mb : mb+NB, kb : kb+NB]
            for i = 0, NB do
              var src = A + (mb + i) * N + kb
              var dst = bufA + i * NB
              for j = 0, NB do dst[j] = src[j] end
            end
            if kb == 0 then
              l1_first(bufA, bufB, C + mb * N + nb, NB, NB, N)
            else
              l1_accum(bufA, bufB, C + mb * N + nb, NB, NB, N)
            end
          end
        end
        std.free(bufA)
        std.free(bufB)
      end
    end
    """, env=dict(elem=elem, NB=NB, l1_first=l1_first, l1_accum=l1_accum,
                  std=std)).mark_chunked()
    edges = _gemm_edges(NB, elem)
    _start_compile(panels, fma, False)
    _start_compile(edges, fma, False)

    def gemm(C, A, B, N):
        N0 = (N // NB) * NB
        parallel_for(panels, 0, N0, C, A, B, N,
                     nthreads=default_nthreads(nthreads), grain=NB)
        if N0 != N:
            edges(C, A, B, N)

    gemm.panels = panels
    gemm.edges = edges
    gemm.NB = NB
    return gemm


def make_gemm_from_schedule(schedule, elem: T.Type = double,
                            use_prefetch: bool = True, fma: bool = True,
                            async_compile: bool = False):
    """Build a staged GEMM from a :class:`repro.schedule.Schedule`.

    The schedule *describes* the candidate; the kernel is still staged
    by the proven makers above, so a schedule and its (NB, RM, RN, V)
    tuple produce byte-identical C.  Directive mapping:

    ==========================  ===========================================
    ``Tile(("i","j"),(NB,NB))`` the square L1 cache block (required)
    ``Vectorize("j", V)``       vector width of the micro-kernel (required)
    ``Unroll("i", RM)``         register-block rows (default 1)
    ``Unroll("jj", RN)``        register-block *column vectors* (default 1;
                                ``jj`` is the vector-column axis inside a
                                j-tile — distinct from the lane axis ``j``)
    ``Pack("a"/"b","panel")``   ATLAS-style panel packing (both or neither)
    ``Parallel("i_o", NT)``     row-panel thread dispatch (implies packing;
                                ``i_o`` is the outer chunk loop the Tile
                                creates — the generic lowering's name for it)
    ==========================  ===========================================

    Anything else — or a directive violating the micro-kernel's
    divisibility constraints — raises :class:`ScheduleError` naming it.
    """
    from ..schedule import (Pack, Parallel, Schedule, ScheduleError, Tile,
                            Unroll, Vectorize)
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
            f"{par}: GEMM parallelizes the row-panel axis 'i_o' (the "
            f"outer chunk loop of the Tile)")
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
    if par is not None:
        return make_gemm_packed_parallel(NB, RM, RN, V, elem,
                                         use_prefetch, fma,
                                         nthreads=par.nthreads)
    maker = make_gemm_packed if pack_ops else make_gemm
    return maker(NB, RM, RN, V, elem, use_prefetch, fma, async_compile)


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
