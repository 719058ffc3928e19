"""Tests for the Figure-5 staged GEMM kernel and the full blocked GEMM."""

import numpy as np
import pytest

from repro import double, float_
from repro.autotune.genkernel import genkernel
from repro.autotune.matmul import blocked_matmul, make_gemm, naive_matmul


def _abc(n, dtype, seed=0):
    rng = np.random.RandomState(seed)
    A = np.ascontiguousarray(rng.rand(n, n).astype(dtype))
    B = np.ascontiguousarray(rng.rand(n, n).astype(dtype))
    C = np.zeros((n, n), dtype=dtype)
    return A, B, C


class TestL1Kernel:
    @pytest.mark.parametrize("NB,RM,RN,V", [
        (8, 1, 1, 4), (8, 2, 1, 4), (8, 2, 2, 4), (16, 4, 2, 2),
        (16, 4, 1, 8), (8, 1, 2, 2),
    ])
    def test_single_block_alpha0(self, NB, RM, RN, V):
        k = genkernel(NB, RM, RN, V, 0.0)
        A, B, C = _abc(NB, np.float64)
        k(A, B, C, NB, NB, NB)
        assert np.allclose(C, A @ B)

    def test_alpha1_accumulates(self):
        NB = 8
        k0 = genkernel(NB, 2, 1, 4, 0.0)
        k1 = genkernel(NB, 2, 1, 4, 1.0)
        A, B, C = _abc(NB, np.float64)
        k0(A, B, C, NB, NB, NB)
        k1(A, B, C, NB, NB, NB)
        assert np.allclose(C, 2 * (A @ B))

    def test_alpha0_ignores_garbage(self):
        """The alpha=0 kernel must not read C (0*NaN would poison it)."""
        NB = 8
        k0 = genkernel(NB, 2, 2, 4, 0.0)
        A, B, _ = _abc(NB, np.float64)
        C = np.full((NB, NB), np.nan)
        k0(A, B, C, NB, NB, NB)
        assert np.allclose(C, A @ B)

    def test_alpha_scales(self):
        NB = 8
        k = genkernel(NB, 1, 1, 4, 0.5)
        A, B, C = _abc(NB, np.float64)
        C[:] = 2.0
        k(A, B, C, NB, NB, NB)
        assert np.allclose(C, 1.0 + A @ B)

    def test_strided_block_within_larger_matrix(self):
        """The kernel works on an NB-block inside a larger row-major
        matrix via the ld* strides."""
        NB, N = 8, 16
        k = genkernel(NB, 2, 1, 4, 0.0)
        rng = np.random.RandomState(3)
        A = rng.rand(N, N)
        B = rng.rand(N, N)
        C = np.zeros((N, N))
        # multiply the top-left NB-block of A with the top-left of B
        k(A, B, C, N, N, N)
        assert np.allclose(C[:NB, :NB], A[:NB, :NB] @ B[:NB, :NB])
        assert np.all(C[NB:, :] == 0) and np.all(C[:, NB:] == 0)

    def test_float32_kernel(self):
        NB = 8
        k = genkernel(NB, 2, 2, 4, 0.0, elem=float_)
        A, B, C = _abc(NB, np.float32)
        k(A, B, C, NB, NB, NB)
        assert np.allclose(C, A @ B, atol=1e-4)

    def test_invalid_blocking_rejected(self):
        with pytest.raises(ValueError, match=r"NB % RM == 0"):
            genkernel(8, 3, 1, 4, 0.0)  # 8 % 3 != 0
        with pytest.raises(ValueError, match=r"NB % \(RN\*V\) == 0"):
            genkernel(8, 1, 3, 2, 0.0)  # 8 % 6 != 0
        for bad in ((0, 1, 1, 4), (8, 0, 1, 4), (8, 1, -2, 4), (8, 1, 1, 0)):
            with pytest.raises(ValueError, match="positive"):
                genkernel(*bad, 0.0)

    def test_invalid_blocking_rejected_through_make_gemm(self):
        # a typed error, not an assert: under ``python -O`` an assert
        # vanishes and the kernel reads and writes past its block
        with pytest.raises(ValueError, match=r"NB % \(RN\*V\) == 0"):
            make_gemm(NB=32, RM=4, RN=3, V=4)
        with pytest.raises(ValueError, match="NB must be a positive"):
            make_gemm(NB=0, RM=1, RN=1, V=4)

    def test_prefetch_off_same_result(self):
        NB = 8
        A, B, C1 = _abc(NB, np.float64)
        C2 = C1.copy()
        genkernel(NB, 2, 1, 4, 0.0, use_prefetch=True)(A, B, C1, NB, NB, NB)
        genkernel(NB, 2, 1, 4, 0.0, use_prefetch=False)(A, B, C2, NB, NB, NB)
        assert np.array_equal(C1, C2)


class TestFullGemm:
    @pytest.mark.parametrize("N", [32, 64, 96])
    def test_multi_block(self, N):
        gemm = make_gemm(NB=32, RM=4, RN=2, V=4)
        A, B, C = _abc(N, np.float64, seed=N)
        gemm(C, A, B, N)
        assert np.allclose(C, A @ B)

    @pytest.mark.parametrize("N", [30, 69, 100])
    def test_non_divisible_sizes(self, N):
        # regression: the unpacked GEMM used to march full NB-blocks past
        # the matrix edge for N % NB != 0 (out-of-bounds reads/writes and
        # silently wrong results); it now runs a blocked interior plus
        # naive k-tail/edge loops like the packed driver
        gemm = make_gemm(NB=32, RM=4, RN=2, V=4)
        A, B, C = _abc(N, np.float64, seed=N)
        gemm(C, A, B, N)
        assert np.allclose(C, A @ B)

    @pytest.mark.parametrize("N", [30, 69])
    def test_blocked_baseline_non_divisible(self, N):
        A, B, C = _abc(N, np.float64, seed=N)
        blocked_matmul(16)(C, A, B, N)
        assert np.allclose(C, A @ B)

    def test_sgemm(self):
        gemm = make_gemm(NB=32, RM=4, RN=2, V=8, elem=float_)
        A, B, C = _abc(64, np.float32)
        gemm(C, A, B, 64)
        assert np.allclose(C, A @ B, atol=1e-3)

    def test_overwrites_c(self):
        gemm = make_gemm(NB=32, RM=2, RN=2, V=4)
        A, B, C = _abc(32, np.float64)
        C[:] = 123.0  # stale contents must be overwritten, not accumulated
        gemm(C, A, B, 32)
        assert np.allclose(C, A @ B)

    def test_baselines(self):
        A, B, C = _abc(32, np.float64)
        naive_matmul()(C, A, B, 32)
        assert np.allclose(C, A @ B)
        C2 = np.zeros_like(C)
        blocked_matmul(16)(C2, A, B, 32)
        assert np.allclose(C2, A @ B)


class TestTuner:
    def test_small_search(self):
        from repro.autotune.tuner import candidates, tune
        cands = candidates(double, NBs=(32,), RMs=(2, 4), RNs=(1,), Vs=(4,))
        result = tune(test_size=128, candidate_list=cands, repeats=1)
        assert result.gflops > 0
        assert result.best in [c for c, _ in result.trials]
        # the returned gemm actually works
        A, B, C = _abc(128, np.float64)
        result.gemm(C, A, B, 128)
        assert np.allclose(C, A @ B)

    def test_constraints_respected(self):
        from repro.autotune.tuner import candidates
        for c in candidates(double):
            assert c.NB % c.RM == 0
            assert c.NB % (c.RN * c.V) == 0
            assert c.RM * c.RN + c.RM + c.RN <= 16

    def test_non_divisible_test_size_times_every_candidate(self):
        # regression: the tuner used to silently drop every candidate
        # whose NB did not divide the test size (for 100 that was all of
        # them, raising "no feasible candidate"); the GEMM makers handle
        # any N via edge loops, so all candidates must be timed
        from repro.autotune.tuner import Candidate, tune
        cands = [Candidate(32, 2, 1, 4), Candidate(48, 2, 1, 4)]
        result = tune(test_size=100,  # not a multiple of 32 or 48
                      candidate_list=cands, repeats=1)
        assert len(result.trials) == len(cands)
        A, B, C = _abc(100, np.float64)
        result.gemm(C, A, B, 100)
        assert np.allclose(C, A @ B)

    def test_empty_candidate_list_raises(self):
        from repro.autotune.tuner import tune
        with pytest.raises(ValueError):
            tune(test_size=64, candidate_list=[], repeats=1)


class TestPackedGemm:
    def test_matches_unpacked(self):
        from repro.autotune.matmul import make_gemm_packed
        N = 128
        rng = np.random.RandomState(5)
        A = np.ascontiguousarray(rng.rand(N, N))
        B = np.ascontiguousarray(rng.rand(N, N))
        C1 = np.zeros((N, N)); C2 = np.zeros((N, N))
        make_gemm(NB=32, RM=4, RN=2, V=4)(C1, A, B, N)
        make_gemm_packed(NB=32, RM=4, RN=2, V=4)(C2, A, B, N)
        assert np.allclose(C1, A @ B) and np.allclose(C2, A @ B)

    @pytest.mark.parametrize("N", [64, 100, 130, 257])
    def test_edge_sizes(self, N):
        """The packed driver handles sizes that are not multiples of NB
        via naive edge cleanup."""
        from repro.autotune.matmul import make_gemm_packed
        gemm = make_gemm_packed(NB=64, RM=4, RN=2, V=4)
        rng = np.random.RandomState(N)
        A = np.ascontiguousarray(rng.rand(N, N))
        B = np.ascontiguousarray(rng.rand(N, N))
        C = np.zeros((N, N))
        gemm(C, A, B, N)
        assert np.allclose(C, A @ B)

    def test_sgemm_packed(self):
        from repro.autotune.matmul import make_gemm_packed
        N = 96
        gemm = make_gemm_packed(NB=32, RM=4, RN=2, V=8, elem=float_)
        rng = np.random.RandomState(1)
        A = rng.rand(N, N).astype(np.float32)
        B = rng.rand(N, N).astype(np.float32)
        C = np.zeros((N, N), dtype=np.float32)
        gemm(C, A, B, N)
        assert np.allclose(C, A @ B, atol=1e-3)


# (NB, RM, RN, V) per element type, and the variants every one of them
# stages: packed or not, serial or through Parallel("i_o", 3)
BITWISE_CONFIGS = {double: (32, 4, 2, 4), float_: (32, 4, 2, 8)}
BITWISE_VARIANTS = [(False, False), (True, False), (False, True),
                    (True, True)]


class TestScheduleMigration:
    """The tuner's candidate vocabulary as first-class schedules:
    ``Candidate.schedule()`` → ``make_gemm_from_schedule``, with
    ``Parallel("i_o")`` dispatched by :func:`repro.schedule.apply`."""

    @pytest.mark.parametrize("elem", [double, float_], ids=["f64", "f32"])
    @pytest.mark.parametrize("packed,parallel", BITWISE_VARIANTS,
                             ids=["unpacked", "packed", "unpacked-par3",
                                  "packed-par3"])
    def test_bitwise_equal_to_naive(self, elem, packed, parallel):
        """Strict IEEE (``fma=False``): every variant accumulates each
        element in ascending k, exactly like the naive triple loop."""
        from repro.autotune.matmul import make_gemm_from_schedule
        from repro.autotune.tuner import Candidate
        from repro.schedule import Parallel, Schedule, ScheduledKernel
        NB, RM, RN, V = BITWISE_CONFIGS[elem]
        s = Candidate(NB, RM, RN, V).schedule(packed)
        if parallel:
            s = Schedule(list(s) + [Parallel("i_o", 3)])
        gemm = make_gemm_from_schedule(s, elem, fma=False)
        assert isinstance(gemm, ScheduledKernel) == parallel
        naive = naive_matmul(elem)
        dtype = np.float64 if elem is double else np.float32
        for N in (NB - 3, NB, 2 * NB + 5, 3 * NB + 1):
            A, B, C = _abc(N, dtype, seed=N)
            C[:] = np.nan  # every element must be written, none read
            ref = np.zeros_like(C)
            gemm(C, A, B, N)
            naive(ref, A, B, N)
            assert C.tobytes() == ref.tobytes(), N

    def test_candidate_schedule_shape(self):
        from repro.autotune.tuner import Candidate
        from repro.schedule import Pack, Tile, Unroll, Vectorize
        s = Candidate(48, 4, 2, 4).schedule()
        assert s.of_kind(Tile) == [Tile(("i", "j"), (48, 48))]
        assert s.of_kind(Vectorize) == [Vectorize("j", 4)]
        assert set(s.of_kind(Unroll)) == {Unroll("i", 4), Unroll("jj", 2)}
        assert {p.operand for p in s.packs} == {"a", "b"}
        # RM=RN=1 candidates carry no Unrolls at all
        assert Candidate(32, 1, 1, 4).schedule(packed=False).of_kind(
            Unroll) == []

    def test_schedule_correctness_non_divisible(self):
        from repro.autotune.matmul import make_gemm_from_schedule
        from repro.autotune.tuner import Candidate
        gemm = make_gemm_from_schedule(Candidate(32, 2, 2, 4).schedule())
        A, B, C = _abc(69, np.float64, seed=2)
        gemm(C, A, B, 69)
        assert np.allclose(C, A @ B)

    def test_invalid_gemm_schedules_rejected(self):
        from repro.autotune.matmul import make_gemm_from_schedule
        from repro.schedule import (Block, Pack, Schedule, ScheduleError,
                                    Tile, Unroll, Vectorize)
        base = [Tile(("i", "j"), (32, 32)), Vectorize("j", 4)]
        with pytest.raises(ScheduleError, match="Tile"):
            make_gemm_from_schedule(Schedule([Vectorize("j", 4)]))
        with pytest.raises(ScheduleError, match="square"):
            make_gemm_from_schedule(
                Schedule([Tile(("i", "j"), (32, 16)), Vectorize("j", 4)]))
        with pytest.raises(ScheduleError, match="Vectorize"):
            make_gemm_from_schedule(Schedule([Tile(("i", "j"), (32, 32))]))
        with pytest.raises(ScheduleError, match="'jj'"):
            make_gemm_from_schedule(Schedule(base + [Unroll("k", 2)]))
        with pytest.raises(ScheduleError, match="divide"):
            make_gemm_from_schedule(
                Schedule([Tile(("i", "j"), (32, 32)), Vectorize("j", 4),
                          Unroll("i", 5)]))
        with pytest.raises(ScheduleError, match="both"):
            make_gemm_from_schedule(Schedule(base + [Pack("a", "panel")]))
        with pytest.raises(ScheduleError, match="no GEMM staging"):
            make_gemm_from_schedule(Schedule(base + [Block("k", 8)]))

    def test_parallel_schedule_dispatches(self):
        from repro.autotune.matmul import (make_gemm_from_schedule,
                                           make_gemm_packed)
        from repro.autotune.tuner import Candidate
        from repro.schedule import Parallel, Schedule
        from repro.trace.metrics import registry
        cand = Candidate(32, 2, 2, 4)
        s = Schedule(list(cand.schedule()) + [Parallel("i_o", 3)])
        par = make_gemm_from_schedule(s)
        assert par.schedule == Schedule([Parallel("i_o", 3)])
        N = 70
        A, B, C = _abc(N, np.float64, seed=3)
        before = registry().get("parallel.chunks")
        par(C, A, B, N)
        # chunk cuts sit on panel starts: [0, 32) and [32, 70)
        assert registry().get("parallel.chunks") - before == 2
        C2 = np.zeros_like(C)
        make_gemm_packed(32, 2, 2, 4)(C2, A, B, N)
        assert np.array_equal(C, C2)  # bit-identical to serial packed
