"""The seeded compile units that ``compile_sweep`` and ``restage_warm``
take from source to a checked first result, and their output oracles.

A unit is a recipe: ``stage()`` runs the meta-program (``repro.terra`` or
a maker that calls it) and returns a fresh, uncompiled kernel; running
the recipe again *restages* the same source, which must emit the same C
and so share the first build's artifact.  One round holds

* 6 scalar and 2 array programs from ``repro.fuzz.gen``,
* 3 GEMM candidates from ``autotune.tuner.candidates`` (strict IEEE,
  so every candidate is bit-identical to the naive multiply),
* 3 ``schedule_points()`` of attention, dequant and scan (one each),
* 2 restagings of earlier units of the same round, one scalar program
  and one GEMM candidate: 2/16 = 12.5 %.

Programs and GEMM candidates differ several-fold in staging cost, so the
draw is stratified by size (source length; unrolled register block and
packing): a seed changes which programs run, not the mix of sizes.

Oracles, all run outside the timed region:

* fuzz programs: the same source restaged and run on the interpreter
  backend (traps must agree);
* GEMM candidates and schedule points: bitwise equality with the naive
  point, itself checked against numpy within a tolerance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from repro import get_backend, terra
from repro.apps import attention, dequant, scan
from repro.autotune.matmul import make_gemm_from_schedule, naive_matmul
from repro.autotune.tuner import candidates
from repro.errors import TrapError
from repro.fuzz.child import encode_result
from repro.fuzz.gen import fuzz_env, generate_program

FUZZ_SCALAR = 6
FUZZ_ARRAY = 2
GEMM = 3
SCHED_FAMILIES = ("attention", "dequant", "scan")
#: the kinds whose units are restaged, one each per round
RESTAGED_KINDS = ("fuzz.scalar", "gemm")
ROUND = (FUZZ_SCALAR + FUZZ_ARRAY + GEMM + len(SCHED_FAMILIES)
         + len(RESTAGED_KINDS))
#: programs generated per program drawn (see Draw._fuzz)
STRATUM = 8

# first-call shapes: small, so the call is cheap next to the compile
ATTN_N, ATTN_D = 32, 64
DQ_N, DQ_M, DQ_K = 16, 64, 64
SCAN_N, SCAN_R = 64, 64


@dataclass
class Unit:
    uid: int
    kind: str
    label: str
    stage: Callable[[], object]
    make_args: Callable[[], tuple]
    #: (kernel, args) -> comparable outcome of one call
    run: Callable[[object, tuple], object]
    expected: object = None
    #: computes ``expected`` lazily (fuzz programs: the interpreter)
    oracle: Optional[Callable[[], object]] = None


def terra_fn(kernel):
    """The TerraFunction behind a kernel (schedule wrappers hold it)."""
    return getattr(kernel, "fn", kernel)


def _entry(ns, name):
    # terra() returns the function itself for one definition, a
    # Namespace for several
    return ns[name] if isinstance(ns, dict) else ns


def _fuzz_run(kernel, args):
    try:
        return ("ok", encode_result(kernel(*args)))
    except TrapError:
        return ("trap",)


def _array_run(out_index: int):
    def run(kernel, args):
        kernel(*args)
        return args[out_index].tobytes()
    return run


class References:
    """Naive-point inputs and outputs, built in set-up.  ``checks`` and
    ``failures`` count the naive points' own numpy sanity checks."""

    def __init__(self, seed: int):
        rng = np.random.RandomState(seed % (2 ** 32))
        self.checks = self.failures = 0
        self.gemm_inputs: dict[int, tuple] = {}
        self.gemm_expected: dict[int, bytes] = {}
        naive = naive_matmul()
        for nb in sorted({c.NB for c in candidates()}):
            n = nb * 2 + 5          # not a multiple of NB: edges run too
            a, b = rng.rand(n, n), rng.rand(n, n)
            c = np.zeros((n, n))
            naive(c, a, b, n)
            self._sane(np.allclose(c, a @ b, rtol=1e-10, atol=1e-10 * n))
            self.gemm_inputs[n] = (a, b)
            self.gemm_expected[n] = c.tobytes()

        q, k, v = (rng.rand(ATTN_N, ATTN_D).astype(np.float32)
                   for _ in range(3))
        self.attn_args = (q, k, v)
        o = np.zeros((ATTN_N, ATTN_D), np.float32)
        attention.make_attention(ATTN_D)(ATTN_N, q, k, v, o)
        self._sane(np.allclose(o, attention.reference(q, k, v), atol=1e-4))
        self.attn_expected = o.tobytes()

        a = rng.rand(DQ_N, DQ_K).astype(np.float32)
        b = rng.randint(-128, 128, size=(DQ_K, DQ_M)).astype(np.int8)
        self.dq_args = (a, b, 0.03125)
        c = np.zeros((DQ_N, DQ_M), np.float32)
        dequant.make_dequant_gemm()(DQ_N, DQ_M, DQ_K, a, b, 0.03125, c)
        self._sane(np.allclose(c, dequant.reference(a, b, 0.03125),
                               rtol=1e-4, atol=1e-3))
        self.dq_expected = c.tobytes()

        x = rng.rand(SCAN_N, SCAN_R).astype(np.float32)
        self.scan_x = x
        out = np.zeros_like(x)
        scan.make_scan(SCAN_R)(SCAN_N, x, out)
        self._sane(np.allclose(out, scan.reference(x), rtol=1e-4))
        self.scan_expected = out.tobytes()

    def _sane(self, ok: bool) -> None:
        self.checks += 1
        self.failures += not ok


class Draw:
    """The seeded stream of units: ``round()`` returns the next ROUND."""

    def __init__(self, seed: int, refs: References):
        self.rng = random.Random(f"perfbench-units:{seed}")
        self.fuzz_seed = seed
        self.fuzz_index = 0
        self.refs = refs
        self.next_uid = 0
        # (candidate, packed) pairs by staging cost; one per cost third
        # per round, so no pair repeats within a round (a repeat would be
        # an unstated restaging)
        self.gemm_space = sorted(
            ((c, packed) for c in candidates() for packed in (False, True)),
            key=lambda cp: (cp[0].RM * cp[0].RN, cp[1]))
        self.points = {"attention": attention.schedule_points(ATTN_D),
                       "dequant": dequant.schedule_points(),
                       "scan": scan.schedule_points(SCAN_R)}
        self.decks = {family: [] for family in self.points}

    def _uid(self) -> int:
        self.next_uid += 1
        return self.next_uid

    def round(self) -> list[Unit]:
        third = len(self.gemm_space) // GEMM
        fresh = (self._fuzz(array=False, k=FUZZ_SCALAR)
                 + self._fuzz(array=True, k=FUZZ_ARRAY)
                 + [self._gemm(*self.rng.choice(
                     self.gemm_space[i * third:(i + 1) * third]))
                    for i in range(GEMM)]
                 + [self._sched(f) for f in SCHED_FAMILIES])
        self.rng.shuffle(fresh)
        units = list(fresh)
        # each restaging goes after its original, so a still-running
        # build is shared (in-flight dedup) or a finished one is hit
        for kind in RESTAGED_KINDS:
            orig = self.rng.choice([u for u in fresh if u.kind == kind])
            pos = self.rng.randrange(units.index(orig) + 1, len(units) + 1)
            units.insert(pos, replace(orig, uid=self._uid()))
        return units

    def _fuzz(self, array: bool, k: int) -> list[Unit]:
        """``k`` programs of one kind: of STRATUM*k generated, sorted by
        source length, the middle one of each run of STRATUM (so the k
        sit at fixed quantiles of the size distribution)."""
        progs = []
        while len(progs) < STRATUM * k:
            prog = generate_program(self.fuzz_seed, self.fuzz_index)
            self.fuzz_index += 1
            if prog.entry.endswith("_k") == array:
                progs.append(prog)
        progs.sort(key=lambda p: len(p.source))
        return [self._fuzz_unit(progs[i * STRATUM + STRATUM // 2], array)
                for i in range(k)]

    def _fuzz_unit(self, prog, array: bool) -> Unit:
        src, entry, args = prog.source, prog.entry, prog.argsets[0]

        def stage():
            return _entry(terra(src, env=fuzz_env()), entry)

        def oracle():
            fn = _entry(terra(src, env=fuzz_env()), entry)
            return _fuzz_run(fn.compile(get_backend("interp")), args)

        return Unit(self._uid(), "fuzz.array" if array else "fuzz.scalar",
                    prog.key(), stage, lambda: args, _fuzz_run,
                    oracle=oracle)

    def _gemm(self, cand, packed: bool) -> Unit:
        n = cand.NB * 2 + 5
        a, b = self.refs.gemm_inputs[n]
        sched = cand.schedule(packed)
        return Unit(self._uid(), "gemm", f"{cand} packed={packed}",
                    lambda: make_gemm_from_schedule(sched, fma=False),
                    lambda: (np.zeros((n, n)), a, b, n), _array_run(0),
                    expected=self.refs.gemm_expected[n])

    def _sched(self, family: str) -> Unit:
        # every point once, in a seeded order, before any repeats
        if not self.decks[family]:
            self.decks[family] = self.rng.sample(self.points[family],
                                                 len(self.points[family]))
        point = self.decks[family].pop()
        refs = self.refs
        if family == "attention":
            q, k, v = refs.attn_args
            return Unit(
                self._uid(), "sched.attention", point.key(),
                lambda: attention.make_attention(ATTN_D, point),
                lambda: (ATTN_N, q, k, v,
                         np.zeros((ATTN_N, ATTN_D), np.float32)),
                _array_run(4), expected=refs.attn_expected)
        if family == "dequant":
            a, b, scale = refs.dq_args
            return Unit(
                self._uid(), "sched.dequant", point.key(),
                lambda: dequant.make_dequant_gemm(point),
                lambda: (DQ_N, DQ_M, DQ_K, a, b, scale,
                         np.zeros((DQ_N, DQ_M), np.float32)),
                _array_run(6), expected=refs.dq_expected)
        x = refs.scan_x
        return Unit(self._uid(), "sched.scan", point.key(),
                    lambda: scan.make_scan(SCAN_R, point),
                    lambda: (SCAN_N, x, np.zeros_like(x)),
                    _array_run(2), expected=refs.scan_expected)


def expected_outcome(unit: Unit):
    """The oracle's answer for ``unit`` (computed once, then cached)."""
    if unit.expected is None:
        unit.expected = unit.oracle()
    return unit.expected
