"""The pass manager — one verified, pass-managed pipeline over the typed IR.

Terra separates *staging* (Lua builds the program) from *execution* (LLVM
optimizes and runs it).  Our reproduction's analog of the optimizer is
this pipeline: an ordered list of individually-switchable passes that
every backend consumes.  Like a Terra definition, a typechecked function
is a stable artifact: each pipeline level's tree is *derived* from it —
passes run over a clone, once per function and level, cached on the
:class:`~repro.core.tast.TypedFunction` — and :func:`pipelined_body` is
the one way to obtain it, so what a backend compiles never depends on
which backend compiled first.

Environment switches:

* ``REPRO_TERRA_PIPELINE=<0|1|2|3>`` — force a pipeline level process-wide
  (0 = raw typed IR, 1 = canonicalize: fold/simplify/dce, 2 = full: +licm,
  3 = vectorize: +auto-vectorization of innermost countable loops);
* ``REPRO_TERRA_DISABLE_PASSES=licm,dce`` — drop individual passes;
* ``REPRO_TERRA_DUMP_IR=<pass|all>`` — print the IR before and after the
  named pass (or every pass) to stderr, rendered through
  :mod:`repro.core.prettyprint`;
* ``REPRO_TERRA_VERIFY_IR=1`` — run the IR verifier after typechecking
  and again after every transform, turning silent miscompiles into
  :class:`~repro.errors.IRVerifyError` diagnostics.

Per-pass wall time is merged into the :mod:`repro.buildd` telemetry, so
``python -m repro.buildd --stats`` reports where *IR* time went alongside
where *gcc* time went.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager
from typing import Optional, Sequence

from ..errors import CompileError
from .. import trace

# -- pipeline levels --------------------------------------------------------------

#: raw typed IR, exactly as the typechecker produced it
PIPELINE_NONE = 0
#: canonicalizing cleanups: constant folding, algebraic simplification,
#: dead-local elimination — enough to make equivalent stagings emit
#: byte-identical C (and hit the buildd artifact cache)
PIPELINE_CANON = 1
#: the full pipeline: canonicalization plus loop-invariant hoisting
PIPELINE_FULL = 2
#: the vectorizing pipeline: full, plus auto-vectorization of innermost
#: countable loops (vector IR + scalar epilogue; see passes/vectorize.py)
PIPELINE_VEC = 3

LEVEL_PASSES: dict[int, tuple[str, ...]] = {
    PIPELINE_NONE: (),
    PIPELINE_CANON: ("fold", "simplify", "dce"),
    PIPELINE_FULL: ("fold", "simplify", "licm", "dce"),
    PIPELINE_VEC: ("fold", "simplify", "licm", "vectorize", "dce"),
}


class Pass:
    """One transformation (or analysis) over a typed function body.

    Subclasses set ``name`` and implement :meth:`run`, which transforms
    the function in place and returns True when anything changed.
    """

    name: str = "abstract"

    def run(self, typed) -> bool:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<pass {self.name}>"


_REGISTRY: dict[str, type] = {}


def register_pass(cls: type) -> type:
    """Class decorator: make a Pass constructible by name."""
    _REGISTRY[cls.name] = cls
    return cls


def available_passes() -> list[str]:
    _ensure_registered()
    return sorted(_REGISTRY)


def create_pass(name: str) -> Pass:
    _ensure_registered()
    cls = _REGISTRY.get(name)
    if cls is None:
        raise CompileError(
            f"unknown IR pass {name!r} (available: "
            f"{', '.join(sorted(_REGISTRY))})")
    return cls()


def _ensure_registered() -> None:
    """Import the pass modules (each registers itself on import)."""
    from . import (dce, fold, licm, simplify, tileschedule,  # noqa: F401
                   vectorize, verify)


# -- env plumbing -----------------------------------------------------------------

def _env_verify() -> bool:
    return os.environ.get("REPRO_TERRA_VERIFY_IR", "") not in ("", "0")


def _env_dump() -> Optional[str]:
    return os.environ.get("REPRO_TERRA_DUMP_IR") or None


def _env_disabled() -> set[str]:
    raw = os.environ.get("REPRO_TERRA_DISABLE_PASSES", "")
    return {part.strip() for part in raw.split(",") if part.strip()}


#: process-wide level override installed by :func:`pipeline_override`
_level_override: Optional[int] = None


@contextmanager
def pipeline_override(level: int):
    """Force every subsequent pipeline run to ``level`` (tests use level 0
    to compile a function with the raw typed IR)."""
    global _level_override
    saved = _level_override
    _level_override = level
    try:
        yield
    finally:
        _level_override = saved


def resolve_level(level: Optional[int] = None) -> int:
    """The effective pipeline level: override > environment > request."""
    if _level_override is not None:
        return _level_override
    env = os.environ.get("REPRO_TERRA_PIPELINE")
    if env is not None and env != "":
        try:
            value = int(env)
        except ValueError:
            value = None
        if value is None or not PIPELINE_NONE <= value <= PIPELINE_VEC:
            raise CompileError(
                f"REPRO_TERRA_PIPELINE must be 0..3, got {env!r}")
        return value
    return PIPELINE_FULL if level is None else level


# -- the manager ------------------------------------------------------------------

class PassManager:
    """An ordered, switchable sequence of IR passes.

    ``passes`` is a sequence of pass names or :class:`Pass` instances;
    names listed in ``REPRO_TERRA_DISABLE_PASSES`` are dropped.  ``verify``
    and ``dump`` default from the environment (see module docstring).
    """

    def __init__(self, passes: Optional[Sequence] = None, *,
                 verify: Optional[bool] = None, dump: Optional[str] = None,
                 record_stats: bool = True):
        if passes is None:
            passes = LEVEL_PASSES[PIPELINE_FULL]
        resolved = [create_pass(p) if isinstance(p, str) else p
                    for p in passes]
        disabled = _env_disabled()
        self.passes: list[Pass] = [p for p in resolved
                                   if p.name not in disabled]
        self.verify = _env_verify() if verify is None else verify
        self.dump = _env_dump() if dump is None else dump
        self.record_stats = record_stats
        #: per-pass records of the most recent :meth:`run`
        self.last_run: list[dict] = []

    def disable(self, name: str) -> None:
        self.passes = [p for p in self.passes if p.name != name]

    def pass_names(self) -> list[str]:
        return [p.name for p in self.passes]

    def run(self, typed) -> list[dict]:
        """Run every pass over ``typed`` (a TypedFunction), in order.

        Returns per-pass records ``{"pass", "seconds", "changed"}`` and
        keeps them in :attr:`last_run`.  With verification on, the
        verifier runs on the input tree and again after every transform.
        """
        from .verify import verify_function
        if self.verify:
            verify_function(typed, where="after typechecking")
        records: list[dict] = []
        for p in self.passes:
            self._dump(typed, p.name, "before")
            t0 = time.perf_counter()
            with trace.span(f"pass:{p.name}", cat="passes",
                            function=getattr(typed, "name", "?")) as sp:
                changed = bool(p.run(typed))
                sp.set(changed=changed)
            seconds = time.perf_counter() - t0
            self._dump(typed, p.name, "after")
            if self.verify and p.name != "verify":
                verify_function(typed, where=f"after pass {p.name!r}")
            records.append(
                {"pass": p.name, "seconds": seconds, "changed": changed})
            if self.record_stats:
                _record_pass_time(p.name, seconds)
        self.last_run = records
        return records

    def _dump(self, typed, pass_name: str, when: str) -> None:
        if self.dump is None or self.dump not in (pass_name, "all"):
            return
        from ..core.prettyprint import format_typed_ir
        header = f"-- IR {when} pass {pass_name!r} ({typed.name}) --"
        print(header, file=sys.stderr)
        print(format_typed_ir(typed), file=sys.stderr)


def _record_pass_time(name: str, seconds: float) -> None:
    """Merge pass timing into the process metrics registry — the same
    series ``repro.buildd.stats()["passes"]`` reports, without needing a
    compile service to exist (see :mod:`repro.trace.metrics`)."""
    from ..trace.metrics import registry
    registry().record_time(f"pass.{name}", seconds)


# -- per-function pipeline entry points -------------------------------------------

class _LevelView:
    """A TypedFunction facade exposing an alternate ``body`` (the same
    function at a pipeline level), so passes and the verifier run over a
    clone without touching ``typed.body``."""

    def __init__(self, typed, body):
        self._typed = typed
        self.body = body

    def __getattr__(self, name):
        return getattr(self._typed, name)


def _ensure_scheduled(typed) -> None:
    """Lower an attached :mod:`repro.schedule` Schedule exactly once
    (pipeline lock held).

    This is the one write to ``typed.body`` after typechecking: every
    pipeline level — including level 0, which runs no passes — is
    derived from the scheduled tree, which nothing modifies afterwards.
    """
    if getattr(typed, "_sched_lowered", False):
        return
    typed._sched_lowered = True
    func = getattr(typed, "func", None)
    if getattr(func, "schedule", None):
        PassManager(("schedule",)).run(typed)


def pipelined_body(typed, level: Optional[int] = None):
    """The function body at *exactly* the resolved ``level`` — the only
    way any backend (or inspection API) obtains a level's tree.

    Level 0 is ``typed.body`` itself (the typechecked tree, after any
    attached schedule was lowered).  A higher level runs that level's
    passes over a clone of ``typed.body`` and caches the result per
    level under the function's pipeline lock, so concurrent compiles
    neither double-transform nor observe a half-rewritten tree, and what
    a backend compiles never depends on which backend compiled first.
    """
    level = resolve_level(level)
    with typed._pipeline_lock:
        _ensure_scheduled(typed)
        if level == PIPELINE_NONE:
            return typed.body
        body = typed._pipeline_bodies.get(level)
        if body is None:
            from ..core.tast import clone
            view = _LevelView(typed, clone(typed.body))
            with trace.span(f"pipeline:{typed.name}", cat="passes",
                            level=level):
                PassManager(LEVEL_PASSES[level]).run(view)
            body = typed._pipeline_bodies[level] = view.body
        return body


def run_function_pipeline(fn, level: Optional[int] = None) -> None:
    """Bring a TerraFunction's tree to ``level`` (no-op for externals and
    functions that have not been typechecked yet)."""
    typed = getattr(fn, "typed", None)
    if typed is not None and not getattr(fn, "is_external", False):
        pipelined_body(typed, level)
