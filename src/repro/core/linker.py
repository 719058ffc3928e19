"""Linking: connected-component typechecking and compilation.

Paper Figure 4 (TYFUN1/TYFUN2): before a Terra function runs, every
function in the connected component of its references must typecheck —
"they ensure all functions that are in the connected component of a
function are typechecked before the function is run."  A reference to a
declared-but-undefined function is a :class:`LinkError`.

Typechecking success is cached (definitions are immutable, so success is
stable); failures are *not* cached, because the result of typechecking can
"change monotonically from a type-error to success as the functions it
references are defined" — and because type reflection (``__cast``,
``__finalizelayout``) may legitimately add capabilities to types between
attempts.
"""

from __future__ import annotations

import threading

from ..errors import LinkError, TypeCheckError
from .. import trace
from .function import TerraFunction

#: functions currently being typechecked (cycle detection).  Thread-local:
#: recursion is a property of one traversal, and two *threads* visiting the
#: same function concurrently (the compile service makes that easy) must
#: not be mistaken for a recursive reference.
_tls = threading.local()


def _in_progress() -> set[int]:
    try:
        return _tls.in_progress
    except AttributeError:
        _tls.in_progress = set()
        return _tls.in_progress


def typecheck_function(fn: TerraFunction) -> None:
    """Typecheck one function (no-op for externals and cached results)."""
    if fn.typed is not None or fn.is_external:
        return
    if not fn.isdefined():
        raise LinkError(
            f"Terra function {fn.name!r} is declared but not defined")
    in_progress = _in_progress()
    if fn.uid in in_progress:
        raise TypeCheckError(
            f"function {fn.name!r} is recursive (directly or mutually) and "
            f"needs an explicit return type annotation")
    from .typechecker import TypeChecker
    in_progress.add(fn.uid)
    try:
        with trace.span(f"typecheck:{fn.name}", cat="typecheck"):
            typed = TypeChecker(fn).run()
    finally:
        in_progress.discard(fn.uid)
    if fn.typed is None:  # a racing thread may have typechecked it already
        fn.typed = typed
        fn._type = typed.type


def connected_component(fn: TerraFunction) -> list[TerraFunction]:
    """All functions reachable from ``fn`` through direct references,
    including ``fn`` itself, in deterministic discovery order.  Requires
    the component to be fully typechecked."""
    seen: dict[int, TerraFunction] = {}
    order: list[TerraFunction] = []
    with trace.span(f"component:{fn.name}", cat="typecheck") as sp:
        stack = [fn]
        while stack:
            f = stack.pop()
            if f.uid in seen:
                continue
            seen[f.uid] = f
            order.append(f)
            if f.is_external:
                continue
            typecheck_function(f)
            assert f.typed is not None
            for ref in f.typed.referenced_functions:
                if ref.uid not in seen:
                    stack.append(ref)
        sp.set(component_size=len(order))
    return order


def ensure_typechecked(fn: TerraFunction) -> None:
    """Typecheck ``fn`` and its whole connected component (paper Fig. 4)."""
    connected_component(fn)


def pipelined_component(fn: TerraFunction, backend) -> list[TerraFunction]:
    """Typecheck ``fn``'s connected component and derive every member's
    tree at the backend's pipeline level.

    The :mod:`repro.passes` pipeline runs here, eagerly, so its time is
    attributed to linking rather than emission: backends receive the
    component *after* it and read each member's tree through
    ``repro.passes.pipelined_body``, which caches it per function and
    level — a function shared by two compiles is transformed once.
    """
    from ..passes import run_function_pipeline
    level = getattr(backend, "pipeline_level", None)
    with trace.span(f"link:{fn.name}", cat="typecheck",
                    backend=backend.name, level=level) as sp:
        component = connected_component(fn)
        for member in component:
            run_function_pipeline(member, level)
        sp.set(component_size=len(component))
    return component


def ensure_compiled(fn: TerraFunction, backend):
    """Compile ``fn``'s connected component on ``backend`` and return a
    callable handle for ``fn``."""
    component = pipelined_component(fn, backend)
    return backend.compile_unit(fn, component)


def ensure_compiled_async(fn: TerraFunction, backend):
    """Typecheck ``fn``'s component, emit it, and *submit* it to the
    backend's compile service without waiting; returns a
    :class:`~repro.backend.base.CompileTicket` whose ``result()`` yields
    the callable handle.

    Typechecking, the IR pipeline, and emission run synchronously in the
    caller (they touch shared linker state); only the native compile
    overlaps.  Callers that submit many units up front (the §6.1
    auto-tuner) get them compiled concurrently by the :mod:`repro.buildd`
    pool.
    """
    component = pipelined_component(fn, backend)
    return backend.compile_unit_async(fn, component)
