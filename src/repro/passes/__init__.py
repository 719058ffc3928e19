"""The pass-managed mid-level IR pipeline.

Every backend obtains its IR through :func:`pipelined_body`: each
backend declares a fixed pipeline level (the interpreter FULL, the C
backend CANON), each level's tree is derived from the function's one
immutable typed tree and cached per function and level, and the linker
brings every member of a connected component to the backend's level
before handing the component over.  Two backends at the same level
share one tree; a backend's tree never depends on which backend
compiled first.

See :mod:`repro.passes.manager` for the environment switches
(``REPRO_TERRA_PIPELINE``, ``REPRO_TERRA_DISABLE_PASSES``,
``REPRO_TERRA_DUMP_IR``, ``REPRO_TERRA_VERIFY_IR``).
"""

from .manager import (  # noqa: F401
    LEVEL_PASSES,
    PIPELINE_CANON,
    PIPELINE_FULL,
    PIPELINE_NONE,
    PIPELINE_VEC,
    Pass,
    PassManager,
    available_passes,
    create_pass,
    pipeline_override,
    pipelined_body,
    register_pass,
    resolve_level,
    run_function_pipeline,
)
from .verify import verify_function  # noqa: F401

__all__ = [
    "LEVEL_PASSES",
    "PIPELINE_CANON",
    "PIPELINE_FULL",
    "PIPELINE_NONE",
    "PIPELINE_VEC",
    "Pass",
    "PassManager",
    "available_passes",
    "create_pass",
    "pipeline_override",
    "pipelined_body",
    "register_pass",
    "resolve_level",
    "run_function_pipeline",
    "verify_function",
]
