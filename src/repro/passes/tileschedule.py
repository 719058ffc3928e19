"""The ``schedule`` pass: lower attached Schedule directives onto typed IR.

Runs once per function *before* any pipeline level (the manager calls it
through ``_ensure_scheduled`` under the pipeline lock, which also guards
against a second lowering), so every level — including level 0, which
runs no optimization passes — is derived from the scheduled tree.
Registered as a normal pass so it gets IR dumping
(``REPRO_TERRA_DUMP_IR=schedule``), verifier integration, and
``pass.schedule`` timing for free.
"""

from __future__ import annotations

from .manager import Pass, register_pass


@register_pass
class SchedulePass(Pass):
    """Apply ``typed.func.schedule`` (a :class:`repro.schedule.Schedule`)."""

    name = "schedule"

    def run(self, typed) -> bool:
        schedule = getattr(getattr(typed, "func", None), "schedule", None)
        if not schedule:
            return False
        from ..schedule.lower import lower_schedule
        return lower_schedule(typed, schedule)
