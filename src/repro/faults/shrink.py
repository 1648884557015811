"""Delta-debugging a failing fault schedule to a minimal reproducer.

When a campaign run violates linearizability, the raw schedule usually
contains several actions that are irrelevant to the bug.
:func:`repro.ddmin.ddmin` over the action positions finds a *1-minimal*
subset: removing any single remaining action makes the failure
disappear.  The schedule's seed is held fixed throughout, so every
simulator probe is deterministic and the shrunk schedule — printed as
one line — replays the violation exactly (a wire probe is a live
re-run: same seed, real timing).

The predicate is "does this schedule still fail?", re-running the whole
deployment per probe; a simulator probe is a few milliseconds and a
wire probe a few seconds over a handful of actions, so the classic
O(n^2) worst case is immaterial.

:class:`Violation` and :func:`record_violation` are the campaign side
of it, shared by both substrates: shrink with the campaign's own
runner, replay the shrunk schedule for the reason *it* fails, file the
pair in the report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..ddmin import ddmin
from .nemesis import FaultSchedule


def shrink_schedule(
    schedule: FaultSchedule,
    still_fails: Callable[[FaultSchedule], bool],
    max_probes: int = 1000,
) -> FaultSchedule:
    """Shrink ``schedule`` to a 1-minimal failing sub-schedule.

    ``still_fails(candidate)`` must return True iff the candidate
    schedule reproduces the original failure.  The input schedule is
    assumed failing; if it is not, it is returned unchanged.  Running
    out of ``max_probes`` raises
    :exc:`~repro.ddmin.ProbeBudgetExceeded` (a ``RuntimeError``).
    """
    if not still_fails(schedule):
        return schedule
    return schedule.subset(
        ddmin(
            range(len(schedule.actions)),
            lambda keep: still_fails(schedule.subset(keep)),
            max_probes,
        )
    )


@dataclass
class Violation:
    """A failing run together with its shrunk minimal reproducer.

    ``result`` is the campaign's run result on either substrate
    (``RunResult`` or ``NetRunResult``): anything with ``schedule``,
    ``reason`` and ``line()``.
    """

    result: Any
    shrunk: FaultSchedule
    shrunk_reason: Optional[str] = None

    def report(self) -> str:
        return "\n".join(
            [
                f"linearizability violation: {self.result.reason}",
                f"  run     : {self.result.line()}",
                f"  shrunk  : {self.shrunk.describe()} "
                f"({len(self.shrunk.actions)} of "
                f"{len(self.result.schedule.actions)} actions)",
                f"  replayed: {self.shrunk_reason}",
            ]
        )


def record_violation(
    report: Any,
    result: Any,
    rerun: Callable[[FaultSchedule], Any],
    shrink: bool,
    emit: Callable[[str], None],
) -> Violation:
    """File ``result`` (a violating run) in ``report.violations``.

    With ``shrink`` the schedule is delta-debugged by ``rerun`` (one
    whole run per probe, violating iff its ``.violation`` is true) and
    the shrunk schedule replayed once more for the checker's reason on
    *that* run; without, the run stands as its own reproducer.
    """
    shrunk, reason = result.schedule, result.reason
    if shrink:
        shrunk = shrink_schedule(
            shrunk, lambda candidate: rerun(candidate).violation
        )
        reason = rerun(shrunk).reason
    violation = Violation(result=result, shrunk=shrunk, shrunk_reason=reason)
    report.violations.append(violation)
    emit(violation.report())
    return violation
