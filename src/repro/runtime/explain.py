"""Plan explainability: predicted vs. measured time, per line.

The planner commits to a host/CSD split on the strength of Eq. 1's
per-line estimates; the monitor later migrates work when reality
disagrees.  This module puts the two side by side so every run can
answer *"did the prediction hold, and where did it break?"*:

* each line's **predicted** seconds — the exact contribution that line
  makes to the planner's projected total (:func:`~repro.runtime.planner.
  projected_time`): compute at its assigned location plus the D2H
  input transfer when the line sits on a location boundary;
* each line's **measured** seconds from the executor's
  :class:`~repro.runtime.executor.LineTiming`;
* the prediction error, absolute and relative, plus a migration audit
  trail (what the monitor saw, what remaining-time projections won).

The final device→host output transfer is predicted by the planner but
executed *after* the last line's timing window closes, so it is kept
as an explicit separate term (``predicted_final_transfer_seconds``)
rather than smeared into the last line's error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..config import SystemConfig
from ..errors import ProgramError
from .executor import ExecutionResult
from .planner import CSD, Plan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .plansearch import SearchReport

__all__ = ["LineExplanation", "PlanExplanation", "explain_plan"]

#: Relative-error buckets for the per-line prediction-error histogram.
PREDICTION_ERROR_BUCKETS = (0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 4.0)


@dataclass(frozen=True)
class LineExplanation:
    """One line's predicted cost next to what actually happened."""

    index: int
    name: str
    planned_location: str
    actual_location: str
    predicted_seconds: float
    measured_seconds: float
    migrated_mid_line: bool = False

    @property
    def error_seconds(self) -> float:
        """Measured minus predicted (positive = ran slower than planned)."""
        return self.measured_seconds - self.predicted_seconds

    @property
    def relative_error(self) -> float:
        """``|error|`` relative to the prediction (0.0 when both are 0)."""
        if self.predicted_seconds <= 0.0:
            return 0.0 if self.measured_seconds <= 0.0 else float("inf")
        return abs(self.error_seconds) / self.predicted_seconds

    @property
    def held(self) -> bool:
        """True when the line ran where the planner put it, unmigrated."""
        return (
            self.planned_location == self.actual_location
            and not self.migrated_mid_line
        )


@dataclass
class PlanExplanation:
    """The planner's prediction laid against the measured run."""

    program_name: str
    lines: List[LineExplanation]
    #: The planner's projected total for the chosen plan (T_csd).
    predicted_total_seconds: float
    #: The executor's measured total for the same window.
    measured_total_seconds: float
    #: The final device→host output transfer the planner budgets but
    #: line timings exclude (0.0 for plans ending on the host).
    predicted_final_transfer_seconds: float = 0.0
    #: One entry per migration: the audit trail of why the runtime
    #: overrode the plan mid-line.
    migration_audit: List[Dict[str, object]] = None  # set in __post_init__
    #: Which planner produced the plan ("greedy", "search", "external").
    plan_origin: str = "greedy"
    #: For search plans: how the search's choice differs from
    #: greedy Algorithm 1 and what it bought (None for greedy plans).
    #: Keys: greedy_assignments, search_assignments, greedy_makespan_s,
    #: search_makespan_s, improvement_fraction, changed_lines,
    #: search_cache_hit.
    search_diff: Optional[Dict[str, object]] = None

    def __post_init__(self) -> None:
        if self.migration_audit is None:
            self.migration_audit = []

    @property
    def total_error_seconds(self) -> float:
        return self.measured_total_seconds - self.predicted_total_seconds

    @property
    def max_relative_error(self) -> float:
        return max((line.relative_error for line in self.lines), default=0.0)

    @property
    def plan_held(self) -> bool:
        """True when every line ran where the planner placed it."""
        return all(line.held for line in self.lines)

    def worst_lines(self, n: int = 3) -> List[LineExplanation]:
        """Lines ranked by relative prediction error, worst first."""
        return sorted(
            self.lines, key=lambda line: (-line.relative_error, line.index)
        )[:n]

    def render(self) -> str:
        lines = [
            f"plan explanation for {self.program_name!r} "
            f"(origin: {self.plan_origin}): "
            f"predicted {self.predicted_total_seconds:.6f} s, "
            f"measured {self.measured_total_seconds:.6f} s "
            f"({self.total_error_seconds:+.6f} s)"
        ]
        if self.search_diff is not None:
            diff = self.search_diff
            changed = diff.get("changed_lines") or []
            if changed:
                moves = ", ".join(
                    f"{name}: {a}->{b}" for _, name, a, b in changed
                )
                lines.append(
                    f"  search beat greedy by "
                    f"{100 * float(diff['improvement_fraction']):.1f}% "
                    f"({float(diff['greedy_makespan_s']):.6f} s -> "
                    f"{float(diff['search_makespan_s']):.6f} s) by moving "
                    f"{moves}"
                )
            else:
                lines.append(
                    "  search confirmed greedy's plan is optimal "
                    f"(speculative makespan "
                    f"{float(diff['search_makespan_s']):.6f} s)"
                )
        header = (
            f"  {'line':<16} {'plan':<6} {'ran':<6} "
            f"{'predicted':>12} {'measured':>12} {'error':>12}"
        )
        lines.append(header)
        for line in self.lines:
            marker = " *migrated" if line.migrated_mid_line else ""
            lines.append(
                f"  {line.name:<16} {line.planned_location:<6} "
                f"{line.actual_location:<6} {line.predicted_seconds:>12.6f} "
                f"{line.measured_seconds:>12.6f} "
                f"{line.error_seconds:>+12.6f}{marker}"
            )
        if self.predicted_final_transfer_seconds > 0:
            lines.append(
                f"  {'(final d2h)':<16} {'csd':<6} {'-':<6} "
                f"{self.predicted_final_transfer_seconds:>12.6f}"
            )
        for audit in self.migration_audit:
            lines.append(
                f"  migration @{audit['sim_time']:.6f}s line "
                f"{audit['line_name']}: {audit['reason']} "
                f"(device {audit['projected_device_seconds']:.6f} s vs "
                f"host {audit['projected_host_seconds']:.6f} s)"
            )
        return "\n".join(lines)

    def summary(self) -> Dict[str, object]:
        return {
            "program": self.program_name,
            "plan_origin": self.plan_origin,
            "predicted_total_seconds": self.predicted_total_seconds,
            "measured_total_seconds": self.measured_total_seconds,
            "total_error_seconds": self.total_error_seconds,
            "max_relative_error": self.max_relative_error,
            "plan_held": self.plan_held,
            "migrations": len(self.migration_audit),
        }

    def to_jsonable(self) -> Dict[str, object]:
        return {
            **self.summary(),
            "predicted_final_transfer_seconds":
                self.predicted_final_transfer_seconds,
            "lines": [
                {
                    "index": line.index,
                    "name": line.name,
                    "planned_location": line.planned_location,
                    "actual_location": line.actual_location,
                    "predicted_seconds": line.predicted_seconds,
                    "measured_seconds": line.measured_seconds,
                    "error_seconds": line.error_seconds,
                    "relative_error": line.relative_error,
                    "migrated_mid_line": line.migrated_mid_line,
                }
                for line in self.lines
            ],
            "migration_audit": [dict(audit) for audit in self.migration_audit],
            "search_diff": (
                dict(self.search_diff) if self.search_diff is not None else None
            ),
        }


def predicted_line_seconds(plan: Plan, config: SystemConfig) -> List[float]:
    """Each line's contribution to the planner's projected total.

    Mirrors :func:`~repro.runtime.planner.projected_time` term by term
    (compute at the assigned location, input transfer on location
    boundaries) *except* the trailing output transfer, which is
    returned separately by :func:`explain_plan`.  The invariant
    ``sum(lines) + final_transfer == projected_time(...)`` is asserted
    by tests.
    """
    bw = config.bw_d2h
    out: List[float] = []
    assignments = plan.assignments
    for i, (where, line) in enumerate(zip(assignments, plan.estimates)):
        seconds = line.ct_device if where == CSD else line.ct_host
        if i > 0 and assignments[i - 1] != where:
            seconds += line.d_in / bw
        out.append(seconds)
    return out


def explain_plan(
    plan: Plan,
    result: ExecutionResult,
    config: SystemConfig,
    search: Optional["SearchReport"] = None,
) -> PlanExplanation:
    """Join the plan's per-line predictions with the measured timings.

    ``search`` attaches plan provenance for searched plans
    (:mod:`repro.runtime.plansearch`): the explanation then carries an
    explicit diff against what greedy Algorithm 1 would have chosen —
    which lines moved and how many speculative seconds the move bought.
    Per-line *predictions* stay Eq.-1 terms either way; a search plan's
    predicted **total** is its measured speculative makespan, which is
    why search runs explain with near-zero total error.
    """
    if not plan.estimates:
        raise ProgramError("cannot explain a plan without line estimates")
    predicted = predicted_line_seconds(plan, config)
    timings = {t.index: t for t in result.line_timings}
    lines: List[LineExplanation] = []
    for i, seconds in enumerate(predicted):
        timing = timings.get(i)
        lines.append(
            LineExplanation(
                index=i,
                name=plan.estimates[i].name,
                planned_location=plan.assignments[i],
                actual_location=(
                    timing.actual_location if timing is not None else "skipped"
                ),
                predicted_seconds=seconds,
                measured_seconds=timing.seconds if timing is not None else 0.0,
                migrated_mid_line=(
                    timing.migrated_mid_line if timing is not None else False
                ),
            )
        )
    final_transfer = 0.0
    if plan.assignments and plan.assignments[-1] == CSD:
        final_transfer = plan.estimates[-1].d_out / config.bw_d2h
    audit = [
        {
            "line_index": event.line_index,
            "line_name": event.line_name,
            "chunk": event.chunk,
            "sim_time": event.sim_time,
            "reason": event.reason,
            "cost_seconds": event.cost_seconds,
            "projected_device_seconds": event.projected_device_seconds,
            "projected_host_seconds": event.projected_host_seconds,
            "resume_chunk": event.resume_chunk,
        }
        for event in result.migrations
    ]
    search_diff: Optional[Dict[str, object]] = None
    if search is not None:
        search_diff = {
            "greedy_assignments": list(search.greedy_plan.assignments),
            "search_assignments": list(search.plan.assignments),
            "greedy_makespan_s": search.greedy_makespan_s,
            "search_makespan_s": search.makespan_s,
            "improvement_fraction": search.improvement_fraction,
            "changed_lines": [list(entry) for entry in search.changed_lines()],
            "search_cache_hit": search.cache_hit,
        }
    return PlanExplanation(
        program_name=result.program_name,
        lines=lines,
        predicted_total_seconds=plan.t_csd,
        measured_total_seconds=result.total_seconds,
        predicted_final_transfer_seconds=final_transfer,
        migration_audit=audit,
        plan_origin=plan.origin,
        search_diff=search_diff,
    )
