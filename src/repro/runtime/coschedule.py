"""Co-scheduling two ActivePy programs on one CSD.

The paper's Figure 5 stress "execut[es] similar workloads right after
each application's ISP tasks make 50% of their progress to simulate a
situation where the CSD must load multiple tasks".  This module models
that situation symmetrically: two programs share one device, and each
sees the engine at reduced availability while the *other* is using it.

The interference model is profile-based (and documented as such): each
program first runs solo to obtain its CSD busy profile; then each runs
again with the other's profile applied as scheduled availability
windows (both get ``shared_availability`` while the windows overlap
their execution).  Each co-run is a full ActivePy run — sampling,
planning, monitoring — so a program whose share collapses migrates to
the host exactly as it would under any other contention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..config import DEFAULT_CONFIG, SystemConfig
from ..errors import ReproError
from ..hw.topology import build_machine
from ..lang.dataset import Dataset
from ..lang.program import Program
from .activepy import ActivePy, ActivePyReport, RunOptions


@dataclass(frozen=True)
class BusyWindow:
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class CoScheduleResult:
    """Outcome for one pair of co-located programs."""

    solo: Tuple[ActivePyReport, ActivePyReport]
    shared: Tuple[ActivePyReport, ActivePyReport]

    def slowdown(self, index: int) -> float:
        """How much co-location cost program ``index``."""
        return (
            self.shared[index].total_seconds / self.solo[index].total_seconds
        )

    @property
    def migrations(self) -> Tuple[int, int]:
        return (
            len(self.shared[0].result.migrations),
            len(self.shared[1].result.migrations),
        )


def csd_busy_windows(report: ActivePyReport) -> List[BusyWindow]:
    """The CSD busy intervals of a traced run."""
    if report.spans is None:
        raise ReproError("csd_busy_windows needs a run with trace=True")
    windows = [
        BusyWindow(span.start, span.end)
        for span in report.spans
        if span.cat == "compute" and span.resource.startswith("csd")
    ]
    return sorted(windows, key=lambda w: (w.start, w.end))


def _run_solo(
    program: Program, dataset: Dataset, config: SystemConfig
) -> ActivePyReport:
    machine = build_machine(config)
    return ActivePy(config).run(
        program, dataset, machine=machine, options=RunOptions(trace=True),
    )


def _run_against(
    program: Program,
    dataset: Dataset,
    other_windows: List[BusyWindow],
    config: SystemConfig,
    shared_availability: float,
) -> ActivePyReport:
    machine = build_machine(config)
    now = machine.now
    for window in other_windows:
        if window.end <= now:
            continue
        machine.csd.cse.schedule_availability(
            max(window.start, now), shared_availability
        )
        machine.csd.cse.schedule_availability(window.end, 1.0)
    return ActivePy(config).run(
        program, dataset, machine=machine, options=RunOptions(trace=True),
    )


def coschedule_pair(
    first: Tuple[Program, Dataset],
    second: Tuple[Program, Dataset],
    config: SystemConfig = DEFAULT_CONFIG,
    shared_availability: float = 0.5,
    stagger_seconds: Optional[float] = None,
) -> CoScheduleResult:
    """Run two programs solo and co-located on one CSD.

    ``shared_availability`` is each program's engine share while the
    other's offloaded work is active (0.5 = fair sharing).
    ``stagger_seconds`` delays the second program's busy profile; the
    default staggers it to when the first reaches 50% of its CSD work,
    reproducing the paper's trigger point.
    """
    if not 0 < shared_availability < 1:
        raise ReproError(
            f"shared_availability must lie in (0, 1), got {shared_availability}"
        )
    solo_first = _run_solo(*first, config=config)
    solo_second = _run_solo(*second, config=config)

    first_windows = csd_busy_windows(solo_first)
    second_windows = csd_busy_windows(solo_second)
    if stagger_seconds is None:
        busy_total = sum(w.duration for w in first_windows)
        elapsed = 0.0
        stagger_seconds = first_windows[-1].end if first_windows else 0.0
        for window in first_windows:
            if elapsed + window.duration >= busy_total / 2:
                stagger_seconds = window.start + (busy_total / 2 - elapsed)
                break
            elapsed += window.duration
    staggered_second = [
        BusyWindow(w.start + stagger_seconds, w.end + stagger_seconds)
        for w in second_windows
    ]

    shared_first = _run_against(
        *first, other_windows=staggered_second,
        config=config, shared_availability=shared_availability,
    )
    shared_second = _run_against(
        *second, other_windows=first_windows,
        config=config, shared_availability=shared_availability,
    )
    return CoScheduleResult(
        solo=(solo_first, solo_second),
        shared=(shared_first, shared_second),
    )
