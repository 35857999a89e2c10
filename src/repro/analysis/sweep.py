"""Generic configuration sweeps.

Sensitivity studies over :class:`~repro.config.SystemConfig` fields in
one call::

    from repro.analysis.sweep import sweep_config
    from repro.units import GB

    series = sweep_config(
        "bw_d2h", [1 * GB, 3 * GB, 9 * GB],
        metric=activepy_speedup_metric("tpch_q6"),
    )

Each point builds a fresh machine, so points are independent and
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

from ..config import DEFAULT_CONFIG, SystemConfig
from ..errors import ReproError

#: A metric maps a config to one number.
Metric = Callable[[SystemConfig], float]


@dataclass(frozen=True)
class SweepPoint:
    value: object
    metric: float


@dataclass
class SweepResult:
    field: str
    points: List[SweepPoint]

    @property
    def values(self) -> List[object]:
        return [p.value for p in self.points]

    @property
    def metrics(self) -> List[float]:
        return [p.metric for p in self.points]

    def is_monotone(self, increasing: bool = True) -> bool:
        pairs = zip(self.metrics, self.metrics[1:])
        if increasing:
            return all(a <= b + 1e-12 for a, b in pairs)
        return all(a >= b - 1e-12 for a, b in pairs)


def sweep_config(
    field: str,
    values: Sequence,
    metric: Metric,
    base: SystemConfig = DEFAULT_CONFIG,
) -> SweepResult:
    """Evaluate ``metric`` at each value of one config field."""
    if not values:
        raise ReproError("sweep needs at least one value")
    if not hasattr(base, field):
        raise ReproError(f"SystemConfig has no field {field!r}")
    points = []
    for value in values:
        config = base.replace(**{field: value})
        points.append(SweepPoint(value=value, metric=metric(config)))
    return SweepResult(field=field, points=points)


def activepy_speedup_metric(workload_name: str) -> Metric:
    """Metric: ActivePy speedup over the C baseline for one workload."""

    def metric(config: SystemConfig) -> float:
        from ..baselines import run_c_baseline
        from ..runtime.activepy import ActivePy
        from ..workloads import get_workload

        workload = get_workload(workload_name)
        baseline = run_c_baseline(workload.program, workload.dataset, config=config)
        report = ActivePy(config).run(workload.program, workload.dataset)
        return baseline.total_seconds / report.total_seconds

    return metric

