"""JSON-serialisable views of experiment results.

Every ``run_*`` driver's result converts to plain dicts/lists so runs
can be archived, diffed across calibrations, or plotted elsewhere.
``to_jsonable`` dispatches on the result type; ``dump`` writes a file.

Result types that speak the :class:`ReportLike` protocol — a
``summary()`` of headline numbers plus a full ``to_jsonable()`` view,
both JSON-ready — are handled first and uniformly; the per-figure
branches below cover the older experiment results that predate it.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, IO, Protocol, Union, runtime_checkable

from ..errors import ReproError
from .experiments import (
    Fig2Result,
    Fig4Result,
    Fig5Result,
    LadderResult,
    PredictionResult,
)

__all__ = ["ReportLike", "dump", "dumps", "to_jsonable"]


@runtime_checkable
class ReportLike(Protocol):
    """The common report protocol every top-level result speaks.

    ``ActivePyReport``, ``ExecutionResult``, ``CampaignResult`` and
    ``ChaosRunOutcome`` all implement it; new result types should too,
    and then :func:`to_jsonable`/:func:`dump` handle them for free.
    """

    def summary(self) -> Dict[str, Any]:
        """Headline numbers only, JSON-ready."""
        ...

    def to_jsonable(self) -> Dict[str, Any]:
        """The full result as plain dicts/lists/scalars."""
        ...


def to_jsonable(result: Any) -> Any:
    """Convert an experiment result into JSON-compatible structures."""
    if isinstance(result, ReportLike) and not isinstance(result, type):
        return result.to_jsonable()
    if isinstance(result, Fig2Result):
        return {
            "experiment": "fig2",
            "availabilities": list(result.availabilities),
            "series": {name: list(values) for name, values in result.series.items()},
            "crossovers": {
                name: result.crossover(name) for name in result.series
            },
        }
    if isinstance(result, Fig4Result):
        return {
            "experiment": "fig4",
            "rows": [dataclasses.asdict(row) for row in result.rows],
            "static_geomean": result.static_geomean,
            "activepy_geomean": result.activepy_geomean,
        }
    if isinstance(result, Fig5Result):
        return {
            "experiment": "fig5",
            "rows": [dataclasses.asdict(row) for row in result.rows],
            "mean_gain_at_10pct": result.mean_gain(0.1),
            "mean_without_at_10pct": result.mean_without(0.1),
        }
    if isinstance(result, LadderResult):
        return {
            "experiment": "overhead_ladder",
            "per_workload": result.per_workload,
            "mean_overheads": {
                mode: result.mean_overhead(mode)
                for mode in ("python", "cython", "activepy")
            },
        }
    if isinstance(result, PredictionResult):
        outliers = set(id(r) for r in result.outliers())
        return {
            "experiment": "prediction_accuracy",
            "rows": [
                {
                    "workload": row.workload,
                    "line": row.line,
                    "predicted_bytes": row.predicted_bytes,
                    "actual_bytes": row.actual_bytes,
                    "ratio": row.ratio,
                    "outlier": id(row) in outliers,
                }
                for row in result.rows
            ],
            "geomean_error_excluding_outliers":
                result.geomean_error_excluding_outliers(),
            "max_csr_overestimate": result.max_csr_overestimate(),
        }
    if isinstance(result, dict):
        return {str(key): to_jsonable(value) for key, value in result.items()}
    if isinstance(result, (str, int, float, bool)) or result is None:
        return result
    if isinstance(result, (list, tuple)):
        return [to_jsonable(item) for item in result]
    if dataclasses.is_dataclass(result) and not isinstance(result, type):
        return dataclasses.asdict(result)
    raise ReproError(f"cannot export {type(result).__name__} to JSON")


def dumps(result: Any, indent: int = 2) -> str:
    """Serialise an experiment result to a JSON string."""
    return json.dumps(to_jsonable(result), indent=indent, sort_keys=True)


def dump(result: Any, fp: Union[str, IO[str]], indent: int = 2) -> None:
    """Write an experiment result to a path or an open file."""
    if isinstance(fp, str):
        with open(fp, "w", encoding="utf-8") as handle:
            handle.write(dumps(result, indent=indent))
        return
    fp.write(dumps(result, indent=indent))
