"""Workload abstraction and registry.

A :class:`Workload` bundles a synthetic dataset (sized to the paper's
Table I at ``scale=1.0``) with the unannotated program that processes
it.  Workload modules register a builder; experiments fetch by name.

``scale`` shrinks the record population proportionally so functional
tests can run whole programs for real; simulated experiment results are
only meaningful at ``scale=1.0``.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, Dict, List

from ..errors import WorkloadError
from ..lang.dataset import Dataset
from ..lang.program import Program


@dataclass
class Workload:
    """One evaluation application."""

    name: str
    description: str
    #: The paper's Table I input size in bytes (0 if not listed there).
    table1_bytes: float
    dataset: Dataset
    program: Program

    @property
    def raw_bytes(self) -> float:
        return self.dataset.raw_bytes

    @property
    def n_records(self) -> int:
        return self.dataset.n_records

    def __repr__(self) -> str:
        return f"Workload(name={self.name!r}, raw_bytes={self.raw_bytes:.3g})"


#: name -> builder(scale) registry, populated by workload modules.
_BUILDERS: Dict[str, Callable[[float], Workload]] = {}


def register(name: str):
    """Class-level decorator registering a workload builder."""

    def wrap(builder: Callable[[float], Workload]):
        if name in _BUILDERS:
            raise WorkloadError(f"workload {name!r} registered twice")
        _BUILDERS[name] = builder
        return builder

    return wrap


#: The workload modules, in the order :func:`workload_names` lists them.
_MODULES = (
    "blackscholes",
    "kmeans",
    "lightgbm",
    "matrixmul",
    "mixedgemm",
    "pagerank",
    "sparsemv",
    "tpch_queries",
)

_loaded = False


def _ensure_loaded() -> None:
    """Import every workload module so builders self-register.

    The first call also puts the registry in ``_MODULES`` order, each
    module's workloads in the order it registers them, whichever module
    the process happened to import first.
    """
    global _loaded
    if _loaded:
        return
    for module in _MODULES:
        importlib.import_module(f"{__package__}.{module}")
    rank = {f"{__package__}.{module}": i for i, module in enumerate(_MODULES)}
    ordered = sorted(
        _BUILDERS.items(),
        key=lambda item: rank.get(item[1].__module__, len(rank)),
    )
    _BUILDERS.clear()
    _BUILDERS.update(ordered)
    _loaded = True


def workload_names() -> List[str]:
    """All registered workload names, in ``_MODULES`` order."""
    _ensure_loaded()
    return list(_BUILDERS)


def get_workload(name: str, scale: float = 1.0) -> Workload:
    """Build one workload; ``scale`` shrinks the population for tests."""
    _ensure_loaded()
    if name not in _BUILDERS:
        raise WorkloadError(
            f"unknown workload {name!r}; known: {sorted(_BUILDERS)}"
        )
    if not 0 < scale <= 1:
        raise WorkloadError(f"scale must lie in (0, 1], got {scale}")
    return _BUILDERS[name](scale)


def all_workloads(scale: float = 1.0) -> Dict[str, Workload]:
    """Build the whole suite keyed by name."""
    return {name: get_workload(name, scale) for name in workload_names()}


def scaled_records(full_records: int, scale: float) -> int:
    """Record count at a scale.

    A handful of records is enough to run kernels functionally; note
    that the ActivePy *sampling phase* additionally needs the four
    scaling factors (down to 2^-10) to produce distinct sample sizes,
    i.e. roughly 2048+ records — the sampler enforces that itself.
    """
    n = int(round(full_records * scale))
    if n < 16:
        raise WorkloadError(
            f"scale {scale} leaves only {n} records of {full_records}; "
            f"need at least 16"
        )
    return n
