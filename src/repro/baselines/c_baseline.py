"""Host-only baselines at the three language-runtime levels.

The paper's performance anchor is the equivalent application written in
C without any ISP involvement; the Python and Cython modes quantify the
interpreter-overhead ladder of §V (Python +41% → Cython +20% → ActivePy
~+1% over C).
"""

from __future__ import annotations

from typing import Optional

from ..config import DEFAULT_CONFIG, SystemConfig
from ..hw.topology import Machine, build_machine
from ..lang.dataset import Dataset
from ..lang.program import Program
from ..runtime.activepy import run_plan
from ..runtime.codegen import ExecutionMode
from ..runtime.executor import ExecutionResult
from .static_isp import ground_truth_estimates


def run_host_only(
    program: Program,
    dataset: Dataset,
    mode: ExecutionMode,
    config: SystemConfig = DEFAULT_CONFIG,
    machine: Optional[Machine] = None,
) -> ExecutionResult:
    """Run ``program`` entirely on the host, compiled per ``mode``.

    The §V ladder runs this once per mode; ``ExecutionMode.C`` is the
    hand-written C anchor.
    """
    from ..runtime.planner import host_only_plan

    if machine is None:
        machine = build_machine(config)
    if not machine.csd.holds_dataset(dataset.name):
        machine.csd.store_dataset(dataset.name, dataset.raw_bytes)
    estimates = ground_truth_estimates(program, dataset.n_records, config)
    plan = host_only_plan(estimates)
    return run_plan(
        machine=machine,
        program=program,
        plan=plan,
        dataset=dataset,
        mode=mode,
        migration_enabled=False,
        config=config,
    )


def run_c_baseline(
    program: Program,
    dataset: Dataset,
    config: SystemConfig = DEFAULT_CONFIG,
    machine: Optional[Machine] = None,
) -> ExecutionResult:
    """The equivalent hand-written C application, no ISP."""
    return run_host_only(program, dataset, ExecutionMode.C, config, machine)

