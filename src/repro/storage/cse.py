"""Computational storage engine (CSE).

The CSE is the in-device processor that runs offloaded tasks (the
paper's prototype uses 8 ARM Cortex-A72 cores).  It is a
:class:`~repro.hw.compute.ComputeUnit` plus the behaviour the
experiments need: an **availability schedule** — timed events that
throttle the engine, modelling co-located tenants or firmware work
arriving mid-run (Figures 2 and 5 sweep availability over
100%/50%/10%) — and a crash/reset pair for fault injection.
"""

from __future__ import annotations

from typing import Optional

from ..errors import CseCrashError, HardwareError
from ..hw.compute import ComputeUnit
from ..obs import Observability
from ..sim import Simulator

__all__ = ["ComputationalStorageEngine"]


class ComputationalStorageEngine(ComputeUnit):
    """An in-device compute unit with scheduled contention."""

    def __init__(
        self,
        ips: float,
        simulator: Simulator,
        cores: int = 8,
        clock_hz: float = 2.0e9,
        name: str = "csd",
        obs: Optional[Observability] = None,
    ) -> None:
        super().__init__(
            name=name,
            ips=ips,
            clock=simulator.clock,
            clock_hz=clock_hz,
            obs=obs if obs is not None else simulator.obs,
        )
        if cores <= 0:
            raise HardwareError(f"CSE needs a positive core count, got {cores}")
        self.cores = cores
        self.simulator = simulator
        self.crashed = False
        self.crashes = 0

    # --- crash / reset (fault injection) ----------------------------------

    def crash(self) -> None:
        """Crash the engine: in-flight work is lost until a reset.

        A crashed engine refuses to execute; the host observes the
        failure through missing completions and chunk errors, never
        through this flag directly.
        """
        self.crashed = True
        self.crashes += 1
        if self.obs.enabled:
            self.obs.metrics.counter(f"compute.{self.name}.crashes").inc()

    def reset(self) -> None:
        """Firmware reset: the engine comes back clean at full speed."""
        self.crashed = False
        self.set_availability(1.0)

    def execute(self, instructions: float) -> float:
        if self.crashed:
            raise CseCrashError(f"CSE {self.name!r} is crashed; cannot execute")
        return super().execute(instructions)

    # --- contention scheduling --------------------------------------------

    def schedule_availability(self, at_time: float, fraction: float) -> None:
        """Throttle the engine to ``fraction`` at absolute sim time."""
        if not 0 < fraction <= 1:
            raise HardwareError(f"availability must lie in (0, 1], got {fraction}")
        self.simulator.schedule_at(
            at_time,
            lambda: self.set_availability(fraction),
            label=f"cse-availability-{fraction:.2f}",
        )

    # --- calibration --------------------------------------------------------

    def read_performance_counters(self) -> dict:
        """Architectural counters as ActivePy's estimator queries them.

        This is deliberately the *only* channel through which the
        runtime learns about the engine: nominal per-cycle throughput
        and the live counters, never the availability knob.
        """
        return {
            "ipc_nominal": self.expected_ipc(),
            "clock_hz": self.clock_hz,
            "cores": self.cores,
            "retired_instructions": self.counters.retired_instructions,
            "cycles": self.counters.cycles,
        }
