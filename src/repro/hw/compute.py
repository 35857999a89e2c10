"""Compute-unit models with performance counters.

A :class:`ComputeUnit` turns an instruction count into simulated time at
its current *effective* throughput, which is the nominal throughput
scaled by an availability factor in ``(0, 1]``.  Availability is how the
simulator models contention on the CSE: other tenants or firmware tasks
stealing cycles (paper §II-B3).

Every unit keeps architectural :class:`PerfCounters` (retired
instructions, busy cycles).  ActivePy's monitor reads *only* these
counters — it never sees the availability knob directly — mirroring how
the real system infers congestion from a dropping IPC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import repeat
from operator import add
from typing import Optional

from ..errors import HardwareError
from ..obs import Observability
from ..sim.clock import SimClock

__all__ = ["ComputeUnit", "PerfCounters"]


@dataclass
class PerfCounters:
    """Architectural counters exposed by a compute unit.

    ``cycles`` accumulates wall cycles while the unit is busy, and
    ``retired_instructions`` the useful work done, so their ratio is the
    observed IPC that the ActivePy monitor consumes.
    """

    retired_instructions: float = 0.0
    cycles: float = 0.0
    busy_seconds: float = 0.0
    tasks_completed: int = 0
    _ipc_nominal: float = field(default=1.0, repr=False)

    def ipc(self) -> float:
        """Observed instructions-per-cycle since the last reset."""
        if self.cycles <= 0:
            return 0.0
        return self.retired_instructions / self.cycles

    def reset(self) -> None:
        self.retired_instructions = 0.0
        self.cycles = 0.0
        self.busy_seconds = 0.0
        self.tasks_completed = 0


class ComputeUnit:
    """A processor (host CPU or CSE) with throttleable throughput.

    Parameters
    ----------
    name:
        Identifier used in plans and reports (e.g. ``"host"``, ``"csd"``).
    ips:
        Nominal throughput in instructions per second.
    clock:
        Shared simulated clock; executing work advances it.
    clock_hz:
        Nominal core frequency, used only to convert busy time into
        cycles for the performance counters.
    obs:
        Shared observability handle; when enabled the unit feeds
        ``compute.<name>.*`` metrics (never advancing the clock).
    """

    def __init__(
        self,
        name: str,
        ips: float,
        clock: SimClock,
        clock_hz: float = 3.6e9,
        obs: Optional[Observability] = None,
    ) -> None:
        if ips <= 0:
            raise HardwareError(f"compute unit {name!r} needs positive ips, got {ips}")
        if clock_hz <= 0:
            raise HardwareError(f"compute unit {name!r} needs positive clock_hz")
        self.name = name
        self.nominal_ips = float(ips)
        self.clock = clock
        self.clock_hz = float(clock_hz)
        self.counters = PerfCounters(_ipc_nominal=ips / clock_hz)
        self._availability = 1.0
        self.obs = obs if obs is not None else Observability.disabled()
        # Which attribution bucket this unit's execution time lands in:
        # the host CPU is "host", every in-device engine is "cse".
        self.component = "host" if name == "host" else "cse"
        # Write-behind cells, so the hot path never looks a metric up.
        self._busy_cell = self.obs.counter_cell(f"compute.{name}.busy_seconds")
        self._instr_cell = self.obs.counter_cell(f"compute.{name}.instructions")
        self._tasks_cell = self.obs.counter_cell(f"compute.{name}.tasks")
        self._m_avail = f"compute.{name}.availability"

    # --- availability --------------------------------------------------

    @property
    def availability(self) -> float:
        """Fraction of the unit's cycles available to foreground work."""
        return self._availability

    def set_availability(self, fraction: float) -> None:
        """Throttle the unit to ``fraction`` of its nominal throughput.

        Models contention from co-located tasks or device-management
        work.  ``fraction`` must lie in (0, 1]; use a small positive
        value rather than zero for a fully congested unit so execution
        still makes (very slow) progress.
        """
        if not 0 < fraction <= 1:
            raise HardwareError(f"availability must lie in (0, 1], got {fraction}")
        self._availability = float(fraction)
        if self.obs.enabled:
            self.obs.metrics.gauge(self._m_avail).set(fraction)

    @property
    def effective_ips(self) -> float:
        """Throughput currently available to foreground work."""
        return self.nominal_ips * self._availability

    # --- execution ------------------------------------------------------

    def execution_time(self, instructions: float) -> float:
        """Seconds needed to retire ``instructions`` at current availability."""
        if instructions < 0:
            raise HardwareError(f"instruction count must be non-negative, got {instructions}")
        return instructions / self.effective_ips

    def execute(self, instructions: float) -> float:
        """Run ``instructions`` synchronously; advance the clock.

        Returns the elapsed simulated time.  Performance counters are
        charged with *wall* cycles (time × frequency) but only the
        foreground instructions retire, so the observed IPC degrades in
        proportion to lost availability — which is exactly the signal
        the ActivePy monitor keys on.
        """
        elapsed = self.execution_time(instructions)
        self.clock.advance(elapsed, component=self.component)
        self.counters.retired_instructions += instructions
        self.counters.cycles += elapsed * self.clock_hz
        self.counters.busy_seconds += elapsed
        self.counters.tasks_completed += 1
        self._record_work(instructions, elapsed)
        return elapsed

    def charge(self, instructions: float, elapsed: float, count: int = 1) -> None:
        """Account work against externally managed time, ``count`` times over.

        Overlapped execution advances the clock once for a whole chunk
        (max of I/O and compute time), and a quiet stretch once for all
        its chunks; this books the retired instructions and busy cycles
        of ``count`` such chunks without touching the clock.  Each float
        counter is the left fold of its ``count`` adds, the same bits as
        one call per chunk.
        """
        if instructions < 0 or elapsed < 0:
            raise HardwareError("charge needs non-negative instructions and time")
        counters = self.counters
        counters.retired_instructions = reduce(
            add, repeat(instructions, count), counters.retired_instructions
        )
        counters.cycles = reduce(add, repeat(elapsed * self.clock_hz, count), counters.cycles)
        counters.busy_seconds = reduce(add, repeat(elapsed, count), counters.busy_seconds)
        counters.tasks_completed += count
        self._record_work(instructions, elapsed, count)

    def _record_work(self, instructions: float, elapsed: float, count: int = 1) -> None:
        if self.obs.enabled:
            self._busy_cell.extend(repeat(elapsed, count))
            self._instr_cell.extend(repeat(instructions, count))
            self._tasks_cell.extend(repeat(1.0, count))

    def expected_ipc(self) -> float:
        """IPC the unit would show when fully available."""
        return self.nominal_ips / self.clock_hz

    def __repr__(self) -> str:
        return (
            f"ComputeUnit(name={self.name!r}, ips={self.nominal_ips:.3g}, "
            f"availability={self._availability:.2f})"
        )
