"""Machine utilization summaries.

After a run, :func:`utilization_report` condenses a machine's counters
and, optionally, the run's spans into per-resource busy fractions and link
traffic — the "where did the time go" view that complements the
end-to-end speedup numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..errors import ReproError
from ..hw.topology import Machine
from ..obs import Span
from ..units import format_bytes, format_seconds


@dataclass(frozen=True)
class ResourceUsage:
    name: str
    kind: str  # "compute" or "link"
    busy_seconds: float
    utilization: float
    detail: str


@dataclass
class UtilizationReport:
    total_seconds: float
    rows: List[ResourceUsage]

    def usage_of(self, name: str) -> ResourceUsage:
        for row in self.rows:
            if row.name == name:
                return row
        raise ReproError(f"no resource named {name!r}")

    def render(self) -> str:
        lines = [f"wall (simulated): {format_seconds(self.total_seconds)}"]
        width = max(len(row.name) for row in self.rows)
        for row in self.rows:
            lines.append(
                f"{row.name.ljust(width)}  {row.kind:<7} "
                f"busy {format_seconds(row.busy_seconds):>9}  "
                f"({row.utilization:6.1%})  {row.detail}"
            )
        return "\n".join(lines)


def utilization_report(
    machine: Machine,
    total_seconds: Optional[float] = None,
    spans: Optional[Sequence[Span]] = None,
) -> UtilizationReport:
    """Summarise how busy every unit and link was.

    ``total_seconds`` defaults to the machine's current clock (i.e.
    everything since construction); pass a run's duration to scope it.
    ``spans`` adds a row of summed span time for every span resource
    the machine's counters do not already cover.
    """
    window = total_seconds if total_seconds is not None else machine.now
    if window <= 0:
        raise ReproError(f"total window must be positive, got {window}")

    rows: List[ResourceUsage] = []

    def add_unit(unit, name: str) -> None:
        busy = unit.counters.busy_seconds
        rows.append(ResourceUsage(
            name=name,
            kind="compute",
            busy_seconds=busy,
            utilization=min(1.0, busy / window),
            detail=(
                f"{unit.counters.retired_instructions:.3g} instr, "
                f"IPC {unit.counters.ipc():.2f}"
            ),
        ))

    add_unit(machine.host, "host")
    for device in machine.csds:
        add_unit(device.cse, device.name)

    links = [
        (machine.host_storage_link, "host-storage"),
        (machine.d2h_link, "d2h"),
        (machine.remote_access_link, "remote-access"),
    ] + [(device.internal_link, f"{device.name}.internal") for device in machine.csds]
    for link, name in links:
        busy = link.bytes_transferred / link.bandwidth
        rows.append(ResourceUsage(
            name=name,
            kind="link",
            busy_seconds=busy,
            utilization=min(1.0, busy / window),
            detail=(
                f"{format_bytes(link.bytes_transferred)} "
                f"in {link.transfers} transfers"
            ),
        ))

    busy_by_resource: Dict[str, float] = {}
    for span in spans or ():
        busy_by_resource[span.resource] = (
            busy_by_resource.get(span.resource, 0) + span.duration
        )
    known = {row.name for row in rows}
    for resource, busy in busy_by_resource.items():
        if resource not in known:
            rows.append(ResourceUsage(
                name=resource,
                kind="span",
                busy_seconds=busy,
                utilization=min(1.0, busy / window),
                detail="(timeline spans)",
            ))

    return UtilizationReport(total_seconds=window, rows=rows)
