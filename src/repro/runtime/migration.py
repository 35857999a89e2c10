"""Task migration (paper §III-D).

When the re-estimated CSD time exceeds the cost of finishing on the
host, ActivePy breaks the CSD code at the end of the currently
executing Python line, saves the local variables into the shared memory
space, regenerates machine code for the host, and resumes at the
breakpoint.  Thanks to the single address space, the large intermediate
values do *not* move: they stay in device DRAM and the host accesses
them remotely over the BAR mapping — that remote access, plus the code
regeneration, is the ~8% overhead the paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import SystemConfig
from ..errors import MigrationError
from ..hw.topology import Machine
from ..integrity import VERIFIED_BYTES

#: Modelled size of a task's scalar locals (loop indices, accumulators).
_LOCALS_BYTES = 64 * 1024


@dataclass(frozen=True)
class MigrationEvent:
    """A completed host-ward migration, for reports and tests."""

    line_index: int
    line_name: str
    #: Chunk boundary (dynamic line instance) the task broke at.
    chunk: int
    sim_time: float
    reason: str
    #: Total simulated seconds the migration itself consumed.
    cost_seconds: float
    #: Remaining-CSD-time estimate that justified the move.
    projected_device_seconds: float
    #: Host-side estimate (including this cost) that won.
    projected_host_seconds: float
    #: Chunk the host actually resumed at, read back from the BAR
    #: checkpoint record (equals ``chunk`` unless the newest record was
    #: torn and the previous generation won).  -1 when checkpointing is
    #: disabled and the host-side counter was trusted instead.
    resume_chunk: int = -1


def migration_cost_estimate(
    config: SystemConfig,
    remaining_host_compute_s: float,
    remaining_storage_bytes: float,
    live_input_bytes: float,
) -> float:
    """Predict the total cost of migrating and finishing on the host.

    Components: code regeneration, checkpointing locals, the remaining
    compute at host speed, the remaining stored data over the host's
    normal storage path, and the live intermediate data re-read from
    device DRAM over the (slower) remote-access path.
    """
    if remaining_host_compute_s < 0 or remaining_storage_bytes < 0 or live_input_bytes < 0:
        raise MigrationError("remaining-work estimates must be non-negative")
    verify_s = 0.0
    if config.integrity_enabled:
        # The host digest-checks the locals it reads back (repro.integrity).
        verify_s = _LOCALS_BYTES / config.integrity_verify_bandwidth
    return (
        config.compile_overhead_s
        + config.migration_state_cost_s
        + _LOCALS_BYTES / config.bw_d2h
        + verify_s
        + remaining_host_compute_s
        + remaining_storage_bytes / config.bw_host_storage
        + live_input_bytes / config.bw_remote_access
    )


def perform_migration(
    machine: Machine,
    line_index: int,
    line_name: str,
    chunk: int,
    reason: str,
    projected_device_seconds: float,
    projected_host_seconds: float,
    resume_chunk: int = -1,
) -> MigrationEvent:
    """Execute the mechanical part of a migration; charge the clock.

    Regenerates host code (compile cost), saves locals through the
    device-to-host link, and returns the event record.  The caller —
    the executor — then switches the remaining work to the host and
    routes live-data reads over the remote-access link, resuming at
    ``resume_chunk`` as validated against the BAR checkpoint record
    (:mod:`repro.runtime.checkpoint`) rather than trusting possibly
    torn shared state.
    """
    start = machine.simulator.now
    config = machine.config
    machine.simulator.clock.advance(config.compile_overhead_s, component="migration")
    machine.simulator.clock.advance(
        config.migration_state_cost_s, component="migration"
    )
    machine.d2h_link.transfer(_LOCALS_BYTES)
    if config.integrity_enabled:
        # Digest-check the checkpointed locals the host just read back.
        machine.simulator.clock.advance(
            _LOCALS_BYTES / config.integrity_verify_bandwidth,
            component="integrity",
        )
        if machine.obs.enabled:
            machine.obs.counter_cell(VERIFIED_BYTES).append(_LOCALS_BYTES)
    cost = machine.simulator.now - start
    if machine.obs.enabled:
        machine.obs.metrics.counter("migration.count").inc()
        machine.obs.metrics.counter("migration.cost_seconds").inc(cost)
    return MigrationEvent(
        line_index=line_index,
        line_name=line_name,
        chunk=chunk,
        sim_time=machine.simulator.now,
        reason=reason,
        cost_seconds=cost,
        projected_device_seconds=projected_device_seconds,
        projected_host_seconds=projected_host_seconds,
        resume_chunk=resume_chunk,
    )
