"""Arming a fault plan on a machine's event queue.

The injector translates each :class:`~repro.faults.spec.FaultSpec` into
simulator events on the machine's shared
:class:`~repro.sim.Simulator`: at the spec's timestamp the
corresponding hardware hook flips (a NAND read fault is armed, the CSE
crashes, a link degrades), and window faults get a paired recovery
event.  All state changes go through the same hooks tests and the
runtime use, so injected faults are indistinguishable from "real" ones
to everything above the hardware layer.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import FaultError
from ..sim import EventHandle
from .log import FaultLog
from .spec import FLEET_KINDS, FaultKind, FaultPlan, FaultSpec

#: Kinds not bound to the target device's firmware generation.  Link
#: faults live on the interconnect, not in device state; bitrot lives
#: in device DRAM, which survives a firmware reset (only the engine
#: restarts), so a reset must not launder a decayed record.
_GENERATION_EXEMPT = frozenset({
    FaultKind.LINK_DEGRADE,
    FaultKind.BAR_TRANSFER_CORRUPTION,
    FaultKind.CHECKPOINT_SILENT_BITROT,
})


class FaultInjector:
    """Schedules a :class:`FaultPlan` against one machine."""

    def __init__(self, machine, plan: FaultPlan, log: Optional[FaultLog] = None) -> None:
        self.machine = machine
        self.plan = plan
        self.log = log if log is not None else FaultLog()
        self.injected = 0
        self.stale_dropped = 0
        self._armed = False
        self._events: List[EventHandle] = []

    # --- arming -----------------------------------------------------------

    def arm(self) -> None:
        """Schedule every spec in the plan; idempotent per injector.

        Device-targeted specs are bound to the target's current
        firmware generation: a spec describes a flaw in the device
        state that exists *now*, so if a reset rebirths the device
        before the spec fires, the fault is stale and must be dropped
        rather than fired into the new generation.
        """
        if self._armed:
            raise FaultError("fault plan is already armed on this injector")
        for spec in self.plan:
            if spec.kind in FLEET_KINDS:
                raise FaultError(
                    f"{spec.kind.value} is a fleet-level fault; it is "
                    f"interpreted by the repro.fleet scheduler and cannot "
                    f"be armed on a single machine"
                )
        self._armed = True
        for spec in self.plan.sorted_specs():
            generation = None
            if spec.kind not in _GENERATION_EXEMPT:
                try:
                    generation = self._device(spec).generation
                except FaultError:
                    generation = None  # unknown target surfaces at fire time
            event = self.machine.simulator.schedule_at(
                spec.at_time,
                lambda spec=spec, generation=generation: self._fire(spec, generation),
                label=f"fault-{spec.kind.value}",
            )
            self._events.append(event)

    def disarm(self) -> None:
        """Cancel every not-yet-fired fault event (between experiments)."""
        for event in self._events:
            event.cancel()
        self._events.clear()
        self._armed = False

    # --- firing -----------------------------------------------------------

    def _device(self, spec: FaultSpec):
        for device in self.machine.csds:
            if device.name == spec.target:
                return device
        raise FaultError(f"fault targets unknown device {spec.target!r}")

    def _link(self, spec: FaultSpec):
        if spec.target == "d2h":
            return self.machine.d2h_link
        if spec.target == "host-storage":
            return self.machine.host_storage_link
        if spec.target == "remote-access":
            return self.machine.remote_access_link
        if spec.target == "internal":
            return self.machine.csd.internal_link
        raise FaultError(f"fault targets unknown link {spec.target!r}")

    def _fire(self, spec: FaultSpec, armed_generation: Optional[int] = None) -> None:
        now = self.machine.simulator.now
        kind = spec.kind
        if armed_generation is not None:
            device = self._device(spec)
            if device.generation != armed_generation:
                self.stale_dropped += 1
                self.log.record(
                    now, kind.value, spec.target, "stale-dropped",
                    f"armed against generation {armed_generation}, device "
                    f"is now generation {device.generation}",
                )
                return
        if kind is FaultKind.NAND_READ_CORRECTABLE:
            device = self._device(spec)
            device.flash.arm_read_fault(
                correctable=True, retries=spec.retries, count=spec.count
            )
            detail = f"{spec.count} read(s), {spec.retries} ECC re-read(s) each"
        elif kind is FaultKind.NAND_READ_UNCORRECTABLE:
            device = self._device(spec)
            device.flash.arm_read_fault(
                correctable=False, count=spec.count, persistent=spec.persistent
            )
            detail = "persistent" if spec.persistent else f"{spec.count} read(s)"
        elif kind is FaultKind.NVME_COMPLETION_LOSS:
            device = self._device(spec)
            device.queue_pair.cq.arm_loss(spec.count)
            detail = f"next {spec.count} completion(s) dropped"
        elif kind is FaultKind.NVME_COMPLETION_DELAY:
            device = self._device(spec)
            device.queue_pair.cq.arm_delay(spec.duration_s)
            detail = f"next completion late by {spec.duration_s:.6f}s"
        elif kind is FaultKind.NVME_QUEUE_STALL:
            device = self._device(spec)
            device.queue_pair.stall(now + spec.duration_s)
            detail = f"queue pair stalled until {now + spec.duration_s:.6f}s"
        elif kind is FaultKind.CSE_CRASH:
            device = self._device(spec)
            device.crash_cse()
            if spec.duration_s > 0:
                self.machine.simulator.schedule_after(
                    spec.duration_s,
                    lambda device=device, spec=spec: self._recover_cse(device, spec),
                    label="fault-cse-reset",
                )
                detail = f"reset in {spec.duration_s:.6f}s"
            else:
                detail = "no self-reset"
        elif kind is FaultKind.CHECKPOINT_TORN_WRITE:
            device = self._device(spec)
            device.checkpoints.arm_torn_write(spec.count)
            detail = f"next {spec.count} checkpoint write(s) torn"
        elif kind is FaultKind.NAND_SILENT_CORRUPTION:
            device = self._device(spec)
            device.flash.arm_silent_corruption(
                count=spec.count, persistent=spec.persistent
            )
            detail = (
                "persistent silent corruption"
                if spec.persistent
                else f"next {spec.count} read(s) silently corrupted"
            )
        elif kind is FaultKind.BAR_TRANSFER_CORRUPTION:
            link = self._link(spec)
            link.arm_transfer_corruption(spec.count)
            detail = f"next {spec.count} payload(s) garbled in flight"
        elif kind is FaultKind.CHECKPOINT_SILENT_BITROT:
            device = self._device(spec)
            rotted = device.checkpoints.rot_committed(spec.count)
            detail = (
                f"{rotted} committed record(s) decayed in BAR memory"
                if rotted
                else "no committed record to decay"
            )
        elif kind is FaultKind.LINK_DEGRADE:
            link = self._link(spec)
            link.set_degradation(spec.factor)
            self.machine.simulator.schedule_after(
                spec.duration_s,
                lambda link=link, spec=spec: self._restore_link(link, spec),
                label="fault-link-restore",
            )
            detail = f"bandwidth x{spec.factor:.2f} for {spec.duration_s:.6f}s"
        else:  # pragma: no cover - FaultKind is exhaustive
            raise FaultError(f"unhandled fault kind {kind!r}")
        self.injected += 1
        self.log.record(now, kind.value, spec.target, "injected", detail)

    def _recover_cse(self, device, spec: FaultSpec) -> None:
        device.reset_cse()
        self.log.record(
            self.machine.simulator.now, spec.kind.value, spec.target,
            "recovered", "CSE reset, queues cleared",
        )

    def _restore_link(self, link, spec: FaultSpec) -> None:
        link.set_degradation(1.0)
        self.log.record(
            self.machine.simulator.now, spec.kind.value, spec.target,
            "recovered", "link restored to full bandwidth",
        )
