"""The assembled computational storage device.

Wires together the pieces of Figure 1: NAND flash, device DRAM exposed
through a PCIe BAR, an NVMe queue pair toward the host, the internal
interconnect, and the CSE.  The device offers two data paths:

* the **host path** — the host reads stored data over the (shared,
  narrow) system interconnect, and
* the **internal path** — the CSE streams the same data over the
  in-device bus at the richer internal bandwidth (9 GB/s measured in
  the paper's prototype).

Bulk streaming bandwidth is modelled by the internal
:class:`~repro.hw.interconnect.Link`; the :class:`FlashArray` adds the
media faults a read can hit.  There is no FTL and no device garbage
collection: the model is a zoned (ZNS-style) drive, whose host owns data
placement (ZCSD builds a CSD the same way).
"""

from __future__ import annotations

from ..config import SystemConfig
from ..errors import StorageError
from ..hw.interconnect import Link
from ..memory.address_space import SharedAddressSpace
from ..sim import Simulator
from .bar import BarWindow
from .cse import ComputationalStorageEngine
from .nand import FlashArray
from .nvme import QueuePair


class ComputationalStorageDevice:
    """A CSD: storage plus a near-data compute engine."""

    def __init__(
        self,
        config: SystemConfig,
        simulator: Simulator,
        space: SharedAddressSpace,
        name: str = "csd",
        obs=None,
    ) -> None:
        self.name = name
        self.config = config
        self.simulator = simulator
        self.obs = obs if obs is not None else simulator.obs
        self.flash = FlashArray(
            config.nand_read_latency_s, obs=self.obs, metric_prefix=f"{name}.nand",
        )
        self.cse = ComputationalStorageEngine(
            ips=config.cse_ips,
            simulator=simulator,
            cores=config.cse_cores,
            name=name,
            obs=self.obs,
        )
        self.internal_link = Link(
            name=f"{name}.internal",
            bandwidth=config.bw_internal,
            clock=simulator.clock,
            obs=self.obs,
            component="nand",
        )
        self.bar = BarWindow(
            device_name=name,
            size=int(config.device_dram_bytes),
            space=space,
        )
        self.queue_pair = QueuePair.create(name=f"{name}.qp")
        self._stored_bytes: dict[str, float] = {}
        #: Firmware generation: bumped by every reset.  Faults armed
        #: against an earlier generation are stale and must be dropped
        #: by the injector, not fired into the reborn device.
        self.generation = 0

    @property
    def checkpoints(self):
        """The BAR-resident line-boundary checkpoint area."""
        return self.bar.checkpoints

    # --- dataset residency -----------------------------------------------

    def store_dataset(self, dataset_name: str, nbytes: float) -> None:
        """Declare that a named dataset resides on this device's flash."""
        if nbytes <= 0:
            raise StorageError(f"dataset {dataset_name!r} needs positive size")
        total = sum(self._stored_bytes.values()) + nbytes
        if total > self.config.nand_capacity_bytes:
            raise StorageError(
                f"device {self.name!r} capacity exceeded: "
                f"{total} > {self.config.nand_capacity_bytes}"
            )
        self._stored_bytes[dataset_name] = float(nbytes)

    def holds_dataset(self, dataset_name: str) -> bool:
        return dataset_name in self._stored_bytes

    def dataset_bytes(self, dataset_name: str) -> float:
        if dataset_name not in self._stored_bytes:
            raise StorageError(f"dataset {dataset_name!r} is not stored on {self.name!r}")
        return self._stored_bytes[dataset_name]

    # --- data paths --------------------------------------------------------

    def internal_read(self, nbytes: float) -> float:
        """Stream ``nbytes`` from NAND to the CSE over the internal bus.

        Advances the clock and returns the elapsed time.  An armed NAND
        read fault applies to the stream: correctable faults add ECC
        re-read latency, uncorrectable ones raise before the transfer.
        """
        extra = self.consume_media_fault()
        return self.internal_link.transfer(nbytes) + extra

    def consume_media_fault(self) -> float:
        """Apply any armed NAND read fault to the next streamed access.

        Charges ECC re-read latency to the clock and returns it, or
        raises :class:`~repro.errors.UncorrectableMediaError`.
        """
        extra = self.flash.consume_read_fault()
        if extra > 0:
            self.simulator.clock.advance(extra, component="nand")
        return extra

    def internal_read_time(self, nbytes: float) -> float:
        """Time the internal path would take, without advancing the clock."""
        return self.internal_link.transfer_time(nbytes)

    # --- crash / reset (fault injection) ----------------------------------

    def crash_cse(self) -> None:
        """Crash the in-device engine; in-flight queue entries are lost."""
        self.cse.crash()

    def reset_cse(self) -> None:
        """Firmware reset: revive the engine and clear the queue pair.

        Anything in flight at crash time stays lost — the host's
        deadline/retry machinery is what recovers the work.  Media
        faults are unaffected: an unreadable NAND page stays unreadable
        across an engine reset.  Device DRAM — including the BAR
        checkpoint area — also survives: the firmware only restarts the
        engine, which is what makes a BAR-resident resume point useful.
        """
        self.cse.reset()
        self.queue_pair.clear()
        self.generation += 1

    @property
    def healthy(self) -> bool:
        """True when the engine can accept and complete work."""
        return not self.cse.crashed and not self.flash.has_persistent_fault
