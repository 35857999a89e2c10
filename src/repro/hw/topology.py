"""Machine topology: host + interconnect + CSD(s) wired together.

:func:`build_machine` constructs the platform of the paper's §IV-A —
an x86-class host, a PCIe 3.0 system interconnect, and a CSD — over one
shared simulator and one shared address space.  Everything above this
layer (the ActivePy runtime, the baselines, the benchmarks) receives a
:class:`Machine` and never constructs hardware directly.

The paper's runtime "can migrate tasks among different compute units"
including multiple CSDs; ``build_machine(num_csds=N)`` attaches N
devices (``csd``, ``csd1``, ``csd2``, …), each with its own NAND, CSE,
queue pair and BAR window.  A program offloads to the device that holds
its dataset (:meth:`Machine.device_holding`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..config import DEFAULT_CONFIG, SystemConfig
from ..errors import HardwareError, StorageError
from ..memory.address_space import SharedAddressSpace
from ..obs import Observability
from ..sim import Simulator
from ..storage.csd import ComputationalStorageDevice
from ..units import GIB
from .compute import ComputeUnit
from .interconnect import Link

__all__ = ["Machine", "build_machine"]


@dataclass
class Machine:
    """The simulated platform an experiment runs on."""

    config: SystemConfig
    simulator: Simulator
    space: SharedAddressSpace
    host: ComputeUnit
    csds: Tuple[ComputationalStorageDevice, ...]
    #: Host-visible storage read path (shared PCIe + filesystem).
    host_storage_link: Link
    #: Device-to-host transfer path for processed data (NVMe).
    d2h_link: Link
    #: Host load/store path into CSD memory after a migration (BAR).
    remote_access_link: Link
    #: The machine-wide observability handle, shared by reference with
    #: every component.  Disabled by default; see :mod:`repro.obs`.
    obs: Observability = field(default_factory=Observability.disabled)

    def __post_init__(self) -> None:
        if not self.csds:
            raise HardwareError("a machine needs at least one CSD")

    @property
    def csd(self) -> ComputationalStorageDevice:
        """The primary device (single-CSD code uses this)."""
        return self.csds[0]

    @property
    def now(self) -> float:
        return self.simulator.now

    def unit_named(self, name: str) -> ComputeUnit:
        """Resolve a compute unit by plan location name."""
        if name == "host":
            return self.host
        for device in self.csds:
            if name == device.name:
                return device.cse
        raise KeyError(f"no compute unit named {name!r}")

    def device_named(self, name: str) -> ComputationalStorageDevice:
        for device in self.csds:
            if device.name == name:
                return device
        raise KeyError(f"no CSD named {name!r}")

    def device_holding(self, dataset_name: str) -> ComputationalStorageDevice:
        """The CSD a dataset resides on (offload target resolution)."""
        for device in self.csds:
            if device.holds_dataset(dataset_name):
                return device
        raise StorageError(f"no attached CSD holds dataset {dataset_name!r}")

    def reset_counters(self) -> None:
        """Clear perf counters and link statistics (between phases)."""
        self.host.counters.reset()
        for device in self.csds:
            device.cse.counters.reset()
            device.internal_link.reset_stats()
        for link in (self.host_storage_link, self.d2h_link, self.remote_access_link):
            link.reset_stats()


def build_machine(
    config: SystemConfig = DEFAULT_CONFIG,
    num_csds: int = 1,
    obs: Optional[Observability] = None,
) -> Machine:
    """Construct a fresh machine from a configuration.

    ``obs`` is the machine-wide observability handle; omit it for a
    disabled (zero-overhead) one.  Every component shares the handle by
    reference, so enabling it later — or pointing it at a caller's
    sinks via :meth:`~repro.obs.Observability.adopt` — takes effect
    everywhere at once.
    """
    if num_csds < 1:
        raise HardwareError(f"num_csds must be at least 1, got {num_csds}")
    if obs is None:
        obs = Observability.disabled()
    simulator = Simulator(obs=obs)
    obs.bind_clock(simulator.clock)
    space = SharedAddressSpace()
    # Host DRAM first so host allocations land at low addresses.
    space.map_region(name="host.dram", size=64 * GIB, location="host")
    host = ComputeUnit(name="host", ips=config.host_ips, clock=simulator.clock, obs=obs)
    csds = tuple(
        ComputationalStorageDevice(
            config=config,
            simulator=simulator,
            space=space,
            name="csd" if index == 0 else f"csd{index}",
            obs=obs,
        )
        for index in range(num_csds)
    )
    host_storage_link = Link(
        name="host-storage",
        bandwidth=config.bw_host_storage,
        clock=simulator.clock,
        latency_s=config.effective_link_latency_s,
        obs=obs,
    )
    d2h_link = Link(
        name="d2h",
        bandwidth=config.bw_d2h,
        clock=simulator.clock,
        latency_s=config.effective_link_latency_s,
        obs=obs,
    )
    remote_access_link = Link(
        name="remote-access",
        bandwidth=config.bw_remote_access,
        clock=simulator.clock,
        latency_s=config.effective_link_latency_s,
        obs=obs,
    )
    return Machine(
        config=config,
        simulator=simulator,
        space=space,
        host=host,
        csds=csds,
        host_storage_link=host_storage_link,
        d2h_link=d2h_link,
        remote_access_link=remote_access_link,
        obs=obs,
    )
