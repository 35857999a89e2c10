"""CSE contention scheduling and BAR-window binary distribution."""

import pytest

from repro.errors import HardwareError, StorageError
from repro.memory.address_space import SharedAddressSpace
from repro.sim.engine import Simulator
from repro.storage.bar import BarWindow
from repro.storage.cse import ComputationalStorageEngine


def make_cse(sim=None) -> ComputationalStorageEngine:
    return ComputationalStorageEngine(ips=4e9, simulator=sim or Simulator())


class TestCseAvailability:
    def test_scheduled_throttle_takes_effect_at_time(self):
        sim = Simulator()
        cse = ComputationalStorageEngine(ips=4e9, simulator=sim)
        cse.schedule_availability(at_time=1.0, fraction=0.5)
        assert cse.availability == 1.0
        sim.run_until(1.0)
        assert cse.availability == 0.5

    def test_invalid_fraction_rejected(self):
        with pytest.raises(HardwareError):
            make_cse().schedule_availability(1.0, 0.0)

    def test_zero_cores_rejected(self):
        with pytest.raises(HardwareError):
            ComputationalStorageEngine(ips=4e9, simulator=Simulator(), cores=0)


class TestPerformanceCounterInterface:
    def test_counters_expose_only_architectural_state(self):
        # The runtime's whole view of the device: no availability leak.
        counters = make_cse().read_performance_counters()
        assert set(counters) == {
            "ipc_nominal", "clock_hz", "cores",
            "retired_instructions", "cycles",
        }

    def test_nominal_ipc_consistent_with_ips(self):
        cse = make_cse()
        counters = cse.read_performance_counters()
        assert counters["ipc_nominal"] * counters["clock_hz"] == pytest.approx(4e9)


class TestBarWindow:
    def make_bar(self, size: int = 1 << 20):
        space = SharedAddressSpace()
        space.map_region("host.dram", 1 << 20, "host")
        return BarWindow("csd", size=size, space=space), space

    def test_region_mapped_at_device_location(self):
        bar, space = self.make_bar()
        assert space.region_named("csd.bar").location == "csd"

    def test_install_binary_returns_device_address(self):
        bar, space = self.make_bar()
        address = bar.install_binary("scan", 4096)
        assert bar.base <= address < bar.base + bar.size
        assert bar.binary_address("scan") == address

    def test_reinstall_replaces(self):
        bar, _ = self.make_bar()
        bar.install_binary("scan", 4096)
        second = bar.install_binary("scan", 4096)
        assert bar.binary_address("scan") == second
        assert bar.installed_binaries == ("scan",)

    def test_missing_binary_is_none(self):
        bar, _ = self.make_bar()
        assert bar.binary_address("nope") is None

    def test_invalid_sizes_rejected(self):
        with pytest.raises(StorageError):
            self.make_bar(size=0)
        bar, _ = self.make_bar()
        with pytest.raises(StorageError):
            bar.install_binary("scan", 0)
