"""Assembled CSD: residency, data paths, GC-induced contention."""

import pytest

from repro.chaos import campaign
from repro.chaos.campaign import ChaosHarness
from repro.config import SystemConfig
from repro.errors import StorageError
from repro.faults import FaultKind, FaultPlan
from repro.hw.topology import build_machine
from repro.runtime.activepy import ActivePy
from repro.units import GB
from repro.workloads import get_workload


class TestDatasetResidency:
    def test_store_and_query(self, machine):
        machine.csd.store_dataset("lineitem", 6.9 * GB)
        assert machine.csd.holds_dataset("lineitem")
        assert machine.csd.dataset_bytes("lineitem") == pytest.approx(6.9 * GB)

    def test_unknown_dataset(self, machine):
        assert not machine.csd.holds_dataset("nope")
        with pytest.raises(StorageError):
            machine.csd.dataset_bytes("nope")

    def test_capacity_enforced(self, machine):
        with pytest.raises(StorageError):
            machine.csd.store_dataset("huge", 3e12)  # > 2 TB

    def test_capacity_is_cumulative(self, machine):
        machine.csd.store_dataset("a", 1.5e12)
        with pytest.raises(StorageError):
            machine.csd.store_dataset("b", 0.6e12)

    def test_zero_size_rejected(self, machine):
        with pytest.raises(StorageError):
            machine.csd.store_dataset("empty", 0)


class TestDataPaths:
    def test_internal_read_uses_internal_bandwidth(self, config, machine):
        elapsed = machine.csd.internal_read(config.bw_internal)
        assert elapsed == pytest.approx(1.0)
        assert machine.now == pytest.approx(1.0)

    def test_internal_read_time_does_not_advance_clock(self, machine):
        t = machine.csd.internal_read_time(9 * GB)
        assert t > 0
        assert machine.now == 0.0

    def test_internal_path_faster_than_host_path(self, machine):
        nbytes = 1 * GB
        internal = machine.csd.internal_read_time(nbytes)
        host = machine.host_storage_link.transfer_time(nbytes)
        assert internal < host


class TestGcContention:
    def test_write_burst_can_trigger_gc_and_throttle_cse(self, machine):
        # Enough churn to force garbage collection on the small default
        # logical space slice we touch.
        pages = machine.csd.ftl.logical_pages
        burst = min(pages * 3, 60000)
        gc_time = machine.csd.inject_write_burst(burst)
        if gc_time > 0:
            assert machine.csd.cse.availability < 1.0
            # The throttle lifts after the GC busy period.
            machine.simulator.run_until(machine.now + gc_time + 1e-6)
            assert machine.csd.cse.availability == 1.0

    def test_small_burst_no_contention(self, machine):
        gc_time = machine.csd.inject_write_burst(4)
        assert gc_time == 0.0
        assert machine.csd.cse.availability == 1.0

    def test_invalid_burst(self, machine):
        with pytest.raises(StorageError):
            machine.csd.inject_write_burst(0)


class TestBlockMaterialisation:
    """NAND blocks exist only once something programs or erases them.

    A structural guard, not a timer: building a machine, running a
    program and surviving read faults never write flash, so none of
    them may leave per-block state behind.
    """

    @staticmethod
    def materialised(machine) -> list[int]:
        return [len(device.flash.touched_blocks()) for device in machine.csds]

    def test_build_machine_touches_no_block(self):
        assert self.materialised(build_machine(num_csds=2)) == [0, 0]

    def test_runs_touch_no_block(self, config, monkeypatch):
        workload = get_workload("tpch_q6", scale=2 ** -6)
        machine = build_machine(config)
        ActivePy(config).run(workload.program, workload.dataset, machine=machine)
        assert self.materialised(machine) == [0]

        # A chaos run armed only with read and silent-corruption faults.
        machines = []

        def recording_build_machine(*args, **kwargs):
            machines.append(build_machine(*args, **kwargs))
            return machines[-1]

        monkeypatch.setattr(campaign, "build_machine", recording_build_machine)
        harness = ChaosHarness(
            SystemConfig(integrity_enabled=True), silent_corruption=True,
        )
        baseline = harness.baseline("kmeans")
        offset = 0.8 * baseline.overhead_seconds
        plan = FaultPlan.random(
            seed=7, horizon_s=baseline.total_seconds - offset, count=3,
            offset_s=offset, kinds=(
                FaultKind.NAND_READ_CORRECTABLE,
                FaultKind.NAND_READ_UNCORRECTABLE,
                FaultKind.NAND_SILENT_CORRUPTION,
            ),
        )
        outcome = harness.run_plan("kmeans", plan)
        assert outcome.ok and outcome.fault_event_count > 0
        assert [self.materialised(m) for m in machines] == [[0], [0]]

    def test_write_burst_touches_only_blocks_it_wrote(self, machine):
        device = machine.csd
        device.inject_write_burst(1000)
        pages_per_block = device.flash.geometry.pages_per_block
        written = {device.ftl.physical_of(lpn) // pages_per_block
                   for lpn in range(1000)}
        assert len(device.flash.touched_blocks()) == len(written) == 4

        # Rewrite the same pages under a high watermark so GC collects
        # while the rest of the device stays untouched: the only blocks
        # that appear are ones a program or an erase reached.
        device.ftl.gc_threshold_blocks = 1020
        device.inject_write_burst(1000)
        assert device.ftl.gc_runs > 0
        touched = device.flash.touched_blocks()
        assert all(b.write_pointer or b.erase_count for b in touched)
        assert len(touched) < 10
