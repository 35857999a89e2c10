"""Assembled CSD: dataset residency and data paths."""

import pytest

from repro.errors import StorageError
from repro.units import GB


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
