"""Shared address space and free-list allocator."""

import pytest

from repro.errors import AddressError, AllocationError
from repro.memory.address_space import SharedAddressSpace
from repro.memory.allocator import Allocation, FreeListAllocator


class TestFreeListAllocator:
    def test_first_fit_packs_low(self):
        alloc = FreeListAllocator(base=0, capacity=1024)
        a = alloc.allocate(100)
        b = alloc.allocate(100)
        assert a.address == 0
        assert b.address >= a.end

    def test_alignment(self):
        alloc = FreeListAllocator(base=0, capacity=4096)
        alloc.allocate(10)
        aligned = alloc.allocate(16, alignment=64)
        assert aligned.address % 64 == 0

    def test_free_and_reuse(self):
        alloc = FreeListAllocator(base=0, capacity=256)
        a = alloc.allocate(256)
        with pytest.raises(AllocationError):
            alloc.allocate(1)
        alloc.free(a)
        assert alloc.allocate(256).address == 0

    def test_coalescing_restores_full_block(self):
        alloc = FreeListAllocator(base=0, capacity=288)
        parts = [alloc.allocate(96) for _ in range(3)]
        # Free out of order: middle last would leave fragments without
        # coalescing.
        alloc.free(parts[0])
        alloc.free(parts[2])
        alloc.free(parts[1])
        assert alloc.largest_free_block() == 288

    def test_double_free_rejected(self):
        alloc = FreeListAllocator(base=0, capacity=128)
        a = alloc.allocate(64)
        alloc.free(a)
        with pytest.raises(AllocationError):
            alloc.free(a)

    def test_foreign_allocation_rejected(self):
        alloc = FreeListAllocator(base=0, capacity=128)
        with pytest.raises(AllocationError):
            alloc.free(Allocation(address=0, size=64))

    def test_accounting(self):
        alloc = FreeListAllocator(base=0, capacity=1000)
        alloc.allocate(300)
        assert alloc.bytes_allocated == 300
        assert alloc.bytes_free == 700
        assert alloc.live_allocations == 1

    def test_oom_message_mentions_largest_block(self):
        alloc = FreeListAllocator(base=0, capacity=100)
        with pytest.raises(AllocationError, match="largest free block"):
            alloc.allocate(200)

    def test_invalid_parameters(self):
        with pytest.raises(AllocationError):
            FreeListAllocator(base=0, capacity=0)
        alloc = FreeListAllocator(base=0, capacity=64)
        with pytest.raises(AllocationError):
            alloc.allocate(0)
        with pytest.raises(AllocationError):
            alloc.allocate(8, alignment=3)


class TestSharedAddressSpace:
    def make_space(self):
        space = SharedAddressSpace()
        space.map_region("host.dram", 1 << 20, "host")
        space.map_region("csd.bar", 1 << 20, "csd")
        return space

    def test_regions_never_overlap(self):
        space = self.make_space()
        host, bar = space.regions
        assert host.end == bar.base

    def test_translation(self):
        space = self.make_space()
        assert space.region_of(10).name == "host.dram"
        assert space.region_of((1 << 20) + 10).name == "csd.bar"

    def test_unmapped_address(self):
        with pytest.raises(AddressError):
            self.make_space().region_of(1 << 22)

    def test_duplicate_name_rejected(self):
        space = self.make_space()
        with pytest.raises(AddressError):
            space.map_region("host.dram", 64, "host")

    def test_allocate_at_location(self):
        space = self.make_space()
        allocation = space.allocate_at("csd", 128)
        assert space.region_of(allocation.address).location == "csd"

    def test_allocate_at_unknown_location(self):
        with pytest.raises(AddressError):
            self.make_space().allocate_at("gpu", 64)

    def test_region_named_missing(self):
        with pytest.raises(AddressError):
            self.make_space().region_named("nope")

