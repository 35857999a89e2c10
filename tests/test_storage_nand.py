"""NAND flash model: geometry and page-state rules."""

import pytest

from repro.errors import FlashError
from repro.storage.nand import FlashArray, FlashGeometry, PageState


def small_array() -> FlashArray:
    return FlashArray(FlashGeometry(
        channels=2, blocks_per_channel=4, pages_per_block=8, page_bytes=4096,
    ))


class TestGeometry:
    def test_totals(self):
        geometry = FlashGeometry(channels=2, blocks_per_channel=4, pages_per_block=8)
        assert geometry.total_blocks == 8
        assert geometry.total_pages == 64
        assert geometry.capacity_bytes == 64 * geometry.page_bytes

    def test_peak_bandwidth_scales_with_channels(self):
        one = FlashGeometry(channels=1)
        eight = FlashGeometry(channels=8)
        assert eight.peak_read_bandwidth == pytest.approx(8 * one.peak_read_bandwidth)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(FlashError):
            FlashGeometry(channels=0)
        with pytest.raises(FlashError):
            FlashGeometry(read_latency_s=0)


class TestPageRules:
    def test_fresh_pages_are_free(self):
        array = small_array()
        assert array.page_state(0) is PageState.FREE

    def test_cannot_read_unwritten_page(self):
        with pytest.raises(FlashError):
            small_array().read_page(0)

    def test_program_then_read(self):
        array = small_array()
        addr, latency = array.program_next_page(0)
        assert array.page_state(addr) is PageState.VALID
        assert latency == array.geometry.program_latency_s
        assert array.read_page(addr) == array.geometry.read_latency_s

    def test_programs_are_sequential_within_block(self):
        array = small_array()
        first, _ = array.program_next_page(0)
        second, _ = array.program_next_page(0)
        assert second == first + 1

    def test_block_fills_up(self):
        array = small_array()
        for _ in range(array.geometry.pages_per_block):
            array.program_next_page(0)
        with pytest.raises(FlashError):
            array.program_next_page(0)

    def test_invalidate_requires_valid(self):
        array = small_array()
        with pytest.raises(FlashError):
            array.invalidate_page(0)
        addr, _ = array.program_next_page(0)
        array.invalidate_page(addr)
        assert array.page_state(addr) is PageState.INVALID

    def test_cannot_read_invalidated_page(self):
        array = small_array()
        addr, _ = array.program_next_page(0)
        array.invalidate_page(addr)
        with pytest.raises(FlashError):
            array.read_page(addr)


class TestErase:
    def test_erase_resets_block(self):
        array = small_array()
        addr, _ = array.program_next_page(0)
        array.invalidate_page(addr)
        array.erase_block(0)
        assert array.page_state(addr) is PageState.FREE
        assert array.block(0).write_pointer == 0
        assert array.block(0).erase_count == 1

    def test_erase_refuses_live_data(self):
        array = small_array()
        array.program_next_page(0)
        with pytest.raises(FlashError):
            array.erase_block(0)

    def test_out_of_range_block(self):
        with pytest.raises(FlashError):
            small_array().erase_block(99)


class TestAddressing:
    def test_split_address(self):
        array = small_array()
        assert array.split_address(0) == (0, 0)
        assert array.split_address(9) == (1, 1)

    def test_out_of_range_address(self):
        with pytest.raises(FlashError):
            small_array().split_address(64)

    def test_channel_striping(self):
        array = small_array()
        channels = {array.channel_of(b * 8) for b in range(8)}
        assert channels == {0, 1}


class TestAggregates:
    def test_utilisation(self):
        array = small_array()
        assert array.utilisation() == 0.0
        array.program_next_page(0)
        assert array.utilisation() == pytest.approx(1 / 64)

    def test_operation_counters(self):
        array = small_array()
        addr, _ = array.program_next_page(0)
        array.read_page(addr)
        array.invalidate_page(addr)
        array.erase_block(0)
        assert (array.programs, array.reads, array.erases) == (1, 1, 1)
