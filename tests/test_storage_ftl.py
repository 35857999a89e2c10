"""FTL: logical mapping, out-of-place updates, garbage collection."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FlashError, StorageError
from repro.hw.topology import build_machine
from repro.storage.ftl import PageMappingFTL
from repro.storage.nand import FlashArray, FlashGeometry, PageState


def make_ftl(blocks: int = 8, pages: int = 8, overprovision: float = 0.25):
    array = FlashArray(FlashGeometry(
        channels=1, blocks_per_channel=blocks, pages_per_block=pages,
        page_bytes=4096,
    ))
    return PageMappingFTL(array, gc_threshold_blocks=2, overprovision_fraction=overprovision)


class TestMapping:
    def test_write_then_read(self):
        ftl = make_ftl()
        ftl.write(0)
        assert ftl.is_mapped(0)
        assert ftl.read(0) == ftl.array.geometry.read_latency_s

    def test_read_unwritten_rejected(self):
        with pytest.raises(StorageError):
            make_ftl().read(0)

    def test_out_of_range_lpn(self):
        ftl = make_ftl()
        with pytest.raises(StorageError):
            ftl.write(ftl.logical_pages)

    def test_update_moves_physical_page(self):
        ftl = make_ftl()
        ftl.write(0)
        first = ftl.physical_of(0)
        ftl.write(0)
        assert ftl.physical_of(0) != first

    def test_logical_space_respects_overprovision(self):
        ftl = make_ftl(overprovision=0.25)
        assert ftl.logical_pages == int(ftl.array.geometry.total_pages * 0.75)


class TestGarbageCollection:
    def test_gc_reclaims_space_under_churn(self):
        ftl = make_ftl(blocks=4, pages=4, overprovision=0.5)
        # Rewrite a small working set far beyond raw capacity: without
        # GC the array would run out of programmable pages.
        for i in range(200):
            ftl.write(i % ftl.logical_pages)
        assert ftl.gc_runs > 0
        assert ftl.array.free_blocks >= 1

    def test_gc_preserves_all_live_mappings(self):
        ftl = make_ftl(blocks=4, pages=4, overprovision=0.5)
        for i in range(200):
            ftl.write(i % ftl.logical_pages)
        # Every logical page must still resolve and read back.
        for lpn in range(ftl.logical_pages):
            if ftl.is_mapped(lpn):
                ftl.read(lpn)

    def test_write_amplification_above_one_under_churn(self):
        ftl = make_ftl(blocks=4, pages=4, overprovision=0.5)
        for i in range(300):
            ftl.write(i % ftl.logical_pages)
        assert ftl.write_amplification() > 1.0

    def test_no_gc_when_space_is_plentiful(self):
        ftl = make_ftl(blocks=16, pages=8, overprovision=0.25)
        for lpn in range(4):
            ftl.write(lpn)
        assert ftl.gc_runs == 0
        assert ftl.write_amplification() == pytest.approx(1.0)

    def test_gc_busy_time_accumulates(self):
        ftl = make_ftl(blocks=4, pages=4, overprovision=0.5)
        for i in range(200):
            ftl.write(i % ftl.logical_pages)
        assert ftl.gc_busy_seconds > 0

    def test_gc_moves_only_valid_pages(self):
        ftl = make_ftl(blocks=4, pages=4, overprovision=0.5)
        for i in range(200):
            ftl.write(i % ftl.logical_pages)
        # Pages moved by GC never exceed total live pages per run.
        assert ftl.gc_pages_moved <= ftl.array.programs


class TestValidation:
    def test_bad_threshold(self):
        array = FlashArray(FlashGeometry(channels=1, blocks_per_channel=2))
        with pytest.raises(StorageError):
            PageMappingFTL(array, gc_threshold_blocks=0)

    def test_bad_overprovision(self):
        array = FlashArray(FlashGeometry(channels=1, blocks_per_channel=2))
        with pytest.raises(StorageError):
            PageMappingFTL(array, overprovision_fraction=1.0)

    def test_write_amplification_zero_when_idle(self):
        assert make_ftl().write_amplification() == 0.0


def hot_cold_burst(ftl: PageMappingFTL, writes: int) -> PageMappingFTL:
    """Every third write sweeps the logical space; the rest hit a hot set."""
    logical = ftl.logical_pages
    hot = max(2, logical // 16)
    for i in range(writes):
        ftl.write((i // 3 * 37) % logical if i % 3 == 0 else (i * 5) % hot)
    return ftl


def fingerprint(ftl: PageMappingFTL) -> tuple:
    l2p = hashlib.sha256(repr(sorted(ftl._l2p.items())).encode()).hexdigest()
    return (
        ftl.gc_runs, ftl.gc_pages_moved, ftl.gc_busy_seconds,
        ftl.write_amplification(), ftl.erase_count_spread(),
        ftl.array.free_blocks, ftl.array.valid_pages, l2p,
    )


class TestPinnedGcDecisions:
    """Literal GC outcomes captured from the eager, fully built array.

    Every active-block, erasable-block and victim choice feeds these
    numbers, so any change to a tie-break or to how untouched blocks
    count shows up as a mismatch.
    """

    @pytest.mark.parametrize("policy, writes, expected", [
        ("greedy", 150, (
            0, 0, 0.0, 1.0, 0, 6, 56,
            "27746dc4fc6e68039a7ca5a0859e6296e6391ea3523543ac43aee33db016e7f6")),
        ("greedy", 1200, (
            197, 2175, 2.0265000000000017, 2.8125, 21, 2, 192,
            "9b5e6cbace083e534427e1699ae899fb83cdcd62868237259dd0936fc3a6367e")),
        ("greedy", 5000, (
            1145, 13542, 12.372720000000102, 3.7084, 110, 2, 192,
            "b5aed4f0461df01beb018dd33979bc1c319a0325d55da35b71e42566e0fa9029")),
        ("wear_aware", 150, (
            0, 0, 0.0, 1.0, 0, 6, 56,
            "27746dc4fc6e68039a7ca5a0859e6296e6391ea3523543ac43aee33db016e7f6")),
        ("wear_aware", 1200, (
            203, 2272, 2.1085200000000013, 2.8933333333333335, 15, 2, 192,
            "71599609d03c14ca837fac64baeaeb05ecf567dc2fb569aadd7177015021be80")),
        ("wear_aware", 5000, (
            1197, 14376, 13.07916000000017, 3.8752, 81, 2, 192,
            "8486ab71991444af5e14cb9f3ef59c13b1e9df68f140324887479d16916df248")),
    ])
    def test_small_geometry(self, policy, writes, expected):
        array = FlashArray(FlashGeometry(
            channels=2, blocks_per_channel=8, pages_per_block=16,
        ))
        ftl = PageMappingFTL(
            array, overprovision_fraction=0.25, victim_policy=policy,
            wear_weight=2.0,
        )
        assert fingerprint(hot_cold_burst(ftl, writes)) == expected

    def test_device_geometry(self):
        # A high watermark keeps GC running while most of the 1024
        # blocks stay untouched.
        geometry = build_machine().csd.flash.geometry
        ftl = PageMappingFTL(FlashArray(geometry), gc_threshold_blocks=1016)
        assert fingerprint(hot_cold_burst(ftl, 4000)) == (
            169, 42518, 27.08074999999997, 11.6295, 51, 1011, 3247,
            "3631f1bf740eab022385bb239fbcedb9ae9aa486c4d6dfc4588f044d61bfd92a",
        )


def replay_writes(ftl: PageMappingFTL, lpns: list[int]) -> PageMappingFTL:
    """Apply writes until one fails; a failed write must leave no trace."""
    for lpn in lpns:
        try:
            ftl.write(lpn % ftl.logical_pages)
        except FlashError:
            break
    return ftl


class TestFtlInvariants:
    @settings(max_examples=120, deadline=None, print_blob=True)
    @given(
        channels=st.integers(1, 2),
        blocks_per_channel=st.integers(2, 6),
        pages_per_block=st.integers(2, 8),
        threshold=st.integers(1, 3),
        policy=st.sampled_from(["greedy", "wear_aware"]),
        lpns=st.lists(st.integers(0, 10 ** 6), max_size=300),
    )
    def test_random_write_sequences(
        self, channels, blocks_per_channel, pages_per_block, threshold,
        policy, lpns,
    ):
        geometry = FlashGeometry(
            channels=channels, blocks_per_channel=blocks_per_channel,
            pages_per_block=pages_per_block,
        )

        def build() -> PageMappingFTL:
            return PageMappingFTL(
                FlashArray(geometry), gc_threshold_blocks=threshold,
                overprovision_fraction=0.25, victim_policy=policy,
            )

        ftl = replay_writes(build(), lpns)
        array = ftl.array
        # L2P and P2L are inverse maps.
        assert {ppn: lpn for lpn, ppn in ftl._l2p.items()} == ftl._p2l
        # The valid pages are exactly the mapped physical pages.
        valid = {
            ppn for ppn in range(geometry.total_pages)
            if array.page_state(ppn) is PageState.VALID
        }
        assert valid == set(ftl._p2l)
        assert array.valid_pages == len(ftl._l2p)
        # Programs are sequential, so a block is erased iff its first
        # page is free -- untouched blocks included.
        erased = sum(
            array.page_state(b * pages_per_block) is PageState.FREE
            for b in range(geometry.total_blocks)
        )
        assert array.free_blocks == erased
        for lpn in ftl._l2p:
            assert ftl.read(lpn) == geometry.read_latency_s
        # Materialising every block up front changes no decision.
        eager = build()
        for b in range(geometry.total_blocks):
            eager.array.block(b)
        assert fingerprint(replay_writes(eager, lpns)) == fingerprint(ftl)
