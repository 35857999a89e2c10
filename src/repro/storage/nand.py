"""NAND flash array model.

Models the geometry and state rules of NAND flash: pages must be erased
(at block granularity) before they can be programmed, programs within a
block proceed in page order, and reads/programs/erases have asymmetric
latencies.  The FTL (:mod:`repro.storage.ftl`) builds on these rules;
violating them raises :class:`~repro.errors.FlashError`, which is how
the test suite checks the FTL never misuses the medium.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ..errors import FlashError, UncorrectableMediaError
from ..obs import Observability

__all__ = ["Block", "FlashArray", "FlashGeometry", "PageState"]


class PageState(enum.Enum):
    """Lifecycle of a physical flash page."""

    FREE = "free"        # erased, programmable
    VALID = "valid"      # holds live data
    INVALID = "invalid"  # holds stale data, awaiting erase


@dataclass(frozen=True)
class FlashGeometry:
    """Static shape of a flash array."""

    channels: int = 8
    blocks_per_channel: int = 64
    pages_per_block: int = 256
    page_bytes: int = 16384
    read_latency_s: float = 60e-6
    program_latency_s: float = 600e-6
    erase_latency_s: float = 3e-3

    def __post_init__(self) -> None:
        for name in ("channels", "blocks_per_channel", "pages_per_block", "page_bytes"):
            if getattr(self, name) <= 0:
                raise FlashError(f"geometry field {name} must be positive")
        for name in ("read_latency_s", "program_latency_s", "erase_latency_s"):
            if getattr(self, name) <= 0:
                raise FlashError(f"geometry field {name} must be positive")

    @property
    def total_blocks(self) -> int:
        return self.channels * self.blocks_per_channel

    @property
    def pages_per_channel(self) -> int:
        return self.blocks_per_channel * self.pages_per_block

    @property
    def total_pages(self) -> int:
        return self.total_blocks * self.pages_per_block

    @property
    def capacity_bytes(self) -> int:
        return self.total_pages * self.page_bytes

    @property
    def peak_read_bandwidth(self) -> float:
        """Aggregate read bandwidth with all channels streaming."""
        return self.channels * self.page_bytes / self.read_latency_s


class Block:
    """One erase block: a vector of page states plus a write pointer.

    Valid/invalid counts are maintained incrementally — the FTL's GC
    victim selection consults them on every write, so recounting the
    page vector would make churny workloads quadratic.
    """

    def __init__(self, geometry: FlashGeometry, block_id: int) -> None:
        self.geometry = geometry
        self.block_id = block_id
        self.pages = [PageState.FREE] * geometry.pages_per_block
        self.write_pointer = 0
        self.erase_count = 0
        self.valid_pages = 0
        self.invalid_pages = 0

    @property
    def free_pages(self) -> int:
        return self.geometry.pages_per_block - self.write_pointer

    @property
    def is_full(self) -> bool:
        return self.write_pointer >= self.geometry.pages_per_block


class FlashArray:
    """All blocks across all channels, with state-rule enforcement.

    Physical pages are addressed by a flat index; helpers convert to
    (channel, block, page).  The array reports latency costs but does
    not own a clock — the enclosing device decides whether an operation
    is on the critical path (foreground read) or background (GC).

    Blocks are sparse: a :class:`Block` exists only once something
    programs or erases it (see :meth:`block`).  A block never touched
    is implicitly erased — all pages free, write pointer 0, erase count
    0 — so a device that never takes a write costs no per-block state.
    """

    def __init__(
        self,
        geometry: FlashGeometry = FlashGeometry(),
        obs: Optional[Observability] = None,
        metric_prefix: str = "nand",
    ) -> None:
        self.geometry = geometry
        self._blocks: dict[int, Block] = {}
        self._in_order: Optional[list[Block]] = []
        self.reads = 0
        self.programs = 0
        self.erases = 0
        self._free_blocks = geometry.total_blocks
        self.obs = obs if obs is not None else Observability.disabled()
        # Metric names precomputed so per-page paths never format strings.
        self._m_reads = f"{metric_prefix}.reads"
        self._m_programs = f"{metric_prefix}.programs"
        self._m_erases = f"{metric_prefix}.erases"
        self._m_ecc = f"{metric_prefix}.ecc_corrected_reads"
        self._m_uncorrectable = f"{metric_prefix}.uncorrectable_reads"
        self._m_free_blocks = f"{metric_prefix}.free_blocks"
        # Armed read faults (fault injection): pending fault count, ECC
        # re-read budget for correctable faults, persistence flag for
        # uncorrectable ones.
        self._fault_correctable = True
        self._fault_count = 0
        self._fault_retries = 0
        self._fault_persistent = False
        self.ecc_corrected_reads = 0
        self.uncorrectable_reads = 0
        # Armed silent corruptions: reads that return flipped bits with
        # no error completion.  Tracked separately from the loud read
        # faults — they cost nothing and raise nothing here; only the
        # end-to-end integrity layer can notice the damage.
        self._silent_count = 0
        self._silent_persistent = False
        self.silent_corrupted_reads = 0

    # --- fault injection hooks -------------------------------------------

    def arm_read_fault(
        self,
        correctable: bool,
        retries: int = 3,
        count: int = 1,
        persistent: bool = False,
    ) -> None:
        """Arm the next ``count`` reads to fail.

        Correctable faults cost ``retries`` extra page-read latencies
        (ECC re-reads) and then succeed; uncorrectable ones raise
        :class:`~repro.errors.UncorrectableMediaError`.  A *persistent*
        uncorrectable fault is not consumed by failing reads — replays
        keep failing until :meth:`clear_read_faults` (the executor then
        falls back to the host).
        """
        if retries < 1:
            raise FlashError(f"retries must be at least 1, got {retries}")
        if count < 1:
            raise FlashError(f"count must be at least 1, got {count}")
        self._fault_correctable = correctable
        self._fault_count = count
        self._fault_retries = retries
        self._fault_persistent = persistent and not correctable

    def clear_read_faults(self) -> None:
        """Disarm any pending read fault (recovery hook)."""
        self._fault_count = 0
        self._fault_persistent = False

    def arm_silent_corruption(self, count: int = 1, persistent: bool = False) -> None:
        """Arm the next ``count`` reads to return silently flipped bits.

        Unlike :meth:`arm_read_fault` nothing errors and nothing slows
        down — the read completes normally with wrong data.  A
        *persistent* corruption is not consumed: every re-read of the
        damaged page keeps returning garbage until
        :meth:`clear_silent_corruption` (the executor's host fallback
        then reads the host-side replica instead).
        """
        if count < 1:
            raise FlashError(f"count must be at least 1, got {count}")
        self._silent_count += count
        self._silent_persistent = persistent

    def clear_silent_corruption(self) -> None:
        """Disarm any pending silent corruption (recovery hook)."""
        self._silent_count = 0
        self._silent_persistent = False

    def consume_silent_corruption(self) -> bool:
        """True when the current read streams silently corrupted bits.

        Charges nothing and raises nothing — that is the point.  The
        armed count decrements unless the corruption is persistent.
        """
        if self._silent_count <= 0:
            return False
        if not self._silent_persistent:
            self._silent_count -= 1
        self.silent_corrupted_reads += 1
        return True

    @property
    def has_persistent_fault(self) -> bool:
        """True while an armed uncorrectable fault survives replays."""
        return self._fault_persistent and self._fault_count > 0

    def consume_read_fault(self) -> float:
        """Apply one armed read fault, if any, to the current read.

        Returns extra latency (seconds) for a correctable fault, or 0.0
        when nothing is armed.  Raises
        :class:`~repro.errors.UncorrectableMediaError` for an armed
        uncorrectable fault.
        """
        if self._fault_count <= 0:
            return 0.0
        if self._fault_correctable:
            self._fault_count -= 1
            self.ecc_corrected_reads += 1
            if self.obs.enabled:
                self.obs.metrics.counter(self._m_ecc).inc()
            return self._fault_retries * self.geometry.read_latency_s
        if not self._fault_persistent:
            self._fault_count -= 1
        self.uncorrectable_reads += 1
        if self.obs.enabled:
            self.obs.metrics.counter(self._m_uncorrectable).inc()
        raise UncorrectableMediaError(
            "NAND read failed beyond the ECC correction capability"
        )

    # --- sparse block store ----------------------------------------------

    def block(self, block_idx: int) -> Block:
        """The block at ``block_idx``, created erased on first touch."""
        block = self._blocks.get(block_idx)
        if block is None:
            if not 0 <= block_idx < self.geometry.total_blocks:
                raise FlashError(f"block {block_idx} out of range")
            block = self._blocks[block_idx] = Block(self.geometry, block_idx)
            self._in_order = None
        return block

    def touched_blocks(self) -> list[Block]:
        """Every materialised block, in ascending block id.

        Scans that break ties by block id (the FTL's victim choice) walk
        this list.  Untouched blocks are erased and hold nothing, so no
        scan for data or for a GC victim needs to visit them.
        """
        if self._in_order is None:
            self._in_order = [self._blocks[b] for b in sorted(self._blocks)]
        return self._in_order

    def first_erased_block(self) -> Optional[int]:
        """The lowest block id that is erased, untouched blocks included."""
        for position, block in enumerate(self.touched_blocks()):
            if block.block_id != position or block.write_pointer == 0:
                return position
        if len(self._blocks) < self.geometry.total_blocks:
            return len(self._blocks)
        return None

    # --- addressing -----------------------------------------------------

    def split_address(self, page_addr: int) -> tuple[int, int]:
        """Return (block index, page index within block) for a flat address."""
        if not 0 <= page_addr < self.geometry.total_pages:
            raise FlashError(
                f"page address {page_addr} out of range [0, {self.geometry.total_pages})"
            )
        return divmod(page_addr, self.geometry.pages_per_block)

    def page_state(self, page_addr: int) -> PageState:
        block_idx, page_idx = self.split_address(page_addr)
        block = self._blocks.get(block_idx)
        return PageState.FREE if block is None else block.pages[page_idx]

    def channel_of(self, page_addr: int) -> int:
        block_idx, _ = self.split_address(page_addr)
        return block_idx % self.geometry.channels

    # --- operations -------------------------------------------------------

    def read_page(self, page_addr: int) -> float:
        """Read one page; returns the latency cost in seconds.

        An armed read fault applies here: a correctable one adds ECC
        re-read latency to the returned cost, an uncorrectable one
        raises before any cost is charged.
        """
        if self.page_state(page_addr) is not PageState.VALID:
            raise FlashError(f"page {page_addr} is not valid; cannot read")
        extra = self.consume_read_fault()
        self.reads += 1
        if self.obs.enabled:
            self.obs.metrics.counter(self._m_reads).inc()
        return self.geometry.read_latency_s + extra

    def program_next_page(self, block_idx: int) -> tuple[int, float]:
        """Program the next free page of a block in sequence.

        Returns (flat page address, latency).  NAND forbids in-place
        update and out-of-order programming within a block.
        """
        block = self.block(block_idx)
        if block.is_full:
            raise FlashError(f"block {block_idx} has no free pages")
        page_idx = block.write_pointer
        if block.pages[page_idx] is not PageState.FREE:
            raise FlashError(
                f"block {block_idx} page {page_idx} not erased; cannot program"
            )
        if block.write_pointer == 0:
            self._free_blocks -= 1
        block.pages[page_idx] = PageState.VALID
        block.valid_pages += 1
        block.write_pointer += 1
        self.programs += 1
        if self.obs.enabled:
            self.obs.metrics.counter(self._m_programs).inc()
            self.obs.metrics.gauge(self._m_free_blocks).set(self._free_blocks)
        page_addr = block_idx * self.geometry.pages_per_block + page_idx
        return page_addr, self.geometry.program_latency_s

    def invalidate_page(self, page_addr: int) -> None:
        """Mark a page stale after its logical data moved elsewhere."""
        block_idx, page_idx = self.split_address(page_addr)
        block = self._blocks.get(block_idx)
        if block is None or block.pages[page_idx] is not PageState.VALID:
            raise FlashError(f"page {page_addr} is not valid; cannot invalidate")
        block.pages[page_idx] = PageState.INVALID
        block.valid_pages -= 1
        block.invalid_pages += 1

    def erase_block(self, block_idx: int) -> float:
        """Erase a block; all its pages must already be stale or free."""
        block = self.block(block_idx)
        if block.valid_pages:
            raise FlashError(
                f"block {block_idx} still holds {block.valid_pages} valid pages"
            )
        if block.write_pointer > 0:
            self._free_blocks += 1
        block.pages = [PageState.FREE] * self.geometry.pages_per_block
        block.write_pointer = 0
        block.valid_pages = 0
        block.invalid_pages = 0
        block.erase_count += 1
        self.erases += 1
        if self.obs.enabled:
            self.obs.metrics.counter(self._m_erases).inc()
            self.obs.metrics.gauge(self._m_free_blocks).set(self._free_blocks)
        return self.geometry.erase_latency_s

    # --- aggregate state ---------------------------------------------------

    @property
    def free_blocks(self) -> int:
        """Fully erased blocks (tracked incrementally; GC polls this)."""
        return self._free_blocks

    @property
    def valid_pages(self) -> int:
        return sum(b.valid_pages for b in self._blocks.values())

    def utilisation(self) -> float:
        """Fraction of pages currently holding live data."""
        return self.valid_pages / self.geometry.total_pages
