"""Page-mapping flash translation layer with greedy garbage collection.

The FTL maps logical pages to physical pages, performs out-of-place
updates, and reclaims space with a greedy (fewest-valid-pages-first)
garbage collector.  GC is the paper's canonical source of *storage
management contention* (§II-B3): while the controller relocates pages
it steals CSE cycles, which is one of the system dynamics ActivePy's
monitor must survive.  :class:`~repro.storage.csd.ComputationalStorageDevice`
converts GC busy-time into a CSE availability drop.
"""

from __future__ import annotations

from typing import Optional

from ..errors import FlashError, StorageError
from ..obs import Observability
from .nand import FlashArray, PageState

__all__ = ["PageMappingFTL"]


class PageMappingFTL:
    """Logical-to-physical page mapping over a :class:`FlashArray`.

    Parameters
    ----------
    array:
        The physical medium.
    gc_threshold_blocks:
        GC triggers when free blocks drop to this watermark.
    overprovision_fraction:
        Fraction of physical capacity withheld from the logical space
        so GC always has room to relocate into.
    """

    def __init__(
        self,
        array: FlashArray,
        gc_threshold_blocks: int = 2,
        overprovision_fraction: float = 0.1,
        victim_policy: str = "greedy",
        wear_weight: float = 0.5,
        obs: Optional[Observability] = None,
        metric_prefix: str = "ftl",
    ) -> None:
        if gc_threshold_blocks < 1:
            raise StorageError("gc_threshold_blocks must be at least 1")
        if not 0 <= overprovision_fraction < 1:
            raise StorageError("overprovision_fraction must lie in [0, 1)")
        if victim_policy not in ("greedy", "wear_aware"):
            raise StorageError(
                f"victim_policy must be 'greedy' or 'wear_aware', "
                f"got {victim_policy!r}"
            )
        if wear_weight < 0:
            raise StorageError("wear_weight must be non-negative")
        self.array = array
        self.gc_threshold_blocks = gc_threshold_blocks
        #: "greedy" minimises moved pages; "wear_aware" also penalises
        #: re-erasing already-worn blocks, trading write amplification
        #: for a tighter erase-count distribution.
        self.victim_policy = victim_policy
        self.wear_weight = wear_weight
        geometry = array.geometry
        logical_pages = int(geometry.total_pages * (1 - overprovision_fraction))
        #: Number of logical pages addressable by clients.
        self.logical_pages = logical_pages
        self._l2p: dict[int, int] = {}
        self._p2l: dict[int, int] = {}
        self._active_block: Optional[int] = None
        self.gc_runs = 0
        self.gc_pages_moved = 0
        self.gc_busy_seconds = 0.0
        self.host_writes = 0
        self.total_programs_for_writes = 0
        self.obs = obs if obs is not None else Observability.disabled()
        self._m_gc_runs = f"{metric_prefix}.gc_runs"
        self._m_gc_moved = f"{metric_prefix}.gc_pages_moved"
        self._m_gc_busy = f"{metric_prefix}.gc_busy_seconds"
        self._m_host_writes = f"{metric_prefix}.host_writes"

    # --- helpers -----------------------------------------------------------

    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.logical_pages:
            raise StorageError(
                f"logical page {lpn} out of range [0, {self.logical_pages})"
            )

    def _pick_active_block(self) -> int:
        """Find a block with free pages to program into."""
        if self._active_block is not None:
            if not self.array.block(self._active_block).is_full:
                return self._active_block
        erased = self.array.first_erased_block()
        if erased is not None:
            self._active_block = erased
            return erased
        # Fall back to any partially written block with room.
        for block in self.array.touched_blocks():
            if block.free_pages > 0:
                self._active_block = block.block_id
                return block.block_id
        raise FlashError("no free pages anywhere; GC failed to reclaim space")

    # --- client operations ---------------------------------------------------

    def read(self, lpn: int) -> float:
        """Read a logical page; returns the medium latency."""
        self._check_lpn(lpn)
        ppn = self._l2p.get(lpn)
        if ppn is None:
            raise StorageError(f"logical page {lpn} was never written")
        return self.array.read_page(ppn)

    def write(self, lpn: int) -> float:
        """Write (or update) a logical page out-of-place.

        Returns the total latency including any GC triggered by the
        write.  GC time also accumulates in :attr:`gc_busy_seconds` so
        the device can account contention.
        """
        self._check_lpn(lpn)
        latency = self._maybe_collect_garbage()
        # Secure the destination page *before* touching the old one, so
        # exhaustion mid-write leaves the previous mapping intact.
        block_idx = self._pick_active_block()
        ppn, program_latency = self.array.program_next_page(block_idx)
        old_ppn = self._l2p.get(lpn)
        if old_ppn is not None:
            self.array.invalidate_page(old_ppn)
            del self._p2l[old_ppn]
        self._l2p[lpn] = ppn
        self._p2l[ppn] = lpn
        self.host_writes += 1
        self.total_programs_for_writes += 1
        if self.obs.enabled:
            self.obs.metrics.counter(self._m_host_writes).inc()
        return latency + program_latency

    def is_mapped(self, lpn: int) -> bool:
        self._check_lpn(lpn)
        return lpn in self._l2p

    def physical_of(self, lpn: int) -> int:
        self._check_lpn(lpn)
        ppn = self._l2p.get(lpn)
        if ppn is None:
            raise StorageError(f"logical page {lpn} was never written")
        return ppn

    # --- garbage collection ----------------------------------------------------

    def _erasable_blocks(self) -> list[int]:
        """Blocks with no valid pages but some stale content."""
        return [
            b.block_id
            for b in self.array.touched_blocks()
            if b.valid_pages == 0 and (b.invalid_pages or b.write_pointer > 0)
        ]

    def _victim_block(self) -> Optional[int]:
        """Victim selection per the configured policy."""
        candidates = [
            b for b in self.array.touched_blocks()
            if b.is_full and b.block_id != self._active_block
        ]
        if not candidates:
            return None
        if self.victim_policy == "wear_aware":
            mean_erases = sum(b.erase_count for b in candidates) / len(candidates)

            def score(block):
                return block.valid_pages + self.wear_weight * max(
                    0.0, block.erase_count - mean_erases
                )

            victim = min(candidates, key=score)
        else:
            victim = min(candidates, key=lambda b: b.valid_pages)
        if victim.valid_pages == victim.geometry.pages_per_block:
            return None  # nothing reclaimable
        return victim.block_id

    def erase_count_spread(self) -> int:
        """Max minus min per-block erase count (wear-evenness metric)."""
        counts = [b.erase_count for b in self.array.touched_blocks()]
        if len(counts) < self.array.geometry.total_blocks:
            counts.append(0)  # any untouched block was never erased
        return max(counts) - min(counts)

    def _maybe_collect_garbage(self) -> float:
        """Run GC rounds until above the free-block watermark."""
        latency = 0.0
        guard = self.array.geometry.total_blocks * 2
        while self.array.free_blocks < self.gc_threshold_blocks and guard > 0:
            guard -= 1
            moved = self._collect_one_block()
            if moved is None:
                break
            latency += moved
        return latency

    def _collect_one_block(self) -> Optional[float]:
        """Relocate one victim block's valid pages and erase it."""
        # Erase already-empty dirty blocks first: cheapest reclamation.
        for block_id in self._erasable_blocks():
            latency = self.array.erase_block(block_id)
            self.gc_runs += 1
            self.gc_busy_seconds += latency
            self._record_gc(latency, moved=0)
            return latency

        victim_id = self._victim_block()
        if victim_id is None:
            return None
        victim = self.array.block(victim_id)
        latency = 0.0
        moved_pages = 0
        geometry = self.array.geometry
        for page_idx, state in enumerate(victim.pages):
            if state is not PageState.VALID:
                continue
            ppn = victim_id * geometry.pages_per_block + page_idx
            lpn = self._p2l[ppn]
            latency += self.array.read_page(ppn)
            # Program the relocated copy before invalidating the old
            # one: a relocation failure must never orphan a mapping.
            block_idx = self._pick_active_block()
            new_ppn, program_latency = self.array.program_next_page(block_idx)
            latency += program_latency
            self.array.invalidate_page(ppn)
            del self._p2l[ppn]
            self._l2p[lpn] = new_ppn
            self._p2l[new_ppn] = lpn
            self.gc_pages_moved += 1
            moved_pages += 1
        latency += self.array.erase_block(victim_id)
        self.gc_runs += 1
        self.gc_busy_seconds += latency
        self._record_gc(latency, moved=moved_pages)
        return latency

    def _record_gc(self, latency: float, moved: int) -> None:
        if self.obs.enabled:
            metrics = self.obs.metrics
            metrics.counter(self._m_gc_runs).inc()
            metrics.counter(self._m_gc_busy).inc(latency)
            if moved:
                metrics.counter(self._m_gc_moved).inc(moved)

    def write_amplification(self) -> float:
        """Total programs issued per host write (1.0 = no GC traffic)."""
        if self.host_writes == 0:
            return 0.0
        return self.array.programs / self.host_writes
