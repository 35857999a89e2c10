"""NAND flash array: the media faults a device read can hit.

Bulk streaming is timed by the device's internal link; what the flash
array adds is the media's failure modes.  A read fault armed here either
costs ECC re-reads (correctable) or raises
:class:`~repro.errors.UncorrectableMediaError`; a silent corruption
returns flipped bits and raises nothing.  The device has no page or
block state and no garbage collection: like a zoned (ZNS) drive, it
leaves data placement to the host.
"""

from __future__ import annotations

from typing import Optional

from ..errors import FlashError, UncorrectableMediaError
from ..obs import Observability

__all__ = ["FlashArray"]


class FlashArray:
    """Armed read faults and silent corruptions of one device's flash.

    ``read_latency_s`` is the single-page read latency; a correctable
    fault costs that much again per ECC re-read.
    """

    def __init__(
        self,
        read_latency_s: float,
        obs: Optional[Observability] = None,
        metric_prefix: str = "nand",
    ) -> None:
        if read_latency_s <= 0:
            raise FlashError(f"read_latency_s must be positive, got {read_latency_s}")
        self.read_latency_s = read_latency_s
        self.obs = obs if obs is not None else Observability.disabled()
        self._m_ecc = f"{metric_prefix}.ecc_corrected_reads"
        self._m_uncorrectable = f"{metric_prefix}.uncorrectable_reads"
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
    def faults_armed(self) -> bool:
        """True while a read fault or a silent corruption is armed."""
        return self._fault_count > 0 or self._silent_count > 0

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
            return self._fault_retries * self.read_latency_s
        if not self._fault_persistent:
            self._fault_count -= 1
        self.uncorrectable_reads += 1
        if self.obs.enabled:
            self.obs.metrics.counter(self._m_uncorrectable).inc()
        raise UncorrectableMediaError(
            "NAND read failed beyond the ECC correction capability"
        )
