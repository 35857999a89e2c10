"""Interconnect link model.

A :class:`Link` converts a transfer size into simulated time using a
bandwidth plus a fixed per-message latency, and keeps cumulative traffic
statistics.  Three links matter in the reproduction, mirroring Figure 1
of the paper:

* the host's storage-read path (shared PCIe 3.0, ~1.6 GB/s effective),
* the CSD-internal NAND bus (9 GB/s, measured in the paper's §IV-A),
* the device-to-host NVMe transfer path for processed data (~3 GB/s).
"""

from __future__ import annotations

from functools import reduce
from itertools import repeat
from operator import add
from typing import Optional

from ..errors import HardwareError
from ..obs import Observability
from ..sim.clock import SimClock

__all__ = ["Link"]


class Link:
    """A point-to-point link with bandwidth, latency, and accounting."""

    def __init__(
        self,
        name: str,
        bandwidth: float,
        clock: SimClock,
        latency_s: float = 0.0,
        obs: Optional[Observability] = None,
        component: str = "pcie",
    ) -> None:
        if bandwidth <= 0:
            raise HardwareError(f"link {name!r} needs positive bandwidth, got {bandwidth}")
        if latency_s < 0:
            raise HardwareError(f"link {name!r} needs non-negative latency, got {latency_s}")
        self.name = name
        self.bandwidth = float(bandwidth)
        self.latency_s = float(latency_s)
        self.clock = clock
        self.bytes_transferred = 0.0
        self.transfers = 0
        self._degradation = 1.0
        # Armed in-flight corruptions: the next N payload transfers are
        # garbled but complete normally (fault injection; consumed by
        # the integrity layer's readback checks).
        self._corrupt_armed = 0
        self.corrupted_transfers = 0
        self.obs = obs if obs is not None else Observability.disabled()
        # Attribution bucket for time spent on this link: host-visible
        # links are "pcie"; the CSD-internal bus is built with "nand".
        self.component = component
        # Write-behind cells, so the hot path never looks a metric up.
        self._bytes_cell = self.obs.counter_cell(f"link.{name}.bytes")
        self._transfers_cell = self.obs.counter_cell(f"link.{name}.transfers")
        self._messages_cell = self.obs.counter_cell(f"link.{name}.messages")
        self._m_degradation = f"link.{name}.degradation"

    # --- degradation (fault injection) ---------------------------------

    @property
    def degradation(self) -> float:
        """Remaining bandwidth fraction (1.0 = healthy link)."""
        return self._degradation

    def set_degradation(self, factor: float) -> None:
        """Run the link at ``factor`` of its bandwidth.

        Models a transient PCIe retrain to a narrower width or lower
        speed; the :class:`~repro.faults.FaultInjector` opens and closes
        degradation windows through this hook.
        """
        if not 0 < factor <= 1:
            raise HardwareError(
                f"link {self.name!r} degradation factor must lie in (0, 1], got {factor}"
            )
        self._degradation = float(factor)
        if self.obs.enabled:
            self.obs.metrics.gauge(self._m_degradation).set(factor)

    # --- silent transfer corruption (fault injection) ------------------

    def arm_transfer_corruption(self, count: int = 1) -> None:
        """Garble the next ``count`` payload transfers in flight.

        The transfers still complete in normal time with no error —
        only an end-to-end checksum over the payload can tell.  Control
        messages (:meth:`message`) carry no payload and are unaffected.
        """
        if count < 1:
            raise HardwareError(
                f"link {self.name!r} corruption count must be >= 1, got {count}"
            )
        self._corrupt_armed += count

    @property
    def transfer_corruption_armed(self) -> bool:
        return self._corrupt_armed > 0

    def consume_transfer_corruption(self) -> bool:
        """True when the payload just moved across this link was garbled.

        Called by the consumer-side integrity checks after a payload
        transfer; decrements the armed count.  Free and silent — the
        link itself reports nothing.
        """
        if self._corrupt_armed <= 0:
            return False
        self._corrupt_armed -= 1
        self.corrupted_transfers += 1
        return True

    @property
    def effective_bandwidth(self) -> float:
        """Bandwidth currently deliverable, after any degradation."""
        return self.bandwidth * self._degradation

    def transfer_time(self, nbytes: float) -> float:
        """Seconds to move ``nbytes`` across the link."""
        if nbytes < 0:
            raise HardwareError(f"transfer size must be non-negative, got {nbytes}")
        if nbytes == 0:
            return 0.0
        return self.latency_s + nbytes / self.effective_bandwidth

    def transfer(self, nbytes: float) -> float:
        """Move ``nbytes`` synchronously; advance the clock.

        Returns the elapsed simulated time and updates traffic counters.
        Zero-byte transfers are free (no message is sent).
        """
        elapsed = self.transfer_time(nbytes)
        if elapsed > 0:
            self.clock.advance(elapsed, component=self.component)
        self.bytes_transferred += nbytes
        if nbytes > 0:
            self.transfers += 1
        self._record_traffic(nbytes)
        return elapsed

    def account(self, nbytes: float, count: int = 1) -> None:
        """Record the traffic of ``count`` transfers without advancing time.

        Used by overlapped execution, where the enclosing chunk already
        advanced the clock by max(io, compute) and the link only needs
        its statistics updated, and by a quiet stretch of chunks, which
        advanced it for all of them.  The byte total is the left fold of
        the ``count`` adds, the same bits as one call per transfer.
        """
        if nbytes < 0:
            raise HardwareError(f"transfer size must be non-negative, got {nbytes}")
        self.bytes_transferred = reduce(add, repeat(nbytes, count), self.bytes_transferred)
        if nbytes > 0:
            self.transfers += count
        self._record_traffic(nbytes, count)

    def _record_traffic(self, nbytes: float, count: int = 1) -> None:
        if self.obs.enabled:
            self._bytes_cell.extend(repeat(nbytes, count))
            if nbytes > 0:
                self._transfers_cell.extend(repeat(1.0, count))

    def message(self) -> float:
        """Send a minimal control message (doorbell, status update)."""
        self.clock.advance(self.latency_s, component=self.component)
        self.message_many(1)
        return self.latency_s

    def message_many(self, count: int) -> None:
        """The bookkeeping of ``count`` :meth:`message` calls.

        The caller advances the clock by their latencies.
        """
        self.transfers += count
        if self.obs.enabled:
            self._messages_cell.extend(repeat(1.0, count))

    def reset_stats(self) -> None:
        self.bytes_transferred = 0.0
        self.transfers = 0

    def __repr__(self) -> str:
        return f"Link(name={self.name!r}, bandwidth={self.bandwidth:.3g} B/s)"
