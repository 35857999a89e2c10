"""End-to-end data integrity: checksummed data paths (`repro.integrity`).

Every fault the harness injected before this module was *loud* — a
failed completion, a crash, a torn checkpoint.  The defining risk of
in-storage processing is the *silent* kind: once compute moves into the
device, the host never sees the raw bytes, so a flipped NAND bit or a
payload garbled crossing the PCIe link flows straight into reported
results.  The integrity layer closes that gap with end-to-end content
digests: computed where data is produced (NAND streams, CSE chunk
outputs, checkpoint records, transfer payloads) and verified where it
is consumed (executor result assembly, BAR readback, checkpoint
restore).

Because the simulator moves *costs* rather than payload bytes, a
corruption is modelled as armed taint state on the producing hardware
(:meth:`~repro.storage.nand.FlashArray.arm_silent_corruption`,
:meth:`~repro.hw.interconnect.Link.arm_transfer_corruption`,
:meth:`~repro.storage.bar.CheckpointArea.rot_committed`) and the
"digest check" is the consumer asking the hardware whether the bytes it
just ingested were tainted.  Three rules keep the model honest:

* **Verification costs simulated time.**  Every protected byte is
  charged ``1 / integrity_verify_bandwidth`` seconds against the
  ``integrity`` attribution component, so protection is a
  planner-visible tradeoff, not a free oracle.
* **Detection feeds the existing recovery paths.**  A mismatch raises
  :class:`~repro.errors.IntegrityError` — a ``FaultError`` — so the
  executor's chunk replay and host fallback machinery handles it, and
  an ``integrity-detected`` :class:`~repro.faults.FaultEvent` plus an
  ``integrity.detected`` metric record that the corruption was caught
  *before* the report (the chaos invariant
  ``corruption-detected-before-report`` audits exactly this).
* **Disabled means free.**  With ``integrity_enabled=False`` (the
  default) the layer charges zero simulated seconds and emits zero
  metrics; only the report's :meth:`digest` ledger — pure accounting,
  like ``chunks_executed`` — still tracks ground truth so the harness
  can prove that unprotected corruption really does reach the report.
"""

from __future__ import annotations

import zlib
from functools import reduce
from itertools import repeat
from operator import add
from typing import Dict, Optional

from .config import SystemConfig
from .errors import IntegrityError
from .faults.log import FaultLog

__all__ = ["CLEAN_DIGEST", "IntegrityChecker", "IntegrityError"]

#: Digest of an uncorrupted run: the CRC32 of the empty taint ledger.
#: Identical for every program, which is what lets a faulted-but-
#: recovered run match its fault-free baseline bit-for-bit.
CLEAN_DIGEST = format(zlib.crc32(b""), "08x")

#: The counter every digest check adds its bytes to.
VERIFIED_BYTES = "integrity.verified_bytes"


class IntegrityChecker:
    """Per-execution digest ledger and verifier cost model.

    One instance rides along with each
    :class:`~repro.runtime.executor.PlanExecutor`.  The executor reports
    every data ingestion (chunk inputs streamed from NAND, payloads
    crossing links, the final result readback) and the checker:

    * charges the simulated verify cost when the layer is enabled,
    * raises :class:`IntegrityError` on a detected mismatch (device
      chunks) or reports it for inline re-read (host-side transfers),
    * keeps the taint ledger from which :meth:`digest` derives the
      report's ``output_digest`` — the content signature the chaos
      harness compares against the fault-free baseline.

    The ledger is *last-writer-wins* per logical unit: a chunk replayed
    after detection overwrites its tainted entry with a clean one, so a
    fully recovered run ends with an empty ledger and
    :data:`CLEAN_DIGEST`.
    """

    def __init__(
        self,
        config: SystemConfig,
        clock,
        fault_log: Optional[FaultLog] = None,
        obs=None,
    ) -> None:
        self.config = config
        self.clock = clock
        self.fault_log = fault_log if fault_log is not None else FaultLog()
        self.obs = obs
        # The handle's one cell for this name: the executor's checker,
        # the checkpoint manager's and migration all append to it.
        self._verified_cell = (
            obs.counter_cell(VERIFIED_BYTES) if obs is not None else None
        )
        self.enabled = bool(config.integrity_enabled)
        self.verify = bool(config.integrity_verify)
        self.detected = 0
        self.missed = 0
        self.verified_bytes = 0.0
        self.verify_seconds = 0.0
        #: Taint ledger: logical-unit key -> True while its last
        #: execution ingested corrupted bytes.  Clean entries are
        #: removed, so migrations and fallbacks (which change *which*
        #: transfers happen) never perturb the digest.
        self._tainted: Dict[str, bool] = {}

    # --- cost model --------------------------------------------------------

    def charge_verify(self, nbytes: float) -> float:
        """Charge the simulated cost of digest-checking ``nbytes``.

        Returns the seconds charged.  A no-op (exactly zero simulated
        and metric overhead) when the layer is disabled.
        """
        seconds = self.verify_cost(nbytes)
        if seconds is None:
            return 0.0
        self.clock.advance(seconds, component="integrity")
        self.charge_verify_many(nbytes, 1)
        return seconds

    def verify_cost(self, nbytes: float) -> Optional[float]:
        """The seconds :meth:`charge_verify` charges for ``nbytes``.

        None when it charges nothing: the layer is disabled or there
        are no bytes.
        """
        if not self.enabled or nbytes <= 0:
            return None
        return nbytes / self.config.integrity_verify_bandwidth

    def charge_verify_many(self, nbytes: float, count: int) -> None:
        """The bookkeeping of ``count`` :meth:`charge_verify` calls.

        The caller advances the clock by their seconds; each float
        total is the left fold of its adds, as ``count`` calls make it.
        """
        seconds = self.verify_cost(nbytes)
        if seconds is None:
            return
        self.verified_bytes = reduce(add, repeat(nbytes, count), self.verified_bytes)
        self.verify_seconds = reduce(add, repeat(seconds, count), self.verify_seconds)
        if self.obs is not None and self.obs.enabled:
            self._verified_cell.extend(repeat(nbytes, count))

    # --- detection bookkeeping --------------------------------------------

    def record_detected(self, target: str, detail: str) -> None:
        """A verifier caught corrupted bytes before they were consumed."""
        self.detected += 1
        self.fault_log.record(
            self.clock.now, "integrity", target, "integrity-detected", detail
        )
        if self.obs is not None and self.obs.enabled:
            self.obs.metrics.counter("integrity.detected").inc()

    def record_missed(self, target: str, detail: str) -> None:
        """Ground-truth accounting: corruption flowed past unverified.

        The runtime cannot know this happened — only the simulator can
        — so nothing is logged to the fault log the runtime reacts to;
        the metric and counter exist for the harness and benches.
        """
        self.missed += 1
        if self.obs is not None and self.obs.enabled:
            self.obs.metrics.counter("integrity.missed").inc()

    def raise_mismatch(self, target: str, detail: str) -> None:
        """Record a detection and raise for the recovery machinery."""
        self.record_detected(target, detail)
        raise IntegrityError(f"checksum mismatch at {target}: {detail}")

    # --- taint ledger ------------------------------------------------------

    def record_unit(self, key: str, tainted: bool) -> None:
        """Record the outcome of a logical unit's latest execution."""
        if tainted:
            self._tainted[key] = True
            self.record_missed(key, "corrupted bytes reached the consumer")
        else:
            self._tainted.pop(key, None)

    @property
    def has_tainted_units(self) -> bool:
        """True while the ledger holds a tainted unit.

        With an empty ledger a clean unit changes nothing, so callers
        may skip :meth:`record_unit` (and building its key) for it.
        """
        return bool(self._tainted)

    @property
    def tainted_units(self) -> tuple:
        return tuple(sorted(self._tainted))

    def digest(self) -> str:
        """Content signature of the run's reported output.

        CRC32 over the sorted taint ledger: :data:`CLEAN_DIGEST` iff no
        corrupted bytes survived into the result.
        """
        payload = "\x00".join(self.tainted_units).encode("utf-8")
        return format(zlib.crc32(payload), "08x")

    def stats(self) -> Dict[str, float]:
        """Summary for reports and benches."""
        return {
            "enabled": self.enabled,
            "verify": self.verify,
            "detected": self.detected,
            "missed": self.missed,
            "verified_bytes": self.verified_bytes,
            "verify_seconds": self.verify_seconds,
            "tainted_units": len(self._tainted),
        }
