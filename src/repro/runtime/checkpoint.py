"""Crash-consistent line-boundary checkpointing (paper §III-D, hardened).

The paper's runtime resumes a migrated task "at a Python-line boundary
from shared memory".  PR 1 gave the stack faults that can strike *while
that shared state is being written* — a CSE crash or power event
mid-DMA leaves a torn record behind.  This module makes the resume
point crash-consistent:

* every chunk (dynamic line-instance) boundary writes a **versioned,
  CRC-protected record** — line index, chunk cursor, the line's
  live-variable names per :mod:`repro.frontend.liveness`, and the
  simulated timestamp — into the device's BAR checkpoint area
  (:class:`repro.storage.bar.CheckpointArea`);
* writes **alternate between two slots**, so a torn write can only
  corrupt the generation being written, never the last committed one;
* restore validates the CRC and falls back to the surviving
  generation; if neither slot holds a valid record for the current
  line, the runtime restarts the line from chunk 0 — slow, never
  wrong.

Record layout (big-endian)::

    MAGIC(4) gen(8) line(8) sim_time(8) nvars(2) names... cursor(8) crc(4)

The chunk cursor deliberately sits *after* the variable names: a torn
write lands the head of the record and scrambles the tail, so the field
a corrupt resume would trust blindly is exactly the field the tear
destroys — which is what the chaos harness's planted-bug campaign
(``checkpoint_validate=False``) demonstrates.
"""

from __future__ import annotations

import functools
import struct
import zlib
from dataclasses import dataclass
from itertools import repeat
from typing import Optional, Sequence, Tuple

from ..errors import CheckpointError
from ..faults import FaultLog
from ..integrity import IntegrityChecker

_MAGIC = b"ACK1"
_HEAD = struct.Struct("!4sQQdH")  # magic, generation, line_index, sim_time, nvars
_TAIL = struct.Struct("!Q")       # next_chunk cursor
_CRC = struct.Struct("!I")

#: Largest value of a record's 64-bit fields.
_U64 = 0xFFFFFFFFFFFFFFFF

#: Sentinel line index for "no line executing" records.
NO_LINE = _U64


@dataclass(frozen=True)
class CheckpointRecord:
    """One committed resume point."""

    generation: int
    line_index: int
    #: Next chunk to execute — everything before it is durable.
    next_chunk: int
    #: Live-variable names whose values the record covers (the locals
    #: a migration must make reachable from the host).
    live_vars: Tuple[str, ...]
    sim_time: float


@functools.lru_cache(maxsize=1024)
def _names_layout(live_vars: Tuple[str, ...]) -> Tuple[struct.Struct, bytes]:
    """The record packer for ``live_vars`` and their encoded names.

    Within a line only the generation, timestamp and cursor change, so
    the names are encoded once per live-variable tuple.  A bad tuple
    raises on every call: exceptions are never cached.
    """
    blobs = [name.encode("utf-8") for name in live_vars]
    if len(blobs) > 0xFFFF:
        raise CheckpointError(f"too many live variables ({len(blobs)})")
    parts = []
    for blob in blobs:
        if len(blob) > 0xFF:
            raise CheckpointError(f"live-variable name too long ({len(blob)} bytes)")
        parts.append(bytes((len(blob),)))
        parts.append(blob)
    names = b"".join(parts)
    # Head, the length-prefixed names, then the cursor: one pack call.
    return struct.Struct(f"{_HEAD.format}{len(names)}s{_TAIL.format[1:]}"), names


def _check_counters(generation: int, line_index: int, next_chunk: int) -> None:
    if generation < 0 or next_chunk < 0:
        raise CheckpointError("generation and next_chunk must be non-negative")
    if not (0 <= line_index <= _U64 and generation <= _U64 and next_chunk <= _U64):
        raise CheckpointError("line index, generation and cursor must fit in 64 bits")


def _pack(
    body: struct.Struct,
    generation: int,
    line_index: int,
    next_chunk: int,
    live_vars: Tuple[str, ...],
    names: bytes,
    sim_time: float,
) -> bytes:
    """The record image of checked fields; the CRC covers every prior byte."""
    payload = body.pack(
        _MAGIC, generation, line_index, sim_time, len(live_vars), names, next_chunk,
    )
    return payload + _CRC.pack(zlib.crc32(payload))


def encode_record(record: CheckpointRecord) -> bytes:
    """Serialize a record; the trailing CRC covers every prior byte."""
    _check_counters(record.generation, record.line_index, record.next_chunk)
    live_vars = tuple(record.live_vars)
    body, names = _names_layout(live_vars)
    return _pack(
        body, record.generation, record.line_index, record.next_chunk,
        live_vars, names, record.sim_time,
    )


def tear_offset(record: CheckpointRecord) -> int:
    """Bytes of the encoded record a torn write still lands.

    The head — magic, generation, line index, timestamp and names —
    makes it to DRAM; the chunk cursor and CRC do not.
    """
    return _HEAD.size + len(_names_layout(tuple(record.live_vars))[1])


def decode_record(blob: Optional[bytes], validate: bool = True) -> Optional[CheckpointRecord]:
    """Parse a slot image; returns None for anything untrustworthy.

    With ``validate`` (the protocol default) a CRC mismatch rejects the
    record.  Without it — the deliberately plantable bug — a
    structurally parseable record is trusted verbatim, scrambled chunk
    cursor and all.
    """
    if blob is None or len(blob) < _HEAD.size + _TAIL.size + _CRC.size:
        return None
    if validate:
        payload, crc_bytes = blob[:-_CRC.size], blob[-_CRC.size:]
        if zlib.crc32(payload) != _CRC.unpack(crc_bytes)[0]:
            return None
    try:
        magic, generation, line_index, sim_time, nvars = _HEAD.unpack_from(blob, 0)
        if magic != _MAGIC:
            return None
        offset = _HEAD.size
        names = []
        for _ in range(nvars):
            (length,) = struct.unpack_from("!B", blob, offset)
            offset += 1
            names.append(blob[offset:offset + length].decode("utf-8"))
            offset += length
        (next_chunk,) = _TAIL.unpack_from(blob, offset)
    except (struct.error, UnicodeDecodeError, IndexError):
        return None
    return CheckpointRecord(
        generation=generation,
        line_index=line_index,
        next_chunk=next_chunk,
        live_vars=tuple(names),
        sim_time=sim_time,
    )


class CheckpointManager:
    """Host/device protocol driver over one device's checkpoint area.

    The executor calls :meth:`save` at every completed chunk boundary
    and :meth:`resume_chunk` whenever it must decide where a line
    resumes after a migration or a device fault.  All decisions that
    matter for crash consistency — slot choice, CRC validation,
    generation comparison, fallback — live here, so the executor treats
    the resume point as a black box read from shared memory, exactly as
    the real runtime would.
    """

    def __init__(self, device, config, fault_log: Optional[FaultLog] = None) -> None:
        self.device = device
        self.config = config
        self.area = device.checkpoints
        self.fault_log = fault_log if fault_log is not None else FaultLog()
        self.obs = device.obs
        self._saves_cell = self.obs.counter_cell("checkpoint.saves")
        self._write_seconds_cell = self.obs.counter_cell("checkpoint.write_seconds")
        # Record-level digest checks on the read side (silent bitrot in
        # BAR memory is caught here; free and silent when disabled).
        self.integrity = IntegrityChecker(
            config=config,
            clock=device.simulator.clock,
            fault_log=self.fault_log,
            obs=self.obs,
        )
        #: The last live-variable tuple saved and its record layout.
        self._live_vars: Tuple[str, ...] = ()
        self._names: Tuple[struct.Struct, bytes] = _names_layout(())
        self.saves = 0
        self.restores = 0
        #: Restores served by the older generation (torn newest slot).
        self.fallbacks = 0
        #: Restores with no usable record at all (line restarted).
        self.restarts = 0

    @property
    def enabled(self) -> bool:
        return bool(self.config.checkpoint_enabled)

    # --- write side --------------------------------------------------------

    def save(
        self,
        line_index: int,
        next_chunk: int,
        live_vars: Sequence[str],
        sim_time: float,
    ) -> None:
        """Commit a resume point for ``line_index`` at ``next_chunk``."""
        config = self.config
        if not config.checkpoint_enabled:
            return
        clean = self.save_many(line_index, next_chunk, live_vars, (sim_time,))
        cost = config.checkpoint_write_cost_s
        if cost > 0:
            self.device.simulator.clock.advance(cost, component="checkpoint")
        if not clean:
            self.obs.count("checkpoint.torn_writes")
            # Accounting only: the host has no idea yet — it will find
            # out through the CRC when (if) it ever restores.
            self.fault_log.record(
                self.device.simulator.now, "checkpoint-torn-write",
                self.device.name, "torn",
                f"record gen {self.area.next_generation - 1} (line {line_index}, "
                f"cursor {next_chunk}) torn mid-write",
            )

    def save_many(
        self,
        line_index: int,
        first_chunk: int,
        live_vars: Sequence[str],
        sim_times: Sequence[float],
    ) -> bool:
        """:meth:`save` at cursors ``first_chunk, first_chunk + 1, ...``,
        one per entry of ``sim_times``, without the clock advances or
        the torn-write record.

        Returns False when the last write tore.  A quiet stretch of
        chunks calls this directly: it advances the clock by the write
        costs and has checked that no torn write is armed.  The slots
        alternate, so only the last two images can ever be read: the
        earlier saves advance the generation and the counters, and
        write nothing.
        """
        config = self.config
        if not config.checkpoint_enabled:
            return True
        count = len(sim_times)
        skipped = max(0, count - 2)
        if skipped:
            area = self.area
            area.next_generation += skipped
            area.writes += skipped
            self.saves += skipped
        clean = True
        for offset in range(skipped, count):
            clean = self._commit(line_index, first_chunk + offset, live_vars, sim_times[offset])
        if self.obs.enabled:
            self._saves_cell.extend(repeat(1.0, count))
            self._write_seconds_cell.extend(repeat(config.checkpoint_write_cost_s, count))
        return clean

    def _commit(
        self,
        line_index: int,
        next_chunk: int,
        live_vars: Sequence[str],
        sim_time: float,
    ) -> bool:
        """Write the next generation's record; False when the write tore."""
        area = self.area
        generation = area.next_generation
        slot = generation % 2 if self.config.checkpoint_double_buffer else 0
        _check_counters(generation, line_index, next_chunk)
        if live_vars is not self._live_vars:
            # The executor passes one tuple per line: look its layout up
            # once.  A bad tuple is never remembered, so it raises on
            # every call.
            live_vars = tuple(live_vars)
            self._names = _names_layout(live_vars)
            self._live_vars = live_vars
        body, names = self._names
        size = body.size + _CRC.size
        # Write-behind: the image is packed only if something reads it.
        # ``tear_offset`` is all but cursor and CRC.
        clean = area.write_deferred(
            slot,
            lambda: _pack(
                body, generation, line_index, next_chunk, live_vars, names, sim_time
            ),
            size, size - _TAIL.size - _CRC.size,
        )
        area.next_generation = generation + 1
        self.saves += 1
        return clean

    # --- read side ---------------------------------------------------------

    def restore(self) -> Optional[CheckpointRecord]:
        """The newest trustworthy record in the area, if any."""
        validate = bool(self.config.checkpoint_validate)
        records = []
        for slot in (0, 1):
            blob = self.area.read(slot)
            record = decode_record(blob, validate=validate)
            if blob is not None and self.integrity.enabled:
                self.integrity.charge_verify(len(blob))
                if record is None and validate:
                    # The slot holds bytes that no longer match their
                    # CRC — a torn write or post-commit bitrot, caught
                    # at the consumption point.
                    self.integrity.record_detected(
                        self.device.name,
                        f"checkpoint slot {slot} failed CRC validation",
                    )
            records.append(record)
        live = [record for record in records if record is not None]
        if not live:
            return None
        return max(live, key=lambda record: record.generation)

    def resume_chunk(self, line_index: int, chunks: int, fallback: int) -> int:
        """Where ``line_index`` resumes after a fault or migration.

        With checkpointing disabled the host-side chunk counter
        (``fallback``) is trusted, as before this protocol existed.
        Otherwise the answer comes from shared memory: the newest valid
        record for this line, the surviving older generation if the
        newest write was torn, or chunk 0 (restart the line) when
        nothing valid covers it.  The cursor is clamped to the line's
        chunk count — a resume point can never *skip* work unless
        validation has been deliberately turned off.
        """
        if not self.enabled:
            return fallback
        self.restores += 1
        self.obs.count("checkpoint.restores")
        record = self.restore()
        # After restore(): slot verification may have advanced the
        # clock, and the restore decision is logged at decision time.
        now = self.device.simulator.now
        if record is None or record.line_index != line_index:
            self.restarts += 1
            self.obs.count("checkpoint.restarts")
            self.fault_log.record(
                now, "checkpoint-restore", self.device.name, "restart-line",
                f"no valid checkpoint for line {line_index}; "
                f"restarting at chunk 0",
            )
            return 0
        cursor = min(int(record.next_chunk), int(chunks))
        if record.generation + 1 < self.area.next_generation:
            # The newest write never became restorable: we are resuming
            # from the previous committed generation.
            self.fallbacks += 1
            self.obs.count("checkpoint.fallbacks")
            self.fault_log.record(
                now, "checkpoint-restore", self.device.name,
                "fallback-generation",
                f"gen {self.area.next_generation - 1} unreadable; resumed "
                f"line {line_index} at chunk {cursor} from gen "
                f"{record.generation}",
            )
        return cursor

    def stats(self) -> dict:
        return {
            "saves": self.saves,
            "restores": self.restores,
            "fallbacks": self.fallbacks,
            "restarts": self.restarts,
            "torn_writes": self.area.torn_writes,
            "bitrot_events": self.area.bitrot_events,
        }
