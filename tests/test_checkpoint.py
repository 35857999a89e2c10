"""Crash-consistent line-boundary checkpointing.

Covers the record codec, the torn-write/CRC/double-buffer protocol in
isolation, and the executor-level guarantee: a torn checkpoint write
never corrupts a resume, and checkpointing off the happy path costs
exactly nothing.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.errors import CheckpointError
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.hw.topology import build_machine
from repro.runtime.activepy import ActivePy, RunOptions
from repro.runtime.checkpoint import (
    CheckpointManager,
    CheckpointRecord,
    decode_record,
    encode_record,
    tear_offset,
)
from repro.storage.bar import CHECKPOINT_SLOT_BYTES

from .conftest import make_toy_dataset, make_toy_program


def _record(generation=0, line_index=1, next_chunk=5,
            live_vars=("x", "acc"), sim_time=1.25):
    return CheckpointRecord(
        generation=generation, line_index=line_index, next_chunk=next_chunk,
        live_vars=live_vars, sim_time=sim_time,
    )


class TestRecordCodec:
    def test_roundtrip(self):
        record = _record()
        assert decode_record(encode_record(record)) == record

    def test_roundtrip_no_live_vars(self):
        record = _record(live_vars=())
        assert decode_record(encode_record(record)) == record

    def test_fits_slot(self):
        blob = encode_record(_record(live_vars=tuple(f"var_{i}" for i in range(64))))
        assert len(blob) <= CHECKPOINT_SLOT_BYTES

    def test_crc_rejects_any_corrupted_byte(self):
        blob = bytearray(encode_record(_record()))
        for offset in range(len(blob)):
            corrupt = bytes(blob[:offset]) + bytes([blob[offset] ^ 0x01]) + bytes(blob[offset + 1:])
            assert decode_record(corrupt) is None, f"flip at byte {offset} accepted"

    def test_validation_off_trusts_scrambled_tail(self):
        record = _record(next_chunk=5)
        blob = encode_record(record)
        tear = tear_offset(record)
        torn = blob[:tear] + bytes(b ^ 0xA5 for b in blob[tear:])
        assert decode_record(torn) is None  # CRC catches it...
        trusted = decode_record(torn, validate=False)  # ...unless told not to
        assert trusted is not None
        assert trusted.line_index == record.line_index  # head survived
        assert trusted.next_chunk != record.next_chunk  # cursor did not

    def test_decode_rejects_garbage(self):
        assert decode_record(None) is None
        assert decode_record(b"") is None
        assert decode_record(b"\x00" * 40) is None


class TestCheckpointArea:
    def test_torn_write_scrambles_only_the_tail(self, machine):
        area = machine.csd.checkpoints
        payload = bytes(range(64))
        area.arm_torn_write(1)
        assert area.write(0, payload, tear_offset=16) is False
        stored = area.read(0)
        assert stored[:16] == payload[:16]
        assert stored[16:] == bytes(b ^ 0xA5 for b in payload[16:])
        # the fault is consumed: the next write is clean
        assert area.write(1, payload, tear_offset=16) is True
        assert area.read(1) == payload

    def test_area_survives_cse_reset(self, machine):
        area = machine.csd.checkpoints
        area.write(0, b"record", tear_offset=0)
        machine.csd.crash_cse()
        machine.csd.reset_cse()
        assert area.read(0) == b"record"


class TestCheckpointManager:
    def _manager(self, machine, **overrides):
        config = dataclasses.replace(machine.config, **overrides)
        return CheckpointManager(device=machine.csd, config=config)

    def test_restore_picks_newest_generation(self, machine):
        manager = self._manager(machine)
        manager.save(2, 3, ("x",), machine.now)
        manager.save(2, 4, ("x",), machine.now)
        record = manager.restore()
        assert (record.line_index, record.next_chunk) == (2, 4)

    def test_torn_newest_falls_back_to_previous_generation(self, machine):
        manager = self._manager(machine)
        manager.save(2, 3, ("x",), machine.now)
        machine.csd.checkpoints.arm_torn_write(1)
        manager.save(2, 4, ("x",), machine.now)
        assert manager.resume_chunk(2, chunks=16, fallback=99) == 3
        assert manager.fallbacks == 1

    def test_both_slots_torn_restarts_the_line(self, machine):
        manager = self._manager(machine)
        machine.csd.checkpoints.arm_torn_write(2)
        manager.save(2, 3, ("x",), machine.now)
        manager.save(2, 4, ("x",), machine.now)
        assert manager.resume_chunk(2, chunks=16, fallback=99) == 0
        assert manager.restarts == 1

    def test_record_for_other_line_restarts(self, machine):
        manager = self._manager(machine)
        manager.save(1, 7, ("x",), machine.now)
        assert manager.resume_chunk(2, chunks=16, fallback=99) == 0

    def test_cursor_clamped_to_chunk_count(self, machine):
        manager = self._manager(machine)
        manager.save(2, 500, ("x",), machine.now)
        assert manager.resume_chunk(2, chunks=16, fallback=0) == 16

    def test_disabled_trusts_fallback_and_writes_nothing(self, machine):
        manager = self._manager(machine, checkpoint_enabled=False)
        manager.save(2, 3, ("x",), machine.now)
        assert machine.csd.checkpoints.writes == 0
        assert manager.resume_chunk(2, chunks=16, fallback=7) == 7

    def test_single_buffer_mode_overwrites_in_place(self, machine):
        manager = self._manager(machine, checkpoint_double_buffer=False)
        manager.save(2, 3, ("x",), machine.now)
        manager.save(2, 4, ("x",), machine.now)
        assert machine.csd.checkpoints.read(1) is None

    def test_write_cost_charges_sim_time(self, machine):
        manager = self._manager(machine, checkpoint_write_cost_s=0.5)
        before = machine.now
        manager.save(0, 1, (), machine.now)
        assert machine.now == pytest.approx(before + 0.5)

    def test_default_write_cost_is_free(self, machine):
        manager = self._manager(machine)
        before = machine.now
        manager.save(0, 1, (), machine.now)
        assert machine.now == before


#: Names at the codec's edges: empty, non-ASCII, exactly 255 bytes.
_EDGE_NAMES = ("", "é", "名前", "x" * 255, "é" * 127 + "x", "名" * 85)
_NAMES = st.lists(
    st.one_of(
        st.sampled_from(_EDGE_NAMES),
        st.text(max_size=40).filter(lambda name: len(name.encode("utf-8")) <= 0xFF),
    ),
    max_size=6,
).map(tuple)


@given(
    saves=st.lists(
        st.tuples(
            st.integers(0, 2 ** 32),                        # line index
            st.integers(0, 2 ** 32),                        # next chunk
            _NAMES,
            st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
        ),
        min_size=1, max_size=6,
    ),
    repeat=st.booleans(),
)
@settings(max_examples=100, deadline=None, print_blob=True)
def test_save_writes_exactly_the_encoded_record(saves, repeat):
    """Every ``save`` lands ``encode_record`` of its record in the slot
    the generation picks, and the slot decodes back to that record; a
    repeated live-variable tuple (the encoder's cached case) too."""
    machine = build_machine(SystemConfig())
    manager = CheckpointManager(device=machine.csd, config=machine.config)
    area = machine.csd.checkpoints
    if repeat:
        saves = saves + saves
    for line_index, next_chunk, live_vars, sim_time in saves:
        generation = area.next_generation
        manager.save(line_index, next_chunk, live_vars, sim_time)
        record = CheckpointRecord(
            generation=generation, line_index=line_index, next_chunk=next_chunk,
            live_vars=live_vars, sim_time=sim_time,
        )
        blob = area.read(generation % 2)
        assert blob == encode_record(record)
        assert decode_record(blob) == record
    assert manager.saves == len(saves)


@given(
    events=st.lists(
        st.one_of(
            st.tuples(
                st.just("save"),
                st.integers(0, 2 ** 32),                    # line index
                st.integers(0, 2 ** 32),                    # next chunk
                _NAMES,
                st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
            ),
            st.tuples(st.just("tear"), st.integers(1, 3)),
            st.tuples(st.just("rot"), st.integers(1, 2)),
            st.tuples(st.just("read"), st.sampled_from([0, 1])),
        ),
        min_size=1, max_size=12,
    ),
)
@settings(max_examples=150, deadline=None, print_blob=True)
def test_slot_bytes_follow_encode_record_through_tears_and_bitrot(events):
    """Whenever a slot is read — straight after a save or much later,
    after a torn write or bitrot — it holds what an area that stored
    ``encode_record``'s bytes eagerly would hold."""
    from repro.storage.bar import _BITROT_SCRAMBLE, _BITROT_TAIL_BYTES, _TORN_SCRAMBLE

    machine = build_machine(SystemConfig())
    manager = CheckpointManager(device=machine.csd, config=machine.config)
    area = machine.csd.checkpoints
    expected = [None, None]
    torn_armed = 0
    for event in events:
        kind = event[0]
        if kind == "save":
            _, line_index, next_chunk, live_vars, sim_time = event
            record = CheckpointRecord(
                generation=area.next_generation, line_index=line_index,
                next_chunk=next_chunk, live_vars=live_vars, sim_time=sim_time,
            )
            blob = encode_record(record)
            if torn_armed:
                torn_armed -= 1
                tear = tear_offset(record)
                blob = blob[:tear] + bytes(b ^ _TORN_SCRAMBLE for b in blob[tear:])
            expected[record.generation % 2] = blob
            manager.save(line_index, next_chunk, live_vars, sim_time)
        elif kind == "tear":
            area.arm_torn_write(event[1])
            torn_armed += event[1]
        elif kind == "rot":
            newest = (area.next_generation - 1) % 2
            rotted = 0
            for slot in (newest, 1 - newest):
                if rotted < event[1] and expected[slot]:
                    blob = expected[slot]
                    keep = max(0, len(blob) - _BITROT_TAIL_BYTES)
                    expected[slot] = blob[:keep] + bytes(
                        b ^ _BITROT_SCRAMBLE for b in blob[keep:]
                    )
                    rotted += 1
            assert area.rot_committed(event[1]) == rotted
        else:
            assert area.read(event[1]) == expected[event[1]]
    assert [area.read(0), area.read(1)] == expected
    assert area.writes == manager.saves == sum(1 for event in events if event[0] == "save")


class TestSaveRejectsBadRecords:
    """Each ``CheckpointError`` check fires on every call, cached or not."""

    @pytest.mark.parametrize("live_vars, message", [
        (("ok", "x" * 256), "name too long"),
        (("é" * 128,), "name too long"),
        (("v",) * 0x10000, "too many live variables"),
    ], ids=["256-byte-name", "256-byte-non-ascii-name", "65536-names"])
    def test_bad_names_raise_on_every_call(self, machine, live_vars, message):
        manager = CheckpointManager(device=machine.csd, config=machine.config)
        area = machine.csd.checkpoints
        for _ in range(3):
            with pytest.raises(CheckpointError, match=message):
                manager.save(0, 1, live_vars, 0.0)
            # A good save in between must not make the bad tuple pass.
            manager.save(0, 1, ("ok",), 0.0)
        assert manager.saves == area.next_generation == 3

    @pytest.mark.parametrize("line_index, next_chunk", [
        (-1, 0), (2 ** 64, 0), (0, 2 ** 64),
    ], ids=["negative-line", "line-over-64-bits", "cursor-over-64-bits"])
    def test_out_of_range_fields_raise_on_every_call(
        self, machine, line_index, next_chunk
    ):
        # The record image is packed only when read, so a field that
        # cannot be packed must be refused at save, not at the read.
        manager = CheckpointManager(device=machine.csd, config=machine.config)
        for _ in range(3):
            with pytest.raises(CheckpointError, match="64 bits"):
                manager.save(line_index, next_chunk, ("x",), 0.0)
            with pytest.raises(CheckpointError, match="64 bits"):
                encode_record(_record(line_index=line_index, next_chunk=next_chunk))
        assert manager.saves == machine.csd.checkpoints.writes == 0

    @pytest.mark.parametrize("line_index, next_chunk, generation", [
        (0, -1, 0), (0, 0, -1),
    ], ids=["negative-cursor", "negative-generation"])
    def test_negative_counters_raise_on_every_call(
        self, machine, line_index, next_chunk, generation
    ):
        manager = CheckpointManager(device=machine.csd, config=machine.config)
        machine.csd.checkpoints.next_generation = generation
        for _ in range(3):
            with pytest.raises(CheckpointError, match="non-negative"):
                manager.save(line_index, next_chunk, ("x",), 0.0)
            with pytest.raises(CheckpointError, match="non-negative"):
                encode_record(_record(
                    generation=generation, next_chunk=next_chunk, live_vars=("x",),
                ))
        assert manager.saves == 0


def _run_toy(config: SystemConfig, fault_plan=None):
    machine = build_machine(config)
    return ActivePy(config).run(
        make_toy_program(), make_toy_dataset(), machine=machine,
        options=RunOptions(fault_plan=fault_plan),
    )


class TestExecutorIntegration:
    def test_fault_free_run_checkpoints_every_chunk(self, config):
        report = _run_toy(config)
        stats = report.result.checkpoint_stats
        # one entry record per CSD line plus one per completed chunk
        assert stats["saves"] > 0
        assert stats["restores"] == 0
        assert stats["torn_writes"] == 0

    def test_disabled_checkpointing_is_timing_identical(self, config):
        enabled = _run_toy(config)
        disabled = _run_toy(
            dataclasses.replace(config, checkpoint_enabled=False)
        )
        assert disabled.total_seconds == enabled.total_seconds
        assert disabled.result.checkpoint_stats["saves"] == 0

    def test_frontend_live_vars_reach_the_record(self, machine):
        """Tracer-built programs carry liveness into the record."""
        from repro.frontend import program_from_function

        def pipeline(x):
            doubled = x * 2.0
            total = doubled + 1.0
            return total

        program = program_from_function(pipeline, record_bytes=8.0)
        assert any(statement.live_vars for statement in program)
        manager = CheckpointManager(device=machine.csd, config=machine.config)
        manager.save(0, 1, program[0].live_vars, machine.now)
        record = manager.restore()
        assert record.live_vars == program[0].live_vars

    @staticmethod
    def _torn_then_crash_plan(baseline):
        """Tear checkpoints a few chunks before a permanent crash, both
        inside the first CSD line's execution window."""
        line0 = baseline.result.line_timings[0]
        start = baseline.result.started_at
        return FaultPlan(specs=(
            FaultSpec(kind=FaultKind.CHECKPOINT_TORN_WRITE,
                      at_time=start + 0.3 * line0.seconds, count=500),
            FaultSpec(kind=FaultKind.CSE_CRASH,
                      at_time=start + 0.5 * line0.seconds, duration_s=0.0),
        ))

    def test_torn_write_with_crash_never_corrupts_resume(self, config):
        """The tentpole guarantee, end to end.

        Tear every checkpoint write from mid-line on, then kill the CSE
        for good: the executor must fall back to the host at a resume
        point that replays work (never skips it), because CRC
        validation rejects the torn record and the double buffer serves
        the previous generation.
        """
        baseline = _run_toy(config)
        report = _run_toy(config, fault_plan=self._torn_then_crash_plan(baseline))
        result = report.result
        assert result.degraded
        assert result.checkpoint_stats["torn_writes"] > 0
        for index, statement in enumerate(make_toy_program()):
            assert result.chunks_executed[index] >= statement.chunks

    def test_validation_off_lets_the_torn_cursor_skip_work(self, config):
        """The deliberately planted bug is a real bug.

        Same scenario as above with CRC validation off: the executor
        trusts the torn record's scrambled cursor and skips chunks —
        the violation the chaos campaign exists to catch.
        """
        bugged = dataclasses.replace(config, checkpoint_validate=False)
        baseline = _run_toy(bugged)
        report = _run_toy(bugged, fault_plan=self._torn_then_crash_plan(baseline))
        result = report.result
        skipped = [
            index for index, statement in enumerate(make_toy_program())
            if result.chunks_executed[index] < statement.chunks
        ]
        assert skipped, "expected the unvalidated torn cursor to skip work"
