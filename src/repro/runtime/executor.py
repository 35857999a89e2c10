"""Plan execution on the simulated machine.

The executor is the simulator-side counterpart of the ActivePy runtime:
it charges *ground-truth* costs (instruction counts, byte volumes) to
the machine — compute on the assigned unit, stored-data streaming over
the appropriate path, inter-unit value transfers over the NVMe link —
while the runtime's decisions (monitoring, re-estimation, migration)
consume only what a real host could observe: status updates carrying
IPC, and the plan's own fitted estimates.

:meth:`PlanExecutor.execute` is a fold of one line stepper,
:meth:`PlanExecutor.step`, over the plan, started by ``begin`` and
closed by ``finish`` (the final readback).  The per-run variables live
in a :class:`RunState`.

Each line executes in ``chunks`` pieces (its dynamic instances).  After
every CSD chunk the device posts a status update, the simulator fires
any due background events (availability changes, tenant bursts), and
the monitor gets a chance to trigger re-estimation and migration.
Migration breaks at a chunk boundary — "the end of the currently
executing line" in the paper's terms — saves locals, regenerates host
code, and finishes the remaining work on the host with live
device-resident data accessed over the remote BAR path.  Every way a
device line can end on the host — a refused dispatch, exhausted chunk
replays, a migration, a lost completion — goes through one helper,
``_fall_back``, which runs the remaining chunks in the single
host-chunk loop.

Most chunks are *quiet*: no event falls due at their
``fire_due_events`` point, no fault is armed, the completion queue is
idle, the taint ledger is empty, no progress trigger is crossed, and
the monitor (if any) reads the full expected rate, so its decision is
the shared steady one.  Such a stretch of chunks adds the same clock
advances and counter increments chunk after chunk, so the device and
host chunk loops charge it at once (``_csd_stretch``,
``_charge_quiet``): :func:`chunk_advances` builds one chunk's advances
from live machine state, one ``itertools.accumulate`` fold sets the
clock (the same floats, in the same order, as one ``advance`` call
each), every counter is a left fold of its adds, every metrics cell is
extended, and only the last two checkpoint saves write their images.
The chunk at each stretch boundary runs through the per-chunk body, so
where a stretch ends shows nowhere (``tests/test_quiet_stretch.py``).
:func:`chunk_advances` is also how the plan search
(:mod:`repro.runtime.plansearch`) prices a step in closed form, so the
charge formula of a chunk lives in one place; ``tests/test_plansearch.py``
holds the closed form to a fresh machine whose chunks all take the
per-chunk body.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import asdict, dataclass, field
from functools import reduce
from itertools import accumulate, chain, islice, repeat
from operator import add, sub, truediv
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import CseCrashError, FaultError, MigrationError, ProgramError
from ..faults import FaultEvent, FaultLog
from ..hw.topology import Machine
from ..integrity import CLEAN_DIGEST, IntegrityChecker
from ..lang.program import Statement
from .checkpoint import CheckpointManager
from .codegen import CompiledProgram
from .dispatch import CallQueueDispatcher, StatusUpdate
from .estimator import LineEstimate
from .migration import MigrationEvent, migration_cost_estimate, perform_migration
from .monitor import RuntimeMonitor
from .planner import CSD, HOST

#: IPC drift lives in [0, 1]; the time-decade default buckets would
#: collapse it into two bins.
_DRIFT_BUCKETS = (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)


@dataclass
class LineTiming:
    """Where one line actually ran and how long it took."""

    index: int
    name: str
    planned_location: str
    actual_location: str
    seconds: float
    migrated_mid_line: bool = False


@dataclass
class ExecutionResult:
    """Outcome of one end-to-end plan execution."""

    program_name: str
    total_seconds: float
    line_timings: List[LineTiming]
    migrations: List[MigrationEvent] = field(default_factory=list)
    started_at: float = 0.0
    finished_at: float = 0.0
    d2h_bytes: float = 0.0
    remote_access_bytes: float = 0.0
    status_updates: int = 0
    #: Every injected fault and recovery action, in sim-time order.
    fault_events: List[FaultEvent] = field(default_factory=list)
    #: True when a fault forced work off its planned unit (the run
    #: still completed, host-side, instead of raising).
    degraded: bool = False
    #: Device chunks replayed after a transient fault.
    chunk_replays: int = 0
    #: Chunks actually executed per line index (device + host, replays
    #: included).  A correct run never executes fewer chunks than a
    #: line has — the chaos harness's work-conservation invariant.
    chunks_executed: Dict[int, int] = field(default_factory=dict)
    #: Line-boundary checkpoint counters (saves/restores/fallbacks/
    #: restarts/torn_writes) from the :class:`CheckpointManager`.
    checkpoint_stats: Dict[str, int] = field(default_factory=dict)
    #: Content signature of the reported output: :data:`CLEAN_DIGEST`
    #: unless silently corrupted bytes survived into the result (the
    #: chaos harness compares this against the fault-free baseline).
    output_digest: str = CLEAN_DIGEST
    #: Integrity-layer counters (detected/missed/verified_bytes/...)
    #: from the :class:`~repro.integrity.IntegrityChecker`.
    integrity_stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def migrated(self) -> bool:
        return bool(self.migrations)

    def seconds_for(self, name: str) -> float:
        for timing in self.line_timings:
            if timing.name == name:
                return timing.seconds
        raise KeyError(f"no line named {name!r}")

    # --- the common report protocol (see analysis/export.py) ---------------

    def summary(self) -> Dict[str, Any]:
        """The headline numbers of the execution, JSON-ready."""
        return {
            "program": self.program_name,
            "total_seconds": self.total_seconds,
            "migrations": len(self.migrations),
            "degraded": self.degraded,
            "chunk_replays": self.chunk_replays,
            "status_updates": self.status_updates,
            "d2h_bytes": self.d2h_bytes,
            "remote_access_bytes": self.remote_access_bytes,
            "output_digest": self.output_digest,
        }

    def to_jsonable(self) -> Dict[str, Any]:
        """Full JSON-ready view of the execution."""
        payload: Dict[str, Any] = {"experiment": "execution-result"}
        payload.update(self.summary())
        payload["line_timings"] = [asdict(t) for t in self.line_timings]
        payload["migration_events"] = [asdict(m) for m in self.migrations]
        payload["fault_events"] = [asdict(e) for e in self.fault_events]
        payload["chunks_executed"] = {
            str(index): count for index, count in sorted(self.chunks_executed.items())
        }
        payload["checkpoint_stats"] = dict(self.checkpoint_stats)
        payload["integrity_stats"] = dict(self.integrity_stats)
        return payload


#: Experiment hook: throttle the CSE when offloaded work crosses a
#: progress fraction — the paper stresses the device "right after each
#: application's ISP tasks make 50% of their progress".
ProgressTrigger = Tuple[float, float]  # (csd-progress fraction, new availability)


#: Span resource of a line that started on the CSD and finished on the host.
_SPLIT = f"{CSD}+host"

#: A taint-ledger key: a unit's name, or ``(line, chunk)`` for one chunk.
_UnitKey = Union[str, Tuple[int, int]]


def _unit_name(key: _UnitKey) -> str:
    """The ledger name of ``key``; a chunk is ``line<i>.chunk<c>``.

    A chunk key stays a tuple until a tainted chunk or a non-empty
    ledger needs its name, which a clean run never does.
    """
    if isinstance(key, str):
        return key
    index, chunk = key
    return f"line{index}.chunk{chunk}"


#: One move of a chunk: its bytes, then its link's latency, bandwidth
#: (after any degradation) and attribution component.
Move = Tuple[float, float, float, str]

#: One clock advance: its seconds and attribution component.
Advance = Tuple[float, str]


def chunk_advances(
    moves: Sequence[Move] = (),
    multiplier: float = 1.0,
    compute: Optional[Tuple[float, float, str]] = None,
    overlap: bool = False,
    verify_bandwidth: Optional[float] = None,
    checkpoint: float = 0.0,
    status: Optional[Advance] = None,
) -> Tuple[Advance, ...]:
    """The clock advances one chunk makes, in the executor's order.

    This is the one charge formula of a chunk.  The executor charges a
    quiet stretch of chunks with it, and the plan search prices a step
    with it; the per-chunk body (``_chunk``, ``_move``,
    ``charge_verify``, ``CheckpointManager.save``, the status message)
    makes the same advances one call at a time.

    A move with bytes takes ``latency + bytes / bandwidth`` on the wire.
    ``compute`` is the unit's instructions, instructions per second
    (after availability) and component; None makes a standalone
    verified move, which cannot overlap (``ValueError``).  Without
    ``overlap`` each move with wire time
    advances by it and, when the boxed-buffer ``multiplier`` exceeds 1,
    by its stretch; then the compute.  With ``overlap`` the chunk
    advances once by the larger of the stretched I/O and the compute,
    labelled by the binding side.  Then come the digest check of the
    moved bytes (``verify_bandwidth`` None: the integrity layer is
    off), a positive ``checkpoint`` write cost and the ``status``
    message's (latency, component).
    """
    if overlap and compute is None:
        raise ValueError("an overlapped chunk needs its compute")
    advances: List[Advance] = []
    if compute is not None:
        instructions, ips, unit = compute
        compute_seconds = instructions / ips
    if overlap:
        io_seconds = sum(
            (latency + nbytes / bandwidth) * multiplier
            for nbytes, latency, bandwidth, _ in moves if nbytes > 0
        )
        # Critical-path accounting: the hidden, shorter side
        # contributes no path time.
        binding = moves[0][3] if io_seconds >= compute_seconds and moves else unit
        advances.append((max(io_seconds, compute_seconds), binding))
    else:
        for nbytes, latency, bandwidth, component in moves:
            if nbytes > 0:
                elapsed = latency + nbytes / bandwidth
                if elapsed > 0:
                    advances.append((elapsed, component))
                    if multiplier > 1.0:
                        advances.append((elapsed * (multiplier - 1.0), component))
        if compute is not None:
            advances.append((compute_seconds, unit))
    payload = sum(nbytes for nbytes, _, _, _ in moves if nbytes > 0)
    if verify_bandwidth is not None and payload > 0:
        advances.append((payload / verify_bandwidth, "integrity"))
    if checkpoint > 0:
        advances.append((checkpoint, "checkpoint"))
    if status is not None:
        advances.append(status)
    return tuple(advances)


@dataclass
class RunState:
    """The per-run variables :meth:`PlanExecutor.step` folds over.

    Built by :meth:`PlanExecutor.begin`; one state carries a whole
    :meth:`~PlanExecutor.execute`.  ``value_location`` seeds where the
    live value starts, so a single line-step can also run alone.
    """

    compiled: CompiledProgram
    n: float
    multiplier: float
    estimates: Dict[int, LineEstimate]
    #: Unfired progress triggers, the next one last.
    triggers: List[ProgressTrigger]
    total_csd_instr: float
    chunk_ledger: Dict[int, int]
    started: float
    d2h_before: float
    remote_before: float
    #: Where the program's live value sits.
    value_location: str = HOST
    #: Once true, every remaining line runs on the host.
    migrated: bool = False
    #: A fault forced work off its planned unit.
    degraded: bool = False
    csd_instr_done: float = 0.0
    chunk_replays: int = 0
    timings: List[LineTiming] = field(default_factory=list)
    migrations: List[MigrationEvent] = field(default_factory=list)


@dataclass(frozen=True)
class _Line:
    """One line's work, split into its equal chunks."""

    index: int
    statement: Statement
    #: Per-chunk instructions (runtime multiplier applied), storage
    #: bytes and input bytes.
    instructions: float
    storage_bytes: float
    input_bytes: float


class PlanExecutor:
    """Runs a compiled program under a plan, with optional migration."""

    def __init__(
        self,
        machine: Machine,
        migration_enabled: bool = True,
        device=None,
        fault_log: Optional[FaultLog] = None,
    ) -> None:
        self.machine = machine
        self.migration_enabled = migration_enabled
        self.device = device if device is not None else machine.csd
        self.fault_log = fault_log if fault_log is not None else FaultLog()
        self.dispatcher = CallQueueDispatcher(
            machine, device=self.device, fault_log=self.fault_log
        )
        self.checkpoints = CheckpointManager(
            device=self.device, config=machine.config, fault_log=self.fault_log
        )
        self.obs = machine.obs
        self._chunk_cells = {
            unit: self.obs.counter_cell(f"executor.chunks.{unit.name}")
            for unit in (machine.host, self.device.cse)
        }
        self._chunk_seconds_cell = self.obs.histogram_cell("executor.chunk_seconds")
        self._drift_cell = self.obs.histogram_cell("monitor.ipc_drift", _DRIFT_BUCKETS)
        #: ``machine.now`` reads through the simulator to this clock.
        self.clock = machine.simulator.clock
        self.integrity = IntegrityChecker(
            config=machine.config,
            clock=machine.simulator.clock,
            fault_log=self.fault_log,
            obs=self.obs,
        )

    def _trace(self, start: float, resource: str, kind: str, label: str) -> None:
        self.obs.record_span(label, kind, resource, start, self.clock.now)

    # --- public entry ----------------------------------------------------

    def execute(
        self,
        compiled: CompiledProgram,
        n_records: int,
        progress_triggers: Sequence[ProgressTrigger] = (),
    ) -> ExecutionResult:
        state = self.begin(compiled, n_records, progress_triggers)
        for index, planned in enumerate(compiled.plan.assignments):
            self.step(state, index, planned)
        return self.finish(state)

    def begin(
        self,
        compiled: CompiledProgram,
        n_records: int,
        progress_triggers: Sequence[ProgressTrigger] = (),
        value_location: str = HOST,
    ) -> RunState:
        """A fresh run state, with the live value on ``value_location``."""
        if n_records <= 0:
            raise ProgramError(f"n_records must be positive, got {n_records}")
        machine = self.machine
        program = compiled.program
        plan = compiled.plan
        n = float(n_records)
        estimates = {e.index: e for e in plan.estimates}
        if self.migration_enabled and not estimates:
            raise MigrationError(
                "migration needs the plan's line estimates for re-estimation"
            )
        triggers = sorted(progress_triggers, reverse=True)
        # Only the triggers read the total.
        total_csd_instr = sum(
            statement.instructions(n)
            for statement, where in zip(program, plan.assignments)
            if where == CSD
        ) if triggers else 0.0
        return RunState(
            compiled=compiled,
            n=n,
            multiplier=compiled.multiplier,
            estimates=estimates,
            triggers=triggers,
            total_csd_instr=total_csd_instr or 1.0,
            chunk_ledger={index: 0 for index in range(len(program))},
            started=machine.now,
            d2h_before=machine.d2h_link.bytes_transferred,
            remote_before=machine.remote_access_link.bytes_transferred,
            value_location=value_location,
        )

    def step(self, state: RunState, index: int, location: str) -> None:
        """Run line ``index``, planned for ``location``, and record its timing.

        After a migration the line runs on the host.
        """
        machine = self.machine
        program = state.compiled.program
        statement = program[index]
        planned = location
        if state.migrated:
            location = HOST
        line_start = machine.now
        d_in = program.input_bytes(index, state.n)
        chunks = statement.chunks
        line = _Line(
            index=index,
            statement=statement,
            instructions=(
                statement.instructions(state.n) * state.multiplier / chunks
            ),
            storage_bytes=statement.storage_bytes(state.n) / chunks,
            input_bytes=d_in / chunks,
        )

        # Ship the input value if it lives on the other unit.  A
        # post-migration host line whose input was produced on the
        # CSD reads it remotely instead (live data stays put).
        input_remote = False
        if location != state.value_location and d_in > 0:
            if state.migrated and state.value_location == CSD:
                input_remote = True
            else:
                transfer_start = machine.now
                self._verified_move(
                    machine.d2h_link, d_in, state.multiplier,
                    key=f"input.line{index}",
                )
                self._trace(transfer_start, "d2h", "transfer",
                            f"{statement.name}.input")

        if location == CSD:
            resource = self._run_line_on_csd(state, line)
        else:
            self._run_chunks_on_host(state, line, 0, input_remote)
            resource = HOST
        state.value_location = CSD if resource == CSD else HOST
        self._trace(line_start, resource, "compute", statement.name)
        state.timings.append(
            LineTiming(
                index=index,
                name=statement.name,
                planned_location=planned,
                actual_location=state.value_location,
                seconds=machine.now - line_start,
                migrated_mid_line=resource == _SPLIT,
            )
        )

    def finish(self, state: RunState) -> ExecutionResult:
        """Bring the program's final value to the host and report the run."""
        machine = self.machine
        program = state.compiled.program
        if state.value_location == CSD:
            # BAR readback of the result: the last place a garbled
            # transfer could still slip into the report.
            transfer_start = machine.now
            self._verified_move(
                machine.d2h_link,
                program[len(program) - 1].output_bytes(state.n),
                state.multiplier,
                key="final.output",
            )
            self._trace(transfer_start, "d2h", "transfer", "final.output")

        finished = machine.now
        if self.obs.enabled:
            self.obs.metrics.counter("executor.lines").inc(len(state.timings))
        return ExecutionResult(
            program_name=program.name,
            total_seconds=finished - state.started,
            line_timings=state.timings,
            migrations=state.migrations,
            started_at=state.started,
            finished_at=finished,
            d2h_bytes=machine.d2h_link.bytes_transferred - state.d2h_before,
            remote_access_bytes=(
                machine.remote_access_link.bytes_transferred - state.remote_before
            ),
            status_updates=self.dispatcher.status_updates,
            fault_events=list(self.fault_log.events),
            degraded=state.degraded,
            chunk_replays=state.chunk_replays,
            chunks_executed=dict(state.chunk_ledger),
            checkpoint_stats=self.checkpoints.stats(),
            output_digest=self.integrity.digest(),
            integrity_stats=self.integrity.stats(),
        )

    # --- one line on each unit ----------------------------------------------

    def _run_line_on_csd(self, state: RunState, line: _Line) -> str:
        """Dispatch a line to the device and run its chunks there.

        Returns the line's span resource: :data:`CSD` when it completed
        on the device, :data:`_SPLIT` when a fault or a migration moved
        the rest of it to the host, :data:`HOST` when the device refused
        the call outright.
        """
        machine = self.machine
        simulator = machine.simulator
        clock = self.clock
        cse = self.device.cse
        checkpoints = self.checkpoints
        statement = line.statement
        index = line.index
        chunks = statement.chunks
        live_vars = statement.live_vars
        try:
            command_id = self.dispatcher.invoke(
                statement.name,
                state.compiled.device_binaries.get(statement.name),
            )
        except FaultError as exc:
            # The device would not even accept the call (stalled queue
            # pair beyond the deadline): run the whole line on the host.
            self._fall_back(
                state, line, 0, input_remote=state.value_location == CSD,
                action="host-fallback",
                detail=f"{statement.name} could not be dispatched: {exc}",
            )
            return HOST
        expected_ipc = cse.expected_ipc()
        # The monitor's decision only matters to migration and to the
        # drift histogram.
        monitor = (
            RuntimeMonitor(config=machine.config, expected_ipc=expected_ipc)
            if self.migration_enabled or self.obs.enabled else None
        )
        moves = [(self.device.internal_link, line.storage_bytes)]
        resource = CSD
        replays_left = machine.config.chunk_replay_limit
        chunk = 0
        # Commit the line's entry checkpoint so a crash during the very
        # first chunk still restores to *this* line.
        checkpoints.save(index, 0, live_vars, clock.now)
        while chunk < chunks:
            quiet = self._csd_stretch(state, line, chunk, monitor, expected_ipc)
            if quiet:
                chunk += quiet
                continue
            fault: Optional[FaultError] = None
            try:
                self._run_chunk_on_csd(state, line, chunk, moves)
            except FaultError as exc:
                fault = exc
            simulator.fire_due_events()
            if fault is None and cse.crashed:
                # The crash event fired inside this chunk's time span:
                # its partial work is lost.
                fault = CseCrashError(f"CSE {self.device.name!r} crashed mid-chunk")
            if fault is not None:
                if self._try_chunk_replay(statement, chunk, fault, replays_left):
                    replays_left -= 1
                    state.chunk_replays += 1
                    self.obs.count("executor.chunk_replays")
                    # The IPC trend across the fault is noise, not
                    # congestion; start the monitor fresh.
                    if monitor is not None:
                        monitor.reset()
                    continue
                # Retries exhausted (or the device is beyond saving):
                # resume host-side at a Python-line boundary.  The
                # resume point comes from the BAR checkpoint record, not
                # from host-side bookkeeping — the record survives the
                # crash (and, double-buffered, a torn write).
                resume = checkpoints.resume_chunk(index, chunks, fallback=chunk)
                self._fall_back(
                    state, line, resume, input_remote=True,
                    action="host-fallback",
                    detail=f"{statement.name} resumes on the host at chunk {resume}",
                    command_id=command_id,
                )
                return _SPLIT
            state.csd_instr_done += line.instructions
            state.chunk_ledger[index] += 1
            chunk += 1
            checkpoints.save(index, chunk, live_vars, clock.now)
            triggers = state.triggers
            while (
                triggers
                and state.csd_instr_done / state.total_csd_instr >= triggers[-1][0]
            ):
                cse.set_availability(triggers.pop()[1])
            if monitor is None:
                # Nothing reads the update unless it must go through
                # the ring.
                if not self.dispatcher.exchange_idle_status():
                    self._post_status(statement, chunk, chunks, expected_ipc)
                continue
            update = self._post_status(statement, chunk, chunks, expected_ipc)
            decision = monitor.observe(update)
            if self.obs.enabled:
                # Drift of observed vs planner-predicted IPC per status
                # update, so migration triggers can be audited against
                # the estimate after the fact.
                self._drift_cell.append(decision.ipc_drift)
            if not (self.migration_enabled and decision.reestimate):
                continue
            event = self._consider_migration(
                state=state,
                index=index,
                statement=statement,
                chunk=chunk,
                inferred_availability=decision.inferred_availability,
                reason=decision.reason,
            )
            if event is None:
                continue
            state.migrations.append(event)
            self.obs.count("executor.migrations")
            # The drift that tipped this migration, for audits.
            self.obs.gauge("monitor.migration_trigger_drift", decision.ipc_drift)
            # Finish this line's remaining chunks on the host, reading
            # the unconsumed input remotely.  The break chunk is re-read
            # from the checkpoint record the device left in shared
            # memory (paper §III-D).
            self._fall_back(
                state, line,
                event.resume_chunk if event.resume_chunk >= 0 else chunk,
                input_remote=True,
            )
            resource = _SPLIT
            break
        self.dispatcher.complete(command_id)
        try:
            self.dispatcher.reap_completion(command_id)
        except FaultError as exc:
            # The work ran but its final acknowledgement never arrived
            # and retries exhausted: the host cannot trust it, so it
            # replays the whole line itself (lines are idempotent).
            self._fall_back(
                state, line, 0, input_remote=True,
                action="line-replay-host",
                detail=(
                    f"{statement.name} unacknowledged ({exc}); "
                    "replayed on the host"
                ),
                command_id=command_id,
            )
            return _SPLIT
        return resource

    def _fall_back(
        self,
        state: RunState,
        line: _Line,
        first_chunk: int,
        input_remote: bool,
        action: Optional[str] = None,
        detail: str = "",
        command_id: Optional[int] = None,
    ) -> None:
        """Finish a device line on the host from ``first_chunk`` on.

        A migration passes no ``action``; a fault recovery logs it,
        abandons the device command and marks the run degraded.
        """
        if action is not None:
            self.fault_log.record(
                self.machine.now, "recovery", self.device.name, action, detail
            )
        if command_id is not None:
            self.dispatcher.abandon(command_id)
        self._run_chunks_on_host(state, line, first_chunk, input_remote)
        state.migrated = True
        if action is not None:
            state.degraded = True
            self.obs.count("executor.host_fallbacks")

    # --- chunk mechanics ----------------------------------------------------

    def _move(self, link, nbytes: float, multiplier: float) -> None:
        """Transfer data, with the runtime mode's data-path overhead.

        Interpreted and Cython runtimes move data through boxed
        buffers, so their I/O path stretches by the same factor as
        their compute; ActivePy's copy elimination is what removes it.
        """
        elapsed = link.transfer(nbytes)
        if multiplier > 1.0 and elapsed > 0:
            # The boxed-buffer stretch is still time on the same wire.
            self.machine.simulator.clock.advance(
                elapsed * (multiplier - 1.0), component=link.component
            )

    def _verified_move(self, link, nbytes: float, multiplier: float, key: str) -> None:
        """A value transfer followed by the consumer-side digest check.

        Used for the standalone payload moves (shipping a line's input,
        the final BAR readback of the result) where recovery is an
        inline retransmit rather than a chunk replay.
        """
        self._move(link, nbytes, multiplier)
        self._ingest(
            [(link, nbytes)], multiplier,
            tainted=False, key=key, target=link.name, raise_on_detect=False,
        )

    def _ingest(
        self,
        moves,
        multiplier: float,
        tainted: bool,
        key: _UnitKey,
        target: str,
        raise_on_detect: bool,
    ) -> None:
        """Consumer-side integrity handling for freshly ingested bytes.

        Consumes any armed in-flight corruption on the traversed links
        (the bits flip whether or not anyone checks), charges the
        simulated verify cost when the layer is enabled, and on a
        detected mismatch either raises :class:`IntegrityError` (device
        chunks — the caller's replay machinery recovers) or re-reads
        the garbled payloads inline (host-side transfers).  With the
        layer disabled this touches neither the clock nor any metric.
        ``key`` names the logical unit in the taint ledger; see
        :func:`_unit_name`.
        """
        integ = self.integrity
        dirty = []
        for link, nbytes in moves:
            if nbytes > 0 and link.consume_transfer_corruption():
                dirty.append((link, nbytes))
        tainted = tainted or bool(dirty)
        if integ.enabled:
            integ.charge_verify(
                sum(nbytes for _, nbytes in moves if nbytes > 0)
            )
            if tainted and integ.verify:
                if raise_on_detect:
                    integ.raise_mismatch(
                        target, f"{_unit_name(key)}: content digest mismatch"
                    )
                while dirty:
                    integ.record_detected(
                        target,
                        f"{_unit_name(key)}: payload digest mismatch; re-reading",
                    )
                    redo, dirty = dirty, []
                    for link, nbytes in redo:
                        self._move(link, nbytes, multiplier)
                        integ.charge_verify(nbytes)
                        if link.consume_transfer_corruption():
                            dirty.append((link, nbytes))
                tainted = False
        # A clean unit only ever clears its own ledger entry, so with an
        # empty ledger it has nothing to record.
        if tainted or integ.has_tainted_units:
            integ.record_unit(_unit_name(key), tainted)

    def _chunk(
        self,
        unit,
        moves,
        instructions: float,
        multiplier: float,
        key: _UnitKey,
        tainted: bool = False,
        raise_on_detect: bool = False,
    ) -> None:
        """One chunk of data movement + compute on ``unit``.

        ``moves`` is a list of (link, nbytes) pairs.  Sequential by
        default; with ``config.overlap_io_compute`` the chunk costs
        max(io, compute), modelling a double-buffered engine.  ``key``
        names the logical unit in the integrity taint ledger;
        ``tainted`` carries producer-side corruption already consumed
        by the caller (a silently corrupted NAND stream).
        """
        machine = self.machine
        observed = self.obs.enabled
        if observed:
            chunk_started = self.clock.now
        if not machine.config.overlap_io_compute:
            for link, nbytes in moves:
                if nbytes > 0:
                    self._move(link, nbytes, multiplier)
            unit.execute(instructions)
        else:
            io_seconds = sum(
                link.transfer_time(nbytes) * multiplier
                for link, nbytes in moves if nbytes > 0
            )
            compute_seconds = unit.execution_time(instructions)
            elapsed = max(io_seconds, compute_seconds)
            # Overlapped chunks advance once by the binding side;
            # attributing the whole advance to that side is
            # critical-path accounting — the hidden, shorter resource
            # contributes zero path time.
            if io_seconds >= compute_seconds and moves:
                binding = moves[0][0].component
            else:
                binding = unit.component
            machine.simulator.clock.advance(elapsed, component=binding)
            for link, nbytes in moves:
                if nbytes > 0:
                    link.account(nbytes)
            unit.charge(instructions, elapsed)
        if observed:
            self._chunk_cells[unit].append(1.0)
            self._chunk_seconds_cell.append(self.clock.now - chunk_started)
        self._ingest(
            moves, multiplier,
            tainted=tainted, key=key, target=unit.name,
            raise_on_detect=raise_on_detect,
        )

    def _run_chunk_on_csd(
        self, state: RunState, line: _Line, chunk: int, moves
    ) -> None:
        """Chunk ``chunk`` of ``line`` on the CSE; ``moves`` is the line's
        internal-path stream, built once per line."""
        tainted = False
        if line.storage_bytes > 0:
            # The chunk's streamed NAND access may hit an armed media
            # fault: ECC re-reads cost time here, an uncorrectable
            # error aborts the chunk before any work is charged.
            extra = self.device.consume_media_fault()
            if extra > 0:
                self.fault_log.record(
                    self.clock.now, "nand-read-correctable", self.device.name,
                    "ecc-corrected",
                    f"{line.statement.name}: {extra:.6f}s of ECC re-reads",
                )
            # A silently corrupted stream costs nothing and raises
            # nothing here: the flipped bits ride into the chunk and
            # only the end-of-chunk digest check can notice.
            tainted = self.device.flash.consume_silent_corruption()
        self._chunk(
            self.device.cse, moves, line.instructions, state.multiplier,
            key=(line.index, chunk), tainted=tainted, raise_on_detect=True,
        )

    def _run_chunks_on_host(
        self, state: RunState, line: _Line, first_chunk: int, input_remote: bool
    ) -> None:
        """Run chunks ``first_chunk..`` of a line on the host, reading its
        input over the remote BAR path when ``input_remote``."""
        machine = self.machine
        host = machine.host
        moves = [(machine.host_storage_link, line.storage_bytes)]
        if input_remote:
            moves.append((machine.remote_access_link, line.input_bytes))
        chunks = line.statement.chunks
        chunk = first_chunk
        while chunk < chunks:
            if not (
                self.integrity.has_tainted_units
                or any(link.transfer_corruption_armed for link, _ in moves)
            ):
                quiet, _ = self._charge_quiet(
                    host, moves, line.instructions, state.multiplier, (), chunks - chunk
                )
                if quiet:
                    state.chunk_ledger[line.index] += quiet
                    chunk += quiet
                    continue
            self._chunk(
                host, moves, line.instructions, state.multiplier,
                key=(line.index, chunk),
            )
            state.chunk_ledger[line.index] += 1
            machine.simulator.fire_due_events()
            chunk += 1

    # --- quiet stretches ------------------------------------------------------

    def _csd_stretch(
        self,
        state: RunState,
        line: _Line,
        chunk: int,
        monitor: Optional[RuntimeMonitor],
        expected_ipc: float,
    ) -> int:
        """Charge the quiet device chunks of ``line`` from ``chunk`` on at once.

        Returns how many it charged; 0 leaves the next chunk to the
        per-chunk body.  A chunk is quiet when nothing can observe or
        disturb it: no event falls due at its ``fire_due_events``
        point, no fault is armed, the completion queue is idle, the
        engine is up, the taint ledger is empty, it crosses no progress
        trigger, and a monitor (if any) reads the full expected rate,
        so every decision is the shared steady one.  The stretch leaves
        every clock reading, counter, metrics cell and checkpoint slot
        as the per-chunk body would.
        """
        device = self.device
        cse = device.cse
        link = device.internal_link
        checkpoints = self.checkpoints
        if (
            cse.crashed
            or device.flash.faults_armed
            or link.transfer_corruption_armed
            or not self.dispatcher.status_idle
            or self.integrity.has_tainted_units
            or (checkpoints.enabled and checkpoints.area.torn_write_armed)
            or (monitor is not None and cse.availability < 1.0)
        ):
            return 0
        instructions = line.instructions
        triggers = state.triggers
        before_trigger = None
        if triggers:

            def before_trigger(reach: int) -> int:
                """How many of the next ``reach`` chunks end short of
                the next progress trigger."""
                progress = map(
                    truediv,
                    accumulate(repeat(instructions, reach), initial=state.csd_instr_done),
                    repeat(state.total_csd_instr),
                )
                return bisect_left(list(islice(progress, 1, None)), triggers[-1][0])

        config = self.machine.config
        d2h = self.machine.d2h_link
        tail = chunk_advances(
            checkpoint=config.checkpoint_write_cost_s if checkpoints.enabled else 0.0,
            status=(d2h.latency_s, d2h.component),
        )
        count, saved_at = self._charge_quiet(
            cse, [(link, line.storage_bytes)], instructions, state.multiplier,
            tail, line.statement.chunks - chunk, before_trigger,
        )
        if not count:
            return 0
        state.csd_instr_done = reduce(add, repeat(instructions, count), state.csd_instr_done)
        state.chunk_ledger[line.index] += count
        checkpoints.save_many(line.index, chunk + 1, line.statement.live_vars, saved_at)
        self.dispatcher.exchange_idle_status_many(count)
        if monitor is not None:
            monitor.observe_many(expected_ipc * cse.availability, count)
            if self.obs.enabled:
                self._drift_cell.extend(repeat(0.0, count))
        return count

    def _charge_quiet(
        self,
        unit,
        moves,
        instructions: float,
        multiplier: float,
        tail: Tuple[Advance, ...],
        remaining: int,
        clip: Optional[Callable[[int], int]] = None,
    ) -> Tuple[int, List[float]]:
        """Charge up to ``remaining`` chunks on ``unit`` as one fold.

        A chunk is :func:`chunk_advances` of ``moves`` and the compute,
        built once from live machine state, then ``tail`` (the device's
        checkpoint and status message).  The clock is one
        ``itertools.accumulate`` fold over the chunks' advances: the
        same floats, in the same order, as one ``advance`` call each.
        The stretch ends before the first chunk whose
        ``fire_due_events`` point, after its verify charge, reaches the
        simulator's next pending event, and before any chunk ``clip``
        (given how many chunks may go) cuts off.  Every counter is a
        left fold of its per-chunk adds.  Returns how many chunks were
        charged and each one's reading at its ``fire_due_events``
        point, which is when its checkpoint is saved.  The caller
        checked that no fault can strike these chunks.
        """
        integrity = self.integrity
        payload = sum(nbytes for _, nbytes in moves if nbytes > 0)
        body = chunk_advances(
            [
                (nbytes, link.latency_s, link.effective_bandwidth, link.component)
                for link, nbytes in moves
            ],
            multiplier,
            compute=(instructions, unit.effective_ips, unit.component),
            overlap=self.machine.config.overlap_io_compute,
            verify_bandwidth=(
                integrity.config.integrity_verify_bandwidth if integrity.enabled else None
            ),
        )
        advances = body + tail
        width = len(advances)
        fire = len(body)
        clock = self.clock
        seconds = tuple(s for s, _ in advances)
        next_event = self.machine.simulator.next_event_time
        per_chunk = sum(seconds)
        if per_chunk > 0:
            # Fold only the chunks that can end before the event: the
            # readings gain ``per_chunk`` a chunk, so two chunks past
            # the quotient reach it (were rounding to leave one short,
            # the stretch would just end early).  Where events are
            # dense this keeps a chunk's work constant.
            reach = (next_event - clock.now) / per_chunk
            if reach < remaining:
                remaining = max(1, int(reach) + 2)
        if clip is not None:
            remaining = clip(remaining)
        times = list(accumulate(
            chain.from_iterable(repeat(seconds, remaining)), initial=clock.now,
        ))
        count = bisect_left(times[fire::width], next_event)
        if not count:
            return 0, []
        end = count * width
        clock.advance_along(
            times[:end + 1],
            chain.from_iterable(repeat(tuple(c for _, c in advances), count)),
        )
        # The unit's busy time is its compute, or the overlapped
        # chunk's one advance: the last advance before the verify.
        work = fire - (integrity.verify_cost(payload) is not None)
        for link, nbytes in moves:
            if nbytes > 0:
                link.account(nbytes, count)
        unit.charge(instructions, body[work - 1][0], count)
        if self.obs.enabled:
            self._chunk_cells[unit].extend(repeat(1.0, count))
            self._chunk_seconds_cell.extend(
                map(sub, times[work:work + end:width], times[:end:width])
            )
        integrity.charge_verify_many(payload, count)
        return count, times[fire:fire + end:width]

    def _try_chunk_replay(
        self,
        statement: Statement,
        chunk: int,
        fault: FaultError,
        replays_left: int,
    ) -> bool:
        """Decide whether a failed device chunk is worth replaying.

        Transient faults (a consumed NAND read error, a crash the
        firmware resets within the deadline budget) are replayed on the
        device; persistent media faults and crashes that outlast the
        deadline are not — the caller then falls back to the host.
        All waiting happens in sim time so scheduled recovery events
        (the CSE reset) can fire while the host backs off.
        """
        machine = self.machine
        config = machine.config
        self.fault_log.record(
            machine.now, "recovery", self.device.name, "chunk-failed",
            f"{statement.name} chunk {chunk}: {fault}",
        )
        if replays_left <= 0:
            return False
        if self.device.flash.has_persistent_fault:
            # The page is unreadable on-device no matter how often we
            # retry; only the host path (replicated data) can finish.
            return False
        if self.device.cse.crashed:
            waited = 0.0
            delay = config.retry_backoff_base_s
            while waited < config.command_deadline_s and self.device.cse.crashed:
                step = min(delay, config.command_deadline_s - waited)
                # Backoff time is spent waiting on the engine's firmware
                # reset, so it belongs to the CSE, not the host.
                with self.obs.attr_scope("cse"):
                    machine.simulator.run_until(machine.now + step)
                waited += step
                delay *= config.retry_backoff_factor
            if self.device.cse.crashed:
                self.fault_log.record(
                    machine.now, "recovery", self.device.name, "device-dead",
                    f"CSE still down after backing off {waited:.6f}s",
                )
                return False
        self.fault_log.record(
            machine.now, "recovery", self.device.name, "chunk-replay",
            f"{statement.name} chunk {chunk} replayed on the device",
        )
        return True

    def _post_status(
        self, statement: Statement, chunk: int, chunks: int, expected_ipc: float
    ) -> StatusUpdate:
        """Device side: report this line's execution rate (paper §III-C0b).

        The status-update code patched into the CSD binary measures its
        own recent rate; under contention the foreground task retires
        fewer instructions per wall cycle, so the reported IPC is the
        expected IPC (``cse.expected_ipc()``, fixed per line) scaled by
        the cycles the engine actually got.
        """
        cse = self.device.cse
        update = StatusUpdate(
            line_name=statement.name,
            chunk=chunk,
            ipc=expected_ipc * cse.availability,
            progress=chunk / chunks,
        )
        self.dispatcher.exchange_status(update)
        return update

    # --- migration decision ----------------------------------------------------

    def _consider_migration(
        self,
        state: RunState,
        index: int,
        statement: Statement,
        chunk: int,
        inferred_availability: float,
        reason: str,
    ) -> Optional[MigrationEvent]:
        """Re-estimate and migrate if the host now wins (paper §III-D)."""
        machine = self.machine
        config = machine.config
        estimates = state.estimates
        assignments = state.compiled.plan.assignments
        chunks = statement.chunks
        est = estimates.get(index)
        if est is None:
            return None
        remaining_frac = (chunks - chunk) / chunks
        later_csd = [
            estimates[i]
            for i in range(index + 1, len(assignments))
            if assignments[i] == CSD and i in estimates
        ]
        c_factor = config.device_speed_ratio

        device_compute = est.compute_host * c_factor * remaining_frac
        device_access = est.d_storage * remaining_frac / config.bw_internal
        for later in later_csd:
            device_compute += later.compute_host * c_factor
            device_access += later.d_storage / config.bw_internal
        device_projection = RuntimeMonitor.reestimate_remaining_seconds(
            device_compute, device_access, inferred_availability
        )
        # The region's final output still crosses back to the host.
        tail = later_csd[-1] if later_csd else est
        device_projection += tail.d_out / config.bw_d2h

        host_compute = est.compute_host * remaining_frac + sum(
            later.compute_host for later in later_csd
        )
        storage_bytes = est.d_storage * remaining_frac + sum(
            later.d_storage for later in later_csd
        )
        live_input = est.d_in * remaining_frac
        host_projection = migration_cost_estimate(
            config,
            remaining_host_compute_s=host_compute,
            remaining_storage_bytes=storage_bytes,
            live_input_bytes=live_input,
        )

        if host_projection >= device_projection:
            return None
        # The break chunk the host resumes at is read back from the
        # checkpoint record in BAR memory — with checkpointing off the
        # event carries -1 and the caller trusts its own counter.
        resume = (
            self.checkpoints.resume_chunk(index, chunks, fallback=chunk)
            if self.checkpoints.enabled else -1
        )
        event = perform_migration(
            machine=machine,
            line_index=index,
            line_name=statement.name,
            chunk=chunk,
            reason=reason,
            projected_device_seconds=device_projection,
            projected_host_seconds=host_projection,
            resume_chunk=resume,
        )
        self._trace(
            event.sim_time - event.cost_seconds, HOST, "migration",
            f"migrate.{statement.name}",
        )
        return event
