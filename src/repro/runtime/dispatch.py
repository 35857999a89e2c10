"""CSD function invocation over NVMe-style queue pairs (paper §III-C0b).

The host writes a call request into the submission queue mapped in
device memory and rings the doorbell; the CSE fetches requests whenever
it is free.  At the end of every executed line the device posts a
status update — execution rate (IPC) and progress — to the completion
queue.  The update costs a small interconnect message, which is why the
paper can claim the status mechanism adds "very little overhead".

The dispatcher is also where the host survives a misbehaving device
(:mod:`repro.faults`): a full submission queue is waited out in sim
time with a bounded back-pressure window, a missing completion is
retried with exponential backoff until a per-command deadline budget is
exhausted, duplicate completions from a retry race are dropped
idempotently, and a device that never answers is declared dead with
:class:`~repro.errors.DeviceLostError`.  All of these knobs live on
:class:`~repro.config.SystemConfig`; every recovery action is recorded
on the shared :class:`~repro.faults.FaultLog`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import List, Optional

from ..errors import DeadlineError, DeviceLostError, DispatchError
from ..faults import FaultLog
from ..hw.topology import Machine
from ..storage.nvme import Completion


@dataclass(frozen=True, slots=True)
class StatusUpdate:
    """One per-line status report from the CSD code."""

    line_name: str
    chunk: int
    ipc: float
    progress: float  # fraction of this line's dynamic instances done


class CallQueueDispatcher:
    """Host-side driver for invoking and tracking CSD functions.

    ``device`` selects which attached CSD's queue pair carries the
    calls (default: the machine's primary device).  ``fault_log``
    receives a record of every recovery action; by default each
    dispatcher keeps its own log.
    """

    def __init__(self, machine: Machine, device=None, fault_log: Optional[FaultLog] = None) -> None:
        self.machine = machine
        self.device = device if device is not None else machine.csd
        self.queue_pair = self.device.queue_pair
        self.fault_log = fault_log if fault_log is not None else FaultLog()
        self.obs = machine.obs
        self._m_sq_depth = f"nvme.{self.device.name}.sq_depth"
        self._status_cell = self.obs.counter_cell("dispatch.status_updates")
        self._cq_depth_cell = self.obs.gauge_cell(f"nvme.{self.device.name}.cq_depth")
        self.invocations = 0
        self.status_updates = 0
        self.retries = 0
        self.duplicates_dropped = 0
        self.backpressure_waits = 0
        self._completed_ids: set = set()
        self._abandoned_ids: set = set()
        #: Absolute sim time an armed completion delay lifts (the entry
        #: is in the queue but not yet visible to the host).
        self._cq_visible_at: Optional[float] = None

    # --- sim-time waiting ---------------------------------------------------

    def _wait(self, seconds: float) -> None:
        """Block the host for ``seconds`` of sim time, firing due events.

        Waiting through the simulator (rather than a bare clock advance)
        lets background events — a scheduled CSE reset, a stall window
        expiring — take effect while the host is parked.  The parked
        time is queueing delay, attributed to the NVMe queues.
        """
        simulator = self.machine.simulator
        with self.obs.attr_scope("nvme"):
            simulator.run_until(simulator.now + seconds)

    # --- invocation ---------------------------------------------------------

    def invoke(self, line_name: str, binary_address: Optional[int]) -> int:
        """Submit a CSD function call and ring the doorbell.

        The CSE fetches the request immediately when idle (our executor
        runs one offloaded task at a time).  Returns the command id.
        A stalled queue pair is waited out within the command deadline
        (:class:`~repro.errors.DeadlineError` beyond it); a full
        submission queue blocks the host in sim time for at most
        ``config.queue_full_wait_s`` before raising
        :class:`~repro.errors.DispatchError`.
        """
        if binary_address is None:
            raise DispatchError(
                f"line {line_name!r} has no installed device binary"
            )
        self._await_stall_clearance()
        self._await_submission_space()
        command_id = self.queue_pair.sq.submit(
            opcode="exec", payload={"line": line_name, "binary": binary_address}
        )
        if self.obs.enabled:
            self.obs.metrics.gauge(self._m_sq_depth).set(len(self.queue_pair.sq))
        self.machine.d2h_link.message()  # doorbell write
        command = self.queue_pair.sq.fetch()
        if command.command_id != command_id:
            raise DispatchError("queue pair delivered commands out of order")
        self.invocations += 1
        if self.obs.enabled:
            self.obs.metrics.counter("dispatch.invocations").inc()
        return command_id

    def _await_stall_clearance(self) -> None:
        simulator = self.machine.simulator
        if not self.queue_pair.stalled_at(simulator.now):
            return
        config = self.machine.config
        wait = self.queue_pair.stalled_until - simulator.now
        if wait > config.command_deadline_s:
            self.fault_log.record(
                simulator.now, "nvme-queue-stall", self.device.name,
                "deadline-exceeded",
                f"stall of {wait:.6f}s exceeds the {config.command_deadline_s}s deadline",
            )
            self.obs.count("dispatch.deadline_exceeded")
            raise DeadlineError(
                f"queue pair of {self.device.name!r} stalled for {wait:.6f}s, "
                f"beyond the {config.command_deadline_s}s command deadline"
            )
        self.fault_log.record(
            simulator.now, "nvme-queue-stall", self.device.name,
            "stall-wait", f"waited {wait:.6f}s for the stall window to pass",
        )
        self._wait(wait)

    def _await_submission_space(self) -> None:
        """Back-pressure: block in sim time until the SQ has a free slot."""
        sq = self.queue_pair.sq
        if not sq.is_full:
            return
        config = self.machine.config
        waited = 0.0
        delay = config.retry_backoff_base_s
        while sq.is_full:
            if waited >= config.queue_full_wait_s:
                self.fault_log.record(
                    self.machine.simulator.now, "backpressure", self.device.name,
                    "queue-full-timeout",
                    f"no SQ slot freed within {config.queue_full_wait_s}s",
                )
                raise DispatchError(
                    f"submission queue of {self.device.name!r} still full after "
                    f"a bounded wait of {config.queue_full_wait_s}s"
                )
            step = min(delay, config.queue_full_wait_s - waited)
            self._wait(step)
            waited += step
            delay *= config.retry_backoff_factor
            self.backpressure_waits += 1
            self.obs.count("dispatch.backpressure_waits")
        self.fault_log.record(
            self.machine.simulator.now, "backpressure", self.device.name,
            "queue-space-acquired", f"waited {waited:.6f}s for an SQ slot",
        )

    # --- completion ---------------------------------------------------------

    def complete(self, command_id: int, status: str = "ok") -> None:
        """Device side: post the final completion for a call."""
        self.queue_pair.cq.post(Completion(command_id=command_id, status=status))

    def abandon(self, command_id: int) -> None:
        """Stop expecting a completion (the host fell back to itself).

        A completion that surfaces later for an abandoned command — a
        reset device replaying its queue, say — is dropped idempotently.
        """
        self._abandoned_ids.add(command_id)

    def reap_completion(self, command_id: int) -> Completion:
        """Host side: wait for the final completion of a call.

        Waits up to ``config.command_deadline_s`` of sim time (in
        exponentially growing steps, so background recovery events can
        fire); on each expiry the command is re-submitted — a live
        device then re-posts its completion — up to
        ``config.command_max_retries`` times before the device is
        declared dead with :class:`~repro.errors.DeviceLostError`.
        Duplicate completions (a retry racing a late original) are
        dropped.
        """
        config = self.machine.config
        simulator = self.machine.simulator
        reap_started = simulator.now
        attempts = 0
        while True:
            completion = self._try_reap(command_id)
            if completion is not None:
                self._completed_ids.add(command_id)
                self._record_reap(simulator.now - reap_started)
                return completion
            waited = 0.0
            delay = config.retry_backoff_base_s
            while waited < config.command_deadline_s:
                step = min(delay, config.command_deadline_s - waited)
                self._wait(step)
                waited += step
                delay *= config.retry_backoff_factor
                completion = self._try_reap(command_id)
                if completion is not None:
                    self._completed_ids.add(command_id)
                    self._record_reap(simulator.now - reap_started)
                    return completion
            if attempts >= config.command_max_retries:
                self.fault_log.record(
                    simulator.now, "recovery", self.device.name, "device-dead",
                    f"command {command_id} unacknowledged after "
                    f"{attempts} retries; declaring the device lost",
                )
                self.obs.count("dispatch.device_lost")
                raise DeviceLostError(
                    f"device {self.device.name!r} never completed command "
                    f"{command_id} ({attempts} retries exhausted)"
                )
            attempts += 1
            self.retries += 1
            self.obs.count("dispatch.retries")
            self.fault_log.record(
                simulator.now, "recovery", self.device.name, "retry",
                f"command {command_id} re-submitted (attempt {attempts})",
            )
            self.machine.d2h_link.message()  # re-ring the doorbell
            if self.device.healthy:
                # A live device re-executes the (idempotent) command and
                # posts a fresh completion; the armed loss fault may
                # swallow this one too.
                self.queue_pair.cq.post(Completion(command_id=command_id, status="ok"))

    def _record_reap(self, waited_s: float) -> None:
        if self.obs.enabled:
            self.obs.metrics.histogram("dispatch.reap_wait_seconds").observe(waited_s)

    def _try_reap(self, command_id: int) -> Optional[Completion]:
        """Reap the completion for ``command_id`` if it is visible now."""
        simulator = self.machine.simulator
        cq = self.queue_pair.cq
        if self.queue_pair.stalled_at(simulator.now):
            return None
        if self._cq_visible_at is None:
            extra = cq.consume_delay()
            if extra > 0:
                self._cq_visible_at = simulator.now + extra
                self.fault_log.record(
                    simulator.now, "nvme-completion-delay", self.device.name,
                    "late-completion", f"completion withheld for {extra:.6f}s",
                )
        if self._cq_visible_at is not None:
            if simulator.now < self._cq_visible_at:
                return None
            self._cq_visible_at = None
        while not cq.is_empty:
            completion = cq.reap()
            if (completion.command_id in self._completed_ids
                    or completion.command_id in self._abandoned_ids):
                self.duplicates_dropped += 1
                self.obs.count("dispatch.duplicates_dropped")
                self.fault_log.record(
                    simulator.now, "recovery", self.device.name,
                    "duplicate-dropped",
                    f"stale completion for command {completion.command_id}",
                )
                continue
            if completion.command_id != command_id:
                raise DispatchError(
                    f"expected completion for command {command_id}, "
                    f"got {completion.command_id}"
                )
            return completion
        return None

    # --- status updates --------------------------------------------------------

    def post_status(self, update: StatusUpdate) -> None:
        """Device side: publish a per-line status update.

        Costs one small message on the device-to-host path.
        """
        cq = self.queue_pair.cq
        cq.post(Completion(command_id=-1, status="status", payload=update))
        self.machine.d2h_link.message()
        self._count_status(len(cq), 1)

    def _count_status(self, cq_depth: int, count: int) -> None:
        """Count ``count`` status messages sent at ``cq_depth``."""
        self.status_updates += count
        if self.obs.enabled:
            self._status_cell.extend(repeat(1.0, count))
            self._cq_depth_cell.extend(repeat(cq_depth, count))

    def drain_status(self) -> List[StatusUpdate]:
        """Host side: collect all pending status updates."""
        updates: List[StatusUpdate] = []
        retained: List[Completion] = []
        for completion in self.queue_pair.cq.drain():
            if completion.status == "status":
                updates.append(completion.payload)
            else:
                retained.append(completion)
        # Final completions reaped here out of order would be lost;
        # repost them for reap_completion.
        for completion in retained:
            self.queue_pair.cq.post(completion)
        return updates

    def exchange_status(self, update: StatusUpdate) -> None:
        """One status round trip: :meth:`post_status`, then :meth:`drain_status`."""
        if not self.exchange_idle_status():
            self.post_status(update)
            self.drain_status()

    @property
    def status_idle(self) -> bool:
        """True when :meth:`exchange_idle_status` would take the idle round trip."""
        cq = self.queue_pair.cq
        return cq.is_empty and not cq.loss_armed

    def exchange_idle_status_many(self, count: int) -> None:
        """``count`` idle round trips, without the messages' clock advances.

        The caller checked :attr:`status_idle` and advances the clock
        by the messages' latencies.
        """
        self.machine.d2h_link.message_many(count)
        self._count_status(1, count)

    def exchange_idle_status(self) -> bool:
        """The round trip of a status update without its ring entry, if idle.

        When the completion queue is empty and no loss is armed, the
        posted entry would be the ring's only one and the drain would
        take it straight back out, so the ring is left alone: the
        message, the counters and the depth gauge are the round trip's
        only effects, and the update itself need not exist.  Returns
        False, doing nothing, when the entry must go through the ring.
        """
        if self.status_idle:
            self.machine.d2h_link.message()
            self._count_status(1, 1)
            return True
        return False
