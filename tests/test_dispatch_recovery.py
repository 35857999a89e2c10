"""Fault-tolerant dispatch: deadlines, retries, idempotence, back-pressure."""

import pytest

from repro.errors import DeadlineError, DeviceLostError, DispatchError
from repro.faults import FaultLog
from repro.runtime.dispatch import CallQueueDispatcher
from repro.storage.nvme import Completion


def make_dispatcher(machine):
    log = FaultLog()
    return CallQueueDispatcher(machine, fault_log=log), log


class TestHappyPath:
    def test_invoke_and_reap_untouched_by_fault_layer(self, machine):
        dispatcher, log = make_dispatcher(machine)
        before = machine.now
        command_id = dispatcher.invoke("scan", binary_address=0x1000)
        dispatcher.complete(command_id)
        completion = dispatcher.reap_completion(command_id)
        assert completion.status == "ok"
        # Only the doorbell write cost time — no recovery waits.
        assert machine.now == before + machine.d2h_link.latency_s
        assert log.events == []
        assert dispatcher.retries == 0


class TestDeadlineRetries:
    def test_lost_completion_recovered_by_retry(self, machine):
        dispatcher, log = make_dispatcher(machine)
        command_id = dispatcher.invoke("scan", binary_address=0x1000)
        machine.csd.queue_pair.cq.arm_loss(1)
        dispatcher.complete(command_id)  # swallowed by the armed loss
        before = machine.now
        completion = dispatcher.reap_completion(command_id)
        assert completion.status == "ok"
        # One full deadline window elapsed before the retry re-posted.
        assert machine.now >= before + machine.config.command_deadline_s
        assert dispatcher.retries == 1
        assert log.actions() == ["retry"]

    def test_repeated_loss_exhausts_retries(self, machine):
        config = machine.config
        dispatcher, log = make_dispatcher(machine)
        command_id = dispatcher.invoke("scan", binary_address=0x1000)
        # Swallow the original and every retry's repost.
        machine.csd.queue_pair.cq.arm_loss(1 + config.command_max_retries)
        dispatcher.complete(command_id)
        with pytest.raises(DeviceLostError):
            dispatcher.reap_completion(command_id)
        assert log.actions().count("retry") == config.command_max_retries
        assert log.actions()[-1] == "device-dead"

    def test_retry_does_not_repost_for_dead_device(self, machine):
        dispatcher, _ = make_dispatcher(machine)
        command_id = dispatcher.invoke("scan", binary_address=0x1000)
        machine.csd.crash_cse()  # completion never comes, no repost either
        with pytest.raises(DeviceLostError):
            dispatcher.reap_completion(command_id)
        assert machine.csd.queue_pair.cq.is_empty

    def test_backoff_waits_are_sim_time(self, machine):
        config = machine.config
        dispatcher, _ = make_dispatcher(machine)
        command_id = dispatcher.invoke("scan", binary_address=0x1000)
        machine.csd.queue_pair.cq.arm_loss(1)
        dispatcher.complete(command_id)
        before = machine.now
        dispatcher.reap_completion(command_id)
        # One deadline window of backoff steps, then the retry landed.
        assert machine.now == pytest.approx(
            before + config.command_deadline_s, abs=config.retry_backoff_base_s
        )


class TestDuplicateIdempotence:
    def test_late_completion_after_retry_is_dropped(self, machine):
        config = machine.config
        dispatcher, log = make_dispatcher(machine)
        command_id = dispatcher.invoke("scan", binary_address=0x1000)
        # The original completion is posted but arrives later than the
        # command deadline: the host retries first, then sees both.
        machine.csd.queue_pair.cq.arm_delay(config.command_deadline_s * 1.5)
        dispatcher.complete(command_id)
        completion = dispatcher.reap_completion(command_id)
        assert completion.status == "ok"
        assert dispatcher.retries >= 1
        # Whichever copy surfaced second was dropped, not double-counted.
        remaining = machine.csd.queue_pair.cq.drain()
        duplicate_ids = [c.command_id for c in remaining]
        assert duplicate_ids in ([], [command_id])
        if duplicate_ids:
            machine.csd.queue_pair.cq.post(remaining[0])
            assert dispatcher._try_reap(999) is None  # dropped as duplicate
            assert dispatcher.duplicates_dropped == 1
            assert "duplicate-dropped" in log.actions()

    def test_abandoned_command_completion_is_dropped(self, machine):
        dispatcher, log = make_dispatcher(machine)
        command_id = dispatcher.invoke("scan", binary_address=0x1000)
        dispatcher.abandon(command_id)
        dispatcher.complete(command_id)  # reset device replaying its queue
        assert dispatcher._try_reap(command_id + 1) is None
        assert dispatcher.duplicates_dropped == 1
        assert "duplicate-dropped" in log.actions()
        assert machine.csd.queue_pair.cq.is_empty

    def test_mismatched_completion_still_raises(self, machine):
        dispatcher, _ = make_dispatcher(machine)
        command_id = dispatcher.invoke("scan", binary_address=0x1000)
        machine.csd.queue_pair.cq.post(Completion(command_id=777, status="ok"))
        with pytest.raises(DispatchError):
            dispatcher.reap_completion(command_id)


class TestQueueFullBackPressure:
    def _fill_submission_queue(self, machine):
        sq = machine.csd.queue_pair.sq
        while not sq.is_full:
            sq.submit(opcode="noop")
        return sq

    def test_blocks_until_device_drains_a_slot(self, machine):
        config = machine.config
        sq = self._fill_submission_queue(machine)
        # The device wakes up and drains its backlog shortly after the
        # host starts waiting.
        free_at = machine.now + config.retry_backoff_base_s * 2

        def drain_backlog():
            while not sq.is_empty:
                sq.fetch()

        machine.simulator.schedule_at(free_at, drain_backlog, label="device-fetch")
        dispatcher, log = make_dispatcher(machine)
        command_id = dispatcher.invoke("scan", binary_address=0x1000)
        assert command_id >= 0
        assert dispatcher.backpressure_waits >= 1
        assert machine.now >= free_at
        assert "queue-space-acquired" in log.actions()

    def test_bounded_wait_then_dispatch_error(self, machine):
        config = machine.config
        self._fill_submission_queue(machine)
        dispatcher, log = make_dispatcher(machine)
        before = machine.now
        with pytest.raises(DispatchError):
            dispatcher.invoke("scan", binary_address=0x1000)
        assert machine.now == pytest.approx(
            before + config.queue_full_wait_s, rel=1e-9
        )
        assert log.actions()[-1] == "queue-full-timeout"

    def test_no_wait_when_space_exists(self, machine):
        dispatcher, log = make_dispatcher(machine)
        before = machine.now
        dispatcher.invoke("scan", binary_address=0x1000)
        assert machine.now == before + machine.d2h_link.latency_s
        assert dispatcher.backpressure_waits == 0
        assert log.events == []


class TestQueueStall:
    def test_short_stall_waited_out(self, machine):
        config = machine.config
        stall_until = machine.now + config.command_deadline_s / 2
        machine.csd.queue_pair.stall(stall_until)
        dispatcher, log = make_dispatcher(machine)
        dispatcher.invoke("scan", binary_address=0x1000)
        assert machine.now >= stall_until
        assert "stall-wait" in log.actions()

    def test_long_stall_exceeds_deadline(self, machine):
        config = machine.config
        machine.csd.queue_pair.stall(machine.now + config.command_deadline_s * 3)
        dispatcher, log = make_dispatcher(machine)
        with pytest.raises(DeadlineError):
            dispatcher.invoke("scan", binary_address=0x1000)
        assert log.actions() == ["deadline-exceeded"]

    def test_stalled_queue_hides_completions(self, machine):
        config = machine.config
        dispatcher, _ = make_dispatcher(machine)
        command_id = dispatcher.invoke("scan", binary_address=0x1000)
        dispatcher.complete(command_id)
        stall_until = machine.now + config.retry_backoff_base_s * 3
        machine.csd.queue_pair.stall(stall_until)
        assert dispatcher._try_reap(command_id) is None
        completion = dispatcher.reap_completion(command_id)
        assert completion.status == "ok"
        assert machine.now >= stall_until


class TestStatusPathUnaffected:
    def test_status_updates_flow_during_recovery_bookkeeping(self, machine):
        from repro.runtime.dispatch import StatusUpdate

        dispatcher, _ = make_dispatcher(machine)
        command_id = dispatcher.invoke("scan", binary_address=0x1000)
        dispatcher.post_status(StatusUpdate(
            line_name="scan", chunk=0, ipc=1.0, progress=0.5,
        ))
        dispatcher.complete(command_id)
        updates = dispatcher.drain_status()
        assert len(updates) == 1
        # The final completion posted before drain_status was retained.
        assert dispatcher.reap_completion(command_id).status == "ok"


class TestStatusExchange:
    """``exchange_status`` leaves queue, clock, counters and metrics as
    ``post_status`` followed by ``drain_status`` does, whatever the
    completion queue holds and whatever loss is armed."""

    @staticmethod
    def _observed(config, exchange, *, stale, loss):
        from repro.hw.topology import build_machine
        from repro.obs import Observability
        from repro.runtime.dispatch import StatusUpdate

        machine = build_machine(config, obs=Observability(enabled=True))
        dispatcher, log = make_dispatcher(machine)
        cq = machine.csd.queue_pair.cq
        for command_id in range(stale):
            cq.post(Completion(command_id=command_id))
        if loss:
            cq.arm_loss(loss)
        update = StatusUpdate("scan", 1, 1.0, 0.5)
        if exchange == "idle":
            # The executor's round trip when nothing reads the update:
            # no update is built unless the ring needs one.
            if not dispatcher.exchange_idle_status():
                dispatcher.exchange_status(update)
        elif exchange:
            dispatcher.exchange_status(update)
        else:
            dispatcher.post_status(update)
            dispatcher.drain_status()
        reaped = [cq.reap().command_id for _ in range(len(cq))]
        return (
            reaped, cq.completions_lost, cq.loss_armed, machine.now,
            dispatcher.status_updates, log.events,
            machine.obs.snapshot(),
        )

    @pytest.mark.parametrize("stale", [0, 1, 3])
    @pytest.mark.parametrize("loss", [0, 1, 2, 5])
    def test_matches_post_then_drain(self, config, stale, loss):
        assert (
            self._observed(config, True, stale=stale, loss=loss)
            == self._observed(config, False, stale=stale, loss=loss)
        )

    @pytest.mark.parametrize("stale", [0, 1, 3])
    @pytest.mark.parametrize("loss", [0, 1, 2, 5])
    def test_idle_exchange_matches_post_then_drain(self, config, stale, loss):
        assert (
            self._observed(config, "idle", stale=stale, loss=loss)
            == self._observed(config, False, stale=stale, loss=loss)
        )
