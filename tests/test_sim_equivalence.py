"""The event engine against a heapq oracle and a pinned whole-stack digest.

For any schedule — same-time ties, interleaved cancels,
cancel-after-fire, callbacks that schedule or cancel mid-drain — the
:class:`Simulator` must fire exactly the events a bare ``(time, seq)``
heap fires, in the same order.  This module checks that three ways:

* a hypothesis property test driving the simulator and a ~20-line heapq
  oracle written independently of it through random scripts of
  schedules, cancels and drains;
* hand-written scripts for the adversarial cases (in-callback
  scheduling before already-due events, cancels aimed at events already
  due);
* pinned digests over rotation workloads' run signatures and
  simulated seconds and over replayed chaos campaigns, so any change
  to firing order that reaches a result shows up bit for bit.  Each
  pinned value was produced identically by both engines this one
  replaced (an object heap and a NumPy-array store);
* a pinned digest over whole execution results (every line timing,
  fault event, migration, chunk ledger and counter) of runs that drive
  the executor's fault-free, migrating and recovering paths, plus one
  observed run's metrics and spans.
"""

import hashlib
import heapq
import json
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import CampaignConfig, run_campaign
from repro.chaos.invariants import run_signature
from repro.config import SystemConfig
from repro.obs import Observability
from repro.runtime.activepy import ActivePy, RunOptions
from repro.sim import Simulator
from repro.workloads import get_workload, workload_names

from .test_faults import completion_lost_run, dispatch_refused_run


class HeapOracle:
    """Independent reference: a bare (time, seq) heap, nothing shared
    with the production engine."""

    def __init__(self):
        self.heap = []
        self.seq = 0
        self.cancelled = set()
        self.fired = []

    def schedule(self, time):
        seq = self.seq
        self.seq += 1
        heapq.heappush(self.heap, (time, seq))
        return seq

    def cancel(self, seq):
        self.cancelled.add(seq)

    def drain(self, deadline):
        while self.heap and self.heap[0][0] <= deadline:
            time, seq = heapq.heappop(self.heap)
            if seq in self.cancelled:
                continue
            self.fired.append((time, seq))

    def pending(self):
        return sum(1 for _, seq in self.heap if seq not in self.cancelled)

    def snapshot(self):
        return list(self.heap), set(self.cancelled)

    def restore(self, state):
        self.heap, self.cancelled = list(state[0]), set(state[1])


def run_script(script):
    """Drive a Simulator through (op, ...) tuples; return the firing log.

    Ops: ``("schedule", t)``, ``("cancel", i)`` (i-th handle, modulo,
    whichever timeline it came from), ``("drain", deadline_delta)``,
    ``("snapshot",)`` and ``("restore",)`` (the latest snapshot, if
    any).  The log records ``(time, seq)`` for every fired event and
    the pending count after every op, so the simulator agrees with the
    oracle iff the logs are equal.
    """
    sim = Simulator()
    handles = []
    log = []
    snap = None

    def make_action(handle_slot):
        def action():
            log.append((sim.now, handles[handle_slot].seq))
        return action

    for op in script:
        if op[0] == "schedule":
            slot = len(handles)
            handles.append(None)
            handles[slot] = sim.schedule_at(op[1], make_action(slot))
        elif op[0] == "cancel":
            if handles:
                handles[op[1] % len(handles)].cancel()
        elif op[0] == "drain":
            deadline = sim.now + op[1]
            sim.run_until(deadline)
        elif op[0] == "snapshot":
            snap = sim.snapshot()
        elif op[0] == "restore" and snap is not None:
            sim.restore(snap)
        log.append(("pending", sim.pending_events))
    sim.run_all()
    return log


def run_oracle(script):
    oracle = HeapOracle()
    seqs = []
    now = 0.0
    snap = None
    for op in script:
        if op[0] == "schedule":
            seqs.append(oracle.schedule(op[1]))
        elif op[0] == "cancel":
            if seqs:
                oracle.cancel(seqs[op[1] % len(seqs)])
        elif op[0] == "drain":
            now = now + op[1]
            oracle.drain(now)
        elif op[0] == "snapshot":
            snap = (now, oracle.snapshot())
        elif op[0] == "restore" and snap is not None:
            now = snap[0]
            oracle.restore(snap[1])
        oracle.fired.append(("pending", oracle.pending()))
    oracle.drain(float("inf"))
    return oracle.fired


# Timestamps from a small grid so same-time collisions are common.
_TIMES = st.sampled_from([0.0, 1.0, 1.0, 2.0, 2.5, 3.0, 5.0, 10.0])

_OP = st.one_of(
    st.tuples(st.just("schedule"), _TIMES),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("drain"), st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0])),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("restore")),
)


def _monotonic_schedules(script):
    """Keep only scripts whose schedules are never in the past."""
    now = 0.0
    snap_now = None
    for op in script:
        if op[0] == "drain":
            now += op[1]
        elif op[0] == "snapshot":
            snap_now = now
        elif op[0] == "restore" and snap_now is not None:
            now = snap_now
        elif op[0] == "schedule" and op[1] < now:
            return False
    return True


class TestPropertyEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_OP, min_size=1, max_size=40).filter(_monotonic_schedules))
    def test_engine_matches_the_oracle(self, script):
        assert run_script(script) == run_oracle(script)


class TestAdversarialScripts:
    """Hand-picked cases where a drain could diverge from the heap order."""

    @staticmethod
    def logs_for(build):
        sim = Simulator()
        log = []
        build(sim, log)
        sim.run_all()
        return log

    def test_callback_schedules_earlier_than_rest_of_batch(self):
        # t=1 fires and schedules t=1.5; the batch already holds t=2
        # and t=3 — the new event must jump the queue.
        def build(sim, log):
            def first():
                log.append(("first", sim.now))
                sim.schedule_at(1.5, lambda: log.append(("mid", sim.now)))
            sim.schedule_at(1.0, first)
            sim.schedule_at(2.0, lambda: log.append(("second", sim.now)))
            sim.schedule_at(3.0, lambda: log.append(("third", sim.now)))

        log = self.logs_for(build)
        assert log == [
            ("first", 1.0), ("mid", 1.5), ("second", 2.0), ("third", 3.0),
        ]

    def test_callback_cancels_later_batch_member(self):
        def build(sim, log):
            doomed = {}
            def first():
                log.append(("first", sim.now))
                doomed["h"].cancel()
            sim.schedule_at(1.0, first)
            doomed["h"] = sim.schedule_at(2.0, lambda: log.append(("doomed", sim.now)))
            sim.schedule_at(3.0, lambda: log.append(("last", sim.now)))

        log = self.logs_for(build)
        assert log == [("first", 1.0), ("last", 3.0)]

    def test_callback_cancels_same_time_sibling(self):
        def build(sim, log):
            doomed = {}
            def first():
                log.append("first")
                doomed["h"].cancel()
            sim.schedule_at(1.0, first)
            doomed["h"] = sim.schedule_at(1.0, lambda: log.append("doomed"))
            sim.schedule_at(1.0, lambda: log.append("third"))

        assert self.logs_for(build) == ["first", "third"]

    def test_callback_schedules_same_time_event(self):
        # A same-time event scheduled mid-drain fires after the rest of
        # the batch (higher seq), in the same drain.
        def build(sim, log):
            def first():
                log.append("first")
                sim.schedule_at(sim.now, lambda: log.append("tail"))
            sim.schedule_at(1.0, first)
            sim.schedule_at(1.0, lambda: log.append("second"))

        assert self.logs_for(build) == ["first", "second", "tail"]

    def test_cancel_twice_then_drain(self):
        def build(sim, log):
            handle = sim.schedule_at(1.0, lambda: log.append("x"))
            handle.cancel()
            handle.cancel()
            sim.schedule_at(2.0, lambda: log.append("y"))

        assert self.logs_for(build) == ["y"]

    def test_fire_due_events_between_schedules(self):
        sim = Simulator()
        log = []
        sim.schedule_at(1.0, lambda: log.append(("a", sim.now)))
        sim.schedule_at(3.0, lambda: log.append(("b", sim.now)))
        sim.clock.advance(2.0)
        fired = sim.fire_due_events()
        assert fired == 1
        assert sim.now == 2.0  # fire_due_events never advances
        sim.run_all()
        assert log == [("a", 2.0), ("b", 3.0)]


#: sha256 over the rotation's run signatures and simulated seconds at
#: scale 2**-6 plus the 12-seed chaos campaign's outcome summaries.
#: Captured on the two engines this one replaced, which agreed on it.
PINNED_DIGEST = "641386269105944be3dee34fc5a8afc6378f0ed2ad4d0906c702259db63db52c"
PINNED_SCALE = 2 ** -6


#: Per-workload sha256 of ``(run_signature, repr(total_seconds))`` at
#: scale 2**-7, and of a 6-seed chaos campaign's outcome summaries.
SMALL_SCALE = 2 ** -7
PINNED_RUN_DIGESTS = {
    "tpch_q6": "7287e32953f587856298b3f4bdf0782a52661a63cfdbdb774a75b1966a6d2550",
    "kmeans": "860cfce8ed75c963e3a4660609d0bf6394ed9a588adc788ec6924155c26afc81",
}
PINNED_SMALL_CHAOS_DIGEST = (
    "487c4e948541be6ba33ee142b5df6b4fb6f7c5d4ada064b728fcdae0ee07ca13"
)

#: sha256 over ``json.dumps(result.to_jsonable(), sort_keys=True)`` of
#: every run in ``test_whole_result_digest_is_pinned``, then the observed
#: run's metric snapshot and span list.  The snapshot holds the plan
#: search's ``plansearch.steps_simulated``: 11 steps, down from the
#: unpruned 15 once the search skipped steps that can neither win nor
#: tie; everything else hashes as before.  The result of a re-admission
#: run left the list when re-admission was deleted; the code before
#: that deletion hashes the remaining parts to this same pin.
PINNED_WHOLE_RESULT_DIGEST = (
    "39987614867e371427d0efe5459d6d1151a428d14d648b29754ccb6717436338"
)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestWorkloadEquivalence:
    """Whole-stack bit-identity: runs and campaigns, not micro-scripts."""

    @pytest.mark.parametrize("workload_name", ["tpch_q6", "kmeans"])
    def test_run_signature_matches_across_engines(self, workload_name):
        """The run both retired engines produced, bit for bit."""
        workload = get_workload(workload_name, scale=SMALL_SCALE)
        report = ActivePy(SystemConfig()).run(workload.program, workload.dataset)
        signature = repr((run_signature(report), repr(report.total_seconds)))
        assert _sha256(signature) == PINNED_RUN_DIGESTS[workload_name]

    def test_chaos_campaign_matches_across_engines(self):
        """The campaign outcomes both retired engines produced."""
        result = run_campaign(
            CampaignConfig(runs=6, scale=SMALL_SCALE, base_seed=20230423,
                           collect_metrics=False)
        )
        summaries = "\n".join(repr(outcome.summary()) for outcome in result.outcomes)
        assert _sha256(summaries) == PINNED_SMALL_CHAOS_DIGEST

    def test_rotation_and_chaos_digest_is_pinned(self, rotation_and_loud_chaos):
        rotation, campaign, _ = rotation_and_loud_chaos
        parts = [
            repr((name, run_signature(report), repr(report.total_seconds)))
            for name, report in rotation.items()
        ]
        # summary() holds only judged fields: no metrics, no wall time.
        parts.extend(repr(outcome.summary()) for outcome in campaign.outcomes)
        assert _sha256("\n".join(parts)) == PINNED_DIGEST

    def test_whole_result_digest_is_pinned(self, rotation_and_loud_chaos):
        rotation, _, loud_chaos = rotation_and_loud_chaos
        results = [report.result for report in rotation.values()]
        trigger = RunOptions(progress_triggers=((0.5, 0.1),))
        for migration_enabled in (True, False):
            for name in workload_names():
                workload = get_workload(name, scale=PINNED_SCALE)
                results.append(
                    ActivePy(SystemConfig(), migration_enabled=migration_enabled)
                    .run(workload.program, workload.dataset, options=trigger).result
                )
        with _recorded_reports() as silent_chaos:
            run_campaign(CampaignConfig(
                runs=12, scale=PINNED_SCALE, base_seed=20230423,
                system_config=SystemConfig(integrity_enabled=True),
                silent_corruption=True, collect_metrics=False,
            ))
        results.extend(report.result for report in loud_chaos + silent_chaos)
        workload = get_workload("kmeans", scale=PINNED_SCALE)
        results.append(
            ActivePy(SystemConfig(overlap_io_compute=True))
            .run(workload.program, workload.dataset, options=trigger).result
        )
        results.append(dispatch_refused_run(SystemConfig()))
        results.append(completion_lost_run(SystemConfig()))
        parts = [json.dumps(result.to_jsonable(), sort_keys=True) for result in results]

        # One observed run: its metric snapshot and every span.
        obs = Observability.with_tracing()
        workload = get_workload("pagerank", scale=PINNED_SCALE)
        ActivePy(SystemConfig(), profile_cache=False, plan_mode="search").run(
            workload.program, workload.dataset,
            options=RunOptions(obs=obs, progress_triggers=((0.5, 0.1),)),
        )
        parts.append(json.dumps(obs.snapshot(), sort_keys=True))
        parts.append(repr(obs.tracer.spans))
        assert _sha256("\n".join(parts)) == PINNED_WHOLE_RESULT_DIGEST


@contextmanager
def _recorded_reports():
    """Collect the report of every ActivePy.run inside the block."""
    reports = []
    original = ActivePy.run

    def run(self, *args, **kwargs):
        report = original(self, *args, **kwargs)
        reports.append(report)
        return report

    with mock.patch.object(ActivePy, "run", run):
        yield reports


@pytest.fixture(scope="module")
def rotation_and_loud_chaos():
    """The greedy rotation at 2**-6 and the 12-seed loud campaign (its
    fault-free baselines included), run once for both digests."""
    rotation = {}
    for name in workload_names():
        workload = get_workload(name, scale=PINNED_SCALE)
        rotation[name] = ActivePy(SystemConfig()).run(workload.program, workload.dataset)
    with _recorded_reports() as reports:
        campaign = run_campaign(
            CampaignConfig(runs=12, scale=PINNED_SCALE, base_seed=20230423,
                           collect_metrics=False)
        )
    return rotation, campaign, reports
