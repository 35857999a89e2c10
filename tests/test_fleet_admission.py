"""Admission control: token buckets, bounded queues, typed shedding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FleetError
from repro.fleet import (
    AdmissionController,
    SHED_QUEUE_FULL,
    SHED_RATE_LIMITED,
    TenantSpec,
    TokenBucket,
)
from repro.fleet.admission import QueuedJob
from repro.fleet.traffic import JobArrival


def _arrival(job_id, tenant="t", priority=1, at=0.0):
    return JobArrival(job_id=job_id, tenant=tenant, workload="kmeans",
                      priority=priority, arrival_time=at)


def _controller(**overrides):
    fields = dict(name="t", rate_jobs_per_s=2.0, admission_rate=2.0,
                  admission_burst=2, queue_limit=3)
    fields.update(overrides)
    return AdmissionController((TenantSpec(**fields),), overload_watermark=100)


class TestTokenBucket:
    def test_burst_then_rate_limited(self):
        bucket = TokenBucket(rate=1.0, burst=2)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)  # burst spent
        assert bucket.try_take(1.0)      # one token refilled after 1s
        assert not bucket.try_take(1.0)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=2)
        assert bucket.try_take(0.0)
        for _ in range(2):
            assert bucket.try_take(100.0)
        assert not bucket.try_take(100.0)

    def test_clock_backwards_is_an_error(self):
        bucket = TokenBucket(rate=1.0, burst=1)
        bucket.try_take(5.0)
        with pytest.raises(FleetError, match="backwards"):
            bucket.try_take(4.0)

    def test_invalid_parameters(self):
        with pytest.raises(FleetError):
            TokenBucket(rate=0.0, burst=1)
        with pytest.raises(FleetError):
            TokenBucket(rate=1.0, burst=0)


class TestAdmission:
    def test_rate_limit_sheds_with_reason(self):
        controller = _controller(admission_rate=1.0, admission_burst=1)
        assert controller.admit(_arrival(0), now=0.0) is None
        assert controller.admit(_arrival(1), now=0.0) == SHED_RATE_LIMITED

    def test_queue_bound_sheds_with_reason(self):
        controller = _controller(admission_rate=100.0, admission_burst=8,
                                 queue_limit=2)
        assert controller.admit(_arrival(0), now=0.0) is None
        assert controller.admit(_arrival(1), now=0.0) is None
        assert controller.admit(_arrival(2), now=0.0) == SHED_QUEUE_FULL

    def test_unknown_tenant_is_an_error(self):
        controller = _controller()
        with pytest.raises(FleetError, match="unknown tenant"):
            controller.admit(_arrival(0, tenant="nobody"), now=0.0)

    def test_unresolved_tenant_rate_is_an_error(self):
        with pytest.raises(FleetError, match="no resolved rate"):
            AdmissionController((TenantSpec(name="t"),), overload_watermark=1)


def _multi_controller(watermark=100):
    tenants = (
        TenantSpec(name="gold", rate_jobs_per_s=1.0, admission_rate=100.0,
                   admission_burst=64, priority=3, queue_limit=64),
        TenantSpec(name="silver", rate_jobs_per_s=1.0, admission_rate=100.0,
                   admission_burst=64, priority=2, queue_limit=64),
        TenantSpec(name="bronze", rate_jobs_per_s=1.0, admission_rate=100.0,
                   admission_burst=64, priority=1, queue_limit=64),
    )
    return AdmissionController(tenants, overload_watermark=watermark)


class TestDispatchOrder:
    def test_highest_priority_first_then_fifo(self):
        controller = _multi_controller()
        controller.admit(_arrival(0, tenant="bronze", priority=1), now=0.0)
        controller.admit(_arrival(1, tenant="gold", priority=3), now=0.0)
        controller.admit(_arrival(2, tenant="gold", priority=3), now=0.0)
        controller.admit(_arrival(3, tenant="silver", priority=2), now=0.0)
        order = [controller.next_job().arrival.job_id for _ in range(4)]
        assert order == [1, 2, 3, 0]
        assert controller.next_job() is None

    def test_requeue_keeps_original_position(self):
        controller = _multi_controller()
        controller.admit(_arrival(0, tenant="gold", priority=3), now=0.0)
        controller.admit(_arrival(1, tenant="gold", priority=3), now=0.0)
        first = controller.next_job()
        assert first.arrival.job_id == 0
        controller.requeue(first)  # a failover re-entry, not a re-admission
        assert controller.next_job().arrival.job_id == 0

    def test_queue_slot_frees_on_dispatch(self):
        controller = _controller(admission_rate=100.0, admission_burst=8,
                                 queue_limit=1)
        assert controller.admit(_arrival(0), now=0.0) is None
        assert controller.next_job() is not None
        assert controller.admit(_arrival(1), now=0.0) is None


class TestOverloadShedding:
    def test_sheds_lowest_priority_newest_first(self):
        controller = _multi_controller(watermark=2)
        controller.admit(_arrival(0, tenant="gold", priority=3), now=0.0)
        controller.admit(_arrival(1, tenant="bronze", priority=1), now=0.0)
        controller.admit(_arrival(2, tenant="bronze", priority=1), now=0.0)
        controller.admit(_arrival(3, tenant="silver", priority=2), now=0.0)
        victims = controller.shed_overload()
        # 4 queued, watermark 2: shed bronze newest (2) then bronze (1).
        assert [v.arrival.job_id for v in victims] == [2, 1]
        assert controller.total_queued == 2
        remaining = [controller.next_job().arrival.job_id for _ in range(2)]
        assert remaining == [0, 3]

    def test_no_shed_under_watermark(self):
        controller = _multi_controller(watermark=5)
        controller.admit(_arrival(0, tenant="gold", priority=3), now=0.0)
        assert controller.shed_overload() == []

    def test_watermark_validated(self):
        with pytest.raises(FleetError, match="overload_watermark"):
            _multi_controller(watermark=0)


class TestDrain:
    def test_drain_returns_everything_in_admission_order(self):
        controller = _multi_controller()
        controller.admit(_arrival(0, tenant="bronze", priority=1), now=0.0)
        controller.admit(_arrival(1, tenant="gold", priority=3), now=0.0)
        drained = controller.drain()
        assert [j.arrival.job_id for j in drained] == [0, 1]
        assert controller.total_queued == 0

    def test_queued_job_priority_property(self):
        job = QueuedJob(arrival=_arrival(9, priority=7), seq=0)
        assert job.priority == 7


class _LinearScanModel:
    """The controller written the slow, obvious way: unsorted queues,
    a linear ``min`` over every queued job to dispatch and a linear
    ``max`` to pick an overload victim."""

    def __init__(self, tenants, watermark):
        self.tenants = {t.name: t for t in tenants}
        self.buckets = {
            t.name: TokenBucket(t.admission_rate, t.admission_burst)
            for t in tenants
        }
        self.queues = {t.name: [] for t in tenants}
        self.watermark = watermark
        self.seq = 0

    @property
    def total_queued(self):
        return sum(len(queue) for queue in self.queues.values())

    def admit(self, arrival, now):
        if not self.buckets[arrival.tenant].try_take(now):
            return SHED_RATE_LIMITED
        queue = self.queues[arrival.tenant]
        if len(queue) >= self.tenants[arrival.tenant].queue_limit:
            return SHED_QUEUE_FULL
        queue.append(QueuedJob(arrival=arrival, seq=self.seq))
        self.seq += 1
        return None

    def requeue(self, job):
        self.queues[job.arrival.tenant].append(job)

    def next_job(self):
        queued = [job for queue in self.queues.values() for job in queue]
        if not queued:
            return None
        job = min(queued, key=lambda job: (-job.priority, job.seq))
        self.queues[job.arrival.tenant].remove(job)
        return job

    def shed_overload(self):
        victims = []
        while self.total_queued > self.watermark:
            _, name = min(
                (self.tenants[name].priority, name)
                for name, queue in self.queues.items() if queue
            )
            victim = max(self.queues[name], key=lambda job: job.seq)
            self.queues[name].remove(victim)
            victims.append(victim)
        return victims

    def drain(self):
        drained = [job for queue in self.queues.values() for job in queue]
        for queue in self.queues.values():
            queue.clear()
        return sorted(drained, key=lambda job: job.seq)


def _ids(jobs):
    return [(job.arrival.job_id, job.seq) for job in jobs]


_OPS = st.one_of(
    st.tuples(st.just("admit"), st.integers(0, 3),
              st.sampled_from([0.0, 0.0, 0.1, 0.5, 2.0])),
    st.tuples(st.just("requeue"), st.integers(0, 7)),
    st.tuples(st.just("next")),
    st.tuples(st.just("next")),
    st.tuples(st.just("shed")),
    st.tuples(st.just("drain")),
)


class TestAgainstLinearScanModel:
    """Every operation returns what the linear-scan model returns."""

    @settings(max_examples=200, deadline=None, print_blob=True)
    @given(
        priorities=st.lists(st.integers(1, 3), min_size=1, max_size=4),
        queue_limit=st.integers(1, 4),
        burst=st.integers(1, 4),
        watermark=st.integers(1, 4),
        ops=st.lists(_OPS, max_size=60),
    )
    def test_same_jobs_in_the_same_order(
        self, priorities, queue_limit, burst, watermark, ops,
    ):
        tenants = tuple(
            TenantSpec(name=f"t{index}", rate_jobs_per_s=1.0,
                       admission_rate=2.0, admission_burst=burst,
                       priority=priority, queue_limit=queue_limit)
            for index, priority in enumerate(priorities)
        )
        controller = AdmissionController(tenants, overload_watermark=watermark)
        model = _LinearScanModel(tenants, watermark)
        # Dispatched jobs a failover may requeue, as (controller, model) pairs.
        running = []
        now = 0.0
        next_id = 0
        for op in ops:
            if op[0] == "admit":
                tenant = tenants[op[1] % len(tenants)]
                now += op[2]
                arrival = _arrival(next_id, tenant=tenant.name,
                                   priority=tenant.priority, at=now)
                next_id += 1
                assert controller.admit(arrival, now) == model.admit(arrival, now)
            elif op[0] == "requeue":
                if running:
                    job, twin = running.pop(op[1] % len(running))
                    controller.requeue(job)
                    model.requeue(twin)
            elif op[0] == "next":
                job, twin = controller.next_job(), model.next_job()
                if twin is None:
                    assert job is None
                else:
                    assert _ids([job]) == _ids([twin])
                    running.append((job, twin))
            elif op[0] == "shed":
                assert _ids(controller.shed_overload()) == _ids(model.shed_overload())
            else:
                assert _ids(controller.drain()) == _ids(model.drain())
            assert controller.total_queued == model.total_queued
