"""Pin what a fleet run reports and traces, byte for byte.

One sha256 over the JSON report and the Chrome trace of six fleet
runs with the flight recorder and the tracer on.  Together they reach
every branch of the scheduler: placement and completion, failover with
backoff and checkpoint resume, a device rejoin, the three shed reasons
the event loop raises (retry budget, no live device, overload) and
tenant fault windows with the planted ``no_isolation`` residue off and
on.  A change to the event loop that moves any outcome, timeline point,
metric or trace event moves the digest.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.faults.spec import FaultKind, FaultPlan, FaultSpec
from repro.fleet import (
    Fleet,
    FleetConfig,
    ProfileStore,
    default_tenants,
    to_fleet_chrome_trace,
)
from repro.obs import Observability

#: sha256 over ``json.dumps(report.to_jsonable(), sort_keys=True)`` and
#: the JSON of ``to_fleet_chrome_trace(report)`` for every run in
#: ``CONFIGS``, in order.  Same value with a cold and a warm profile
#: cache.
PINNED_FLEET_DIGEST = (
    "f4f510e4f6948ceb8b75ba71f2832f54a1b4624b34ac12a547f8619c4dfcac8d"
)


#: The ``serve`` run's recorder shapes for the second pin.  Its 1 000-job
#: ``fleet.e2e.*`` series stop at ~345 of 4 096 points, so a 32-point ring
#: wraps each of them; a 1 000 s horizon outlasts the ~93 s makespan, so
#: every window is the whole ring.
RECORDERS = (
    ("ring-wrap", {"capacity": 32}),
    ("whole-ring-window", {"sample_horizon_s": 1000.0}),
)

#: sha256, as for ``PINNED_FLEET_DIGEST``, over the ``serve`` run
#: recorded under each of ``RECORDERS``, in order.
PINNED_RING_DIGEST = (
    "e8d1f16031f49c224b981398bf2eed3a154995ec972782f1a9cf8f2c435d3195"
)


#: sha256 over ``json.dumps(report.to_jsonable(), sort_keys=True)`` for
#: the ``serve`` run with no handle passed (``obs=None``): the fleet's own
#: metrics-only handle, no recorder and no trace.  The job metrics are
#: part of the report, so this pins them on the recorder-off path.
PINNED_RECORDER_OFF_DIGEST = (
    "a4101b056266612e31ede172040f9791f41bd9b741ed8ecb31bb85cff8e05873"
)


def _loss(target, at_time, duration_s=0.0):
    return FaultSpec(kind=FaultKind.DEVICE_LOST_MID_JOB, target=target,
                     at_time=at_time, duration_s=duration_s)


def _window(tenant, at_time, duration_s):
    return FaultSpec(kind=FaultKind.TENANT_FAULT_INJECTION, target=tenant,
                     at_time=at_time, duration_s=duration_s)


def _plan(*specs):
    return FaultPlan(specs=specs)


#: The ``fleet_serve`` benchmark's shape: widened admission buffers, 1 000
#: jobs at 0.9 load on 4 devices, ``csd1`` lost at 40 s and back at 70 s.
_SERVE_TENANTS = tuple(
    dataclasses.replace(t, admission_burst=64, queue_limit=256)
    for t in default_tenants()
)

CONFIGS = (
    ("serve", FleetConfig(
        tenants=_SERVE_TENANTS, job_count=1000, target_load=0.9,
        overload_watermark=256, plan=_plan(_loss("csd1", 40.0, 30.0)),
    )),
    ("retry-budget", FleetConfig(
        max_retries=0, plan=_plan(_loss("csd1", 1.0)),
    )),
    ("only-device-lost", FleetConfig(
        device_count=1, plan=_plan(_loss("csd", 1.0)),
    )),
    ("overload", FleetConfig(
        job_count=48, target_load=3.0, overload_watermark=2,
    )),
    ("tenant-window", FleetConfig(
        plan=_plan(_window("tenant-a", 0.3, 1.5)),
    )),
    ("tenant-window-no-isolation", FleetConfig(
        no_isolation=True, plan=_plan(_window("tenant-a", 0.3, 1.5)),
    )),
)


def _run(config, **recorder):
    store = ProfileStore(system_config=config.system_config, scale=config.scale)
    # Tracing on: the digests cover the Chrome trace, and a recorded run
    # collects spans only when a tracer is attached.
    obs = Observability.with_timeseries(tracing=True, **recorder)
    return Fleet(config, profiles=store, obs=obs).run()


def _digest(reports, named=CONFIGS):
    hasher = hashlib.sha256()
    for (name, _), report in zip(named, reports):
        hasher.update(name.encode())
        hasher.update(json.dumps(report.to_jsonable(), sort_keys=True).encode())
        hasher.update(
            json.dumps(to_fleet_chrome_trace(report), sort_keys=True).encode()
        )
    return hasher.hexdigest()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Every config's report from a cold profile cache, then a warm one."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_PROFCACHE", "1")
        patch.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("profcache")))
        return [[_run(config) for _, config in CONFIGS] for _ in ("cold", "warm")]


@pytest.fixture(scope="module")
def ring_runs(tmp_path_factory):
    """The ``serve`` run's report under each of ``RECORDERS``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_PROFCACHE", "1")
        patch.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("profcache")))
        serve = CONFIGS[0][1]
        return [_run(serve, **recorder) for _, recorder in RECORDERS]


@pytest.fixture(scope="module")
def recorder_off_run(tmp_path_factory):
    """The ``serve`` run's report with no observability handle passed."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_PROFCACHE", "1")
        patch.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("profcache")))
        serve = CONFIGS[0][1]
        store = ProfileStore(system_config=serve.system_config, scale=serve.scale)
        return Fleet(serve, profiles=store, obs=None).run()


class TestFleetDigest:
    def test_report_and_trace_are_pinned(self, runs):
        cold, _ = runs
        assert _digest(cold) == PINNED_FLEET_DIGEST

    def test_profile_cache_does_not_move_it(self, runs):
        cold, warm = runs
        assert _digest(warm) == _digest(cold)

    def test_configs_reach_every_shed_reason_and_the_residue(self, runs):
        cold, _ = runs
        reasons = {reason for report in cold for reason in report.shed_by_reason}
        assert reasons == {
            "retry-budget-exhausted", "no-live-devices", "overload-shed",
        }
        residue = [
            o for o in cold[-1].outcomes if "+residue:" in str(o.signature)
        ]
        assert residue


class TestRingDigest:
    def test_wrapped_and_whole_ring_windows_are_pinned(self, ring_runs):
        assert _digest(ring_runs, named=RECORDERS) == PINNED_RING_DIGEST

    def test_every_latency_ring_wraps_inside_the_horizon(self, ring_runs):
        wrapped, whole = (report.timeline["series"] for report in ring_runs)
        e2e = [name for name in whole if name.startswith("fleet.e2e.")]
        assert len(e2e) == 3
        for name in e2e:
            assert len(wrapped[name]["points"]) == 32
            assert len(whole[name]["points"]) > 32
        assert ring_runs[1].makespan_s < 1000.0


class TestRecorderOffDigest:
    def test_metrics_only_report_is_pinned(self, recorder_off_run):
        payload = recorder_off_run.to_jsonable()
        assert "timeline" not in payload
        assert payload["metrics"]["counters"]["fleet.dispatches"] > 1000
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()
        assert digest == PINNED_RECORDER_OFF_DIGEST
