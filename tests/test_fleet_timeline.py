"""The fleet flight recorder: timelines, alerts, and the fleet Chrome trace."""

import gc
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_CONFIG
from repro.errors import FleetError
from repro.faults.spec import FaultKind, FaultPlan, FaultSpec
from repro.fleet import (
    DEFAULT_SLO_MULTIPLE,
    Fleet,
    FleetConfig,
    ProfileStore,
    TenantSpec,
    check_fleet_invariants,
    default_tenants,
    to_fleet_chrome_trace,
    write_fleet_chrome_trace,
)
from repro.fleet.fleet import SLO_ERROR_BUDGET
from repro.obs import FlightRecorder, Observability, validate_chrome_trace

_SCALE = 2 ** -6

#: The scripted device-loss scenario the CI smoke also runs: two
#: devices, one lost early and never rejoining, so the survivor's queue
#: grows and the sliding-window p99 breaches the SLO for good.
_LOSS_PLAN = FaultPlan((FaultSpec(
    kind=FaultKind.DEVICE_LOST_MID_JOB, target="csd1", at_time=0.3,
),))


@pytest.fixture(scope="module")
def store():
    """One profile store for the whole module: inner runs paid once."""
    return ProfileStore(system_config=DEFAULT_CONFIG, scale=_SCALE)


def _config(**overrides):
    fields = dict(
        device_count=2,
        tenants=default_tenants(3),
        job_count=32,
        seed=0,
        scale=_SCALE,
    )
    fields.update(overrides)
    return FleetConfig(**fields)


def _recorded(store, tracing=False, **overrides):
    obs = Observability.with_timeseries(tracing=tracing)
    return Fleet(_config(**overrides), profiles=store, obs=obs).run(), obs


class TestRecorderIsFree:
    def test_disabled_run_is_bit_identical(self, store):
        plain = Fleet(_config(), profiles=store).run()
        recorded, _ = _recorded(store)
        assert recorded.makespan_s == plain.makespan_s
        assert recorded.throughput_jobs_per_s == plain.throughput_jobs_per_s
        assert (
            [o.signature for o in recorded.outcomes]
            == [o.signature for o in plain.outcomes]
        )
        assert (
            [(o.job_id, o.status, o.finish_time) for o in recorded.outcomes]
            == [(o.job_id, o.status, o.finish_time) for o in plain.outcomes]
        )

    def test_disabled_run_collects_nothing(self, store):
        plain = Fleet(_config(), profiles=store).run()
        assert plain.timeline == {}
        assert plain.alerts == ()
        assert plain.trace_spans == ()
        assert plain.trace_instants == ()
        payload = plain.to_jsonable()
        assert "timeline" not in payload and "alerts" not in payload

    def test_recorded_run_leaves_no_cyclic_garbage(self, store):
        """A finished run's recorder is freed at once, not by the cycle
        collector during whatever runs next."""
        # Pay the inner profiling first, so the check below covers the
        # recorded fleet loop alone, whatever test ran before this one.
        Fleet(_config(plan=_LOSS_PLAN), profiles=store).run()
        gc.collect()
        gc.disable()
        try:
            _recorded(store, plan=_LOSS_PLAN)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_loss_run_is_bit_identical_too(self, store):
        plain = Fleet(_config(plan=_LOSS_PLAN), profiles=store).run()
        recorded, _ = _recorded(store, plan=_LOSS_PLAN)
        assert recorded.makespan_s == plain.makespan_s
        assert (
            [o.signature for o in recorded.outcomes]
            == [o.signature for o in plain.outcomes]
        )


class TestTimelineSeries:
    def test_expected_series_exist(self, store):
        report, obs = _recorded(store)
        names = obs.timeseries.names()
        assert "fleet.queue_depth" in names
        assert "fleet.util.csd" in names and "fleet.util.csd1" in names
        assert "fleet.rate.arrived" in names
        assert "fleet.rate.admitted" in names
        assert "fleet.rate.finished" in names
        for tenant in report.tenant_names:
            assert f"fleet.e2e.{tenant}" in names
            assert f"fleet.slo_window.{tenant}.e2e_p50_s" in names
            assert f"fleet.slo_window.{tenant}.e2e_p99_s" in names
            assert f"fleet.burn.{tenant}" in names
        assert report.timeline["series"].keys() == set(names)

    def test_timeline_is_the_recorder_at_run_end(self, store):
        """The report's dump is built on first use, from a copy of the
        recorder taken at run end: later writes to the live recorder
        do not reach it."""
        report, obs = _recorded(store)
        at_end = obs.timeseries.to_jsonable()
        assert report.recorder is not obs.timeseries
        obs.timeseries.gauge("fleet.queue_depth", report.makespan_s + 1.0, 9.0)
        obs.timeseries.observe("later", 0.0, 1.0)
        assert report.timeline == at_end
        assert report.timeline is report.timeline
        assert report.to_jsonable()["timeline"] == at_end

    def test_utilization_is_zero_or_one(self, store):
        _, obs = _recorded(store)
        for name in obs.timeseries.names():
            if name.startswith("fleet.util."):
                assert set(obs.timeseries.series(name).values()) <= {0.0, 1.0}

    def test_sliding_window_agrees_with_whole_run_on_uniform_workload(
        self, store
    ):
        """With a horizon covering the whole run and a single-workload
        tenant, the last sliding-window p50/p99 points equal the
        whole-run SloSnapshot percentiles exactly."""
        tenant = TenantSpec(
            name="t", rate_jobs_per_s=6.0, admission_rate=1000.0,
            admission_burst=64, queue_limit=256, workloads=("tpch_q6",),
        )
        obs = Observability.with_timeseries(sample_horizon_s=1e9)
        report = Fleet(
            _config(tenants=(tenant,), job_count=12),
            profiles=store, obs=obs,
        ).run()
        snapshot = report.slo_for("t")
        assert snapshot.end_to_end_samples  # the comparison is non-vacuous
        recorder = obs.timeseries
        for q, expected in (
            (50.0, snapshot.end_to_end_p50_s),
            (99.0, snapshot.end_to_end_p99_s),
        ):
            series = recorder.series(f"fleet.slo_window.t.e2e_p{int(q)}_s")
            assert series.last()[1] == expected

    def test_loss_run_shows_survivor_saturated(self, store):
        _, obs = _recorded(store, plan=_LOSS_PLAN)
        lost = obs.timeseries.series("fleet.util.csd1")
        assert lost.last()[1] == 0.0
        depth = obs.timeseries.series("fleet.queue_depth")
        assert max(depth.values()) >= 4  # the backlog the alert sees


class TestSloWindowsMatchReplay:
    """The SLO-window series against a replay into a fresh recorder.

    The oracle observes each tenant's finished jobs, in the order they
    finished, into a public ``FlightRecorder`` with the run's capacity
    and horizon, and queries the window after every one.  A gauge keeps
    one point per instant (the last) and the newest ``capacity`` of
    them, so the oracle does the same with a dict.
    """

    @settings(max_examples=40, deadline=None, print_blob=True)
    @given(
        device_count=st.integers(1, 3),
        tenant_count=st.integers(1, 3),
        job_count=st.integers(1, 40),
        seed=st.integers(0, 10_000),
        target_load=st.sampled_from([0.5, 1.0, 2.5]),
        loss_at=st.none() | st.sampled_from([0.2, 1.0]),
        capacity=st.sampled_from([1, 2, 3, 5, 8, 4096]),
        sample_horizon_s=st.sampled_from([0.05, 0.3, 1.0, 1e9]),
    )
    def test_every_window_point_matches_the_replay(
        self, store, device_count, tenant_count, job_count, seed,
        target_load, loss_at, capacity, sample_horizon_s,
    ):
        plan = FaultPlan(()) if loss_at is None else FaultPlan((FaultSpec(
            kind=FaultKind.DEVICE_LOST_MID_JOB, target="csd",
            at_time=loss_at, duration_s=0.5,
        ),))
        # Tracing on: the job spans give the finish order.
        obs = Observability.with_timeseries(
            capacity=capacity, sample_horizon_s=sample_horizon_s, tracing=True,
        )
        report = Fleet(_config(
            device_count=device_count, tenants=default_tenants(tenant_count),
            job_count=job_count, seed=seed, target_load=target_load, plan=plan,
        ), profiles=store, obs=obs).run()
        series = report.timeline["series"]
        # Finished jobs in the order they finished: the fleet's job
        # spans are appended as each job completes.
        by_id = {o.job_id: o for o in report.outcomes}
        finished = [
            by_id[int(span.name.rsplit("#", 1)[1])]
            for span in report.trace_spans if span.cat == "job"
        ]
        assert len(finished) == report.completed + report.degraded
        for tenant in report.tenant_names:
            mine = [o for o in finished if o.tenant == tenant]
            names = (
                f"fleet.slo_window.{tenant}.e2e_p50_s",
                f"fleet.slo_window.{tenant}.e2e_p99_s",
                f"fleet.burn.{tenant}",
            )
            if not mine:
                assert not set(names) & set(series)
                continue
            target = report.slo_targets[tenant]
            replay = FlightRecorder(
                capacity=capacity, sample_horizon_s=sample_horizon_s,
            )
            expected = ({}, {}, {})
            for outcome in mine:
                t = outcome.finish_time
                replay.observe("e2e", t, outcome.end_to_end_s)
                window = replay.window_values("e2e", t)
                over = sum(1 for v in window if v > target)
                expected[0][t] = replay.window_percentile("e2e", 50.0, t)
                expected[1][t] = replay.window_percentile("e2e", 99.0, t)
                expected[2][t] = (over / len(window)) / SLO_ERROR_BUDGET
            for name, points in zip(names, expected):
                assert series[name]["points"] == (
                    [[t, v] for t, v in points.items()][-capacity:]
                ), name


class TestSloTargetsAndAlerts:
    def test_default_targets_derive_from_baselines(self, store):
        fleet = Fleet(_config(), profiles=store)
        tenants = fleet.resolve_tenants()
        targets = fleet.slo_targets(tenants)
        for tenant in tenants:
            slowest = max(
                store.baseline(w).service_seconds for w in tenant.workloads
            )
            assert targets[tenant.name] == DEFAULT_SLO_MULTIPLE * slowest

    def test_explicit_slo_wins(self, store):
        tenant = TenantSpec(name="t", rate_jobs_per_s=4.0, slo_e2e_s=0.75)
        fleet = Fleet(_config(tenants=(tenant,)), profiles=store)
        assert fleet.slo_targets((tenant,)) == {"t": 0.75}

    def test_slo_must_be_positive(self):
        with pytest.raises(FleetError):
            TenantSpec(name="t", slo_e2e_s=0.0)

    def test_clean_run_raises_no_alerts(self, store):
        report, _ = _recorded(store)
        assert report.alerts == ()

    def test_device_loss_fires_slo_burn_alert(self, store):
        report, _ = _recorded(store, plan=_LOSS_PLAN)
        assert report.alerts, "losing half the fleet must breach the SLO"
        rules = {alert.rule for alert in report.alerts}
        assert any(rule.startswith("slo-burn:") for rule in rules)
        for alert in report.alerts:
            assert alert.value > alert.threshold
            assert alert.series in report.timeline["series"]
        # The alert counters land in the metrics snapshot too.
        counters = report.metrics["counters"]
        assert counters["obs.alerts.fired"] == len(report.alerts)

    def test_alerts_survive_json_round_trip(self, store):
        report, _ = _recorded(store, plan=_LOSS_PLAN)
        payload = json.loads(json.dumps(report.to_jsonable()))
        assert payload["alerts"]
        assert payload["slo_targets"]
        assert payload["timeline"]["series"]
        rendered = report.render()
        assert "ALERT slo-burn:" in rendered

    def test_invariants_hold_on_recorded_loss_run(self, store):
        report, _ = _recorded(store, plan=_LOSS_PLAN)
        assert check_fleet_invariants(report, _LOSS_PLAN, store) == []


class TestFleetChromeTrace:
    def test_trace_validates_and_has_instants(self, store, tmp_path):
        report, _ = _recorded(store, tracing=True, plan=_LOSS_PLAN)
        path = tmp_path / "fleet_trace.json"
        trace = write_fleet_chrome_trace(report, str(path))
        assert validate_chrome_trace(trace) == []
        on_disk = json.loads(path.read_text())
        assert on_disk == json.loads(json.dumps(trace))
        phases = {event["ph"] for event in trace["traceEvents"]}
        assert phases == {"M", "X", "i"}
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert any(e["name"] == "device lost" for e in instants)

    def test_tracks_are_per_device_plus_fleet(self, store):
        report, _ = _recorded(store, tracing=True, plan=_LOSS_PLAN)
        trace = to_fleet_chrome_trace(report)
        names = [
            event["args"]["name"] for event in trace["traceEvents"]
            if event["ph"] == "M"
        ]
        assert names == ["csd", "csd1", "fleet"]

    def test_every_finished_job_has_a_span(self, store):
        report, _ = _recorded(store, tracing=True)
        trace = to_fleet_chrome_trace(report)
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        finished = [o for o in report.outcomes if o.status != "shed"]
        assert len([s for s in spans if s["cat"] == "job"]) == len(finished)
        assert all(s["dur"] >= 0 for s in spans)

    def test_recorderless_report_refuses_to_export(self, store):
        plain = Fleet(_config(), profiles=store).run()
        with pytest.raises(FleetError):
            to_fleet_chrome_trace(plain)

    def test_recorder_without_tracer_collects_no_spans(self, store):
        report, _ = _recorded(store, plan=_LOSS_PLAN)
        assert report.timeline["series"]
        assert report.trace_spans == ()
        assert report.trace_instants == ()
        with pytest.raises(FleetError, match=(
            r"no trace material; run the fleet with "
            r"Observability\.with_tracing\(\) "
            r"\(or with_timeseries\(tracing=True\)\) to collect spans"
        )):
            to_fleet_chrome_trace(report)

    def test_tracer_only_handle_also_collects(self, store):
        obs = Observability.with_tracing()
        report = Fleet(_config(), profiles=store, obs=obs).run()
        assert report.trace_spans
        assert validate_chrome_trace(to_fleet_chrome_trace(report)) == []
        # ... but no recorder means no timeline and no alerts.
        assert report.timeline == {}
        assert report.alerts == ()


class TestTimelineCli:
    def test_fleet_run_timeline_prints_dashboard(self, capsys):
        from repro.cli import main

        assert main([
            "fleet", "run", "--devices", "2", "--jobs", "8", "--timeline",
        ]) == 0
        out = capsys.readouterr().out
        assert "timeline (window" in out
        assert "fleet.queue_depth" in out

    def test_fleet_run_trace_out_validates(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "trace.json"
        assert main([
            "fleet", "run", "--devices", "2", "--jobs", "8",
            "--trace-out", str(path),
        ]) == 0
        assert "validates clean" in capsys.readouterr().out
        trace = json.loads(path.read_text())
        assert validate_chrome_trace(trace) == []

    def test_scripted_loss_run_alerts_on_stdout(self, capsys):
        from repro.cli import main

        assert main([
            "fleet", "run", "--devices", "2", "--jobs", "32",
            "--lose-device", "csd1", "--lose-at", "0.3", "--timeline",
        ]) == 0
        assert "ALERT slo-burn:" in capsys.readouterr().out
