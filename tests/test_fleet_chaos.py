"""Fleet chaos: the rack invariants, the planted bug, the shrinker."""

import pytest

from repro.chaos import run_campaign
from repro.errors import FleetError, TenantIsolationError
from repro.faults.spec import FLEET_KINDS, FaultKind, FaultPlan, FaultSpec
from repro.fleet import (
    FleetCampaignConfig,
    FleetHarness,
    check_fleet_invariants,
    raise_for_violations,
    random_fleet_plan,
)
from repro.fleet.fleet import FleetReport, JobOutcome

_JOBS = 16


@pytest.fixture(scope="module")
def harness():
    return FleetHarness(FleetCampaignConfig(runs=1, job_count=_JOBS))


@pytest.fixture(scope="module")
def buggy_harness():
    return FleetHarness(FleetCampaignConfig(
        runs=1, job_count=24, no_isolation=True,
    ))


class TestRandomFleetPlan:
    def test_deterministic_and_fleet_only(self):
        first = random_fleet_plan(seed=9, horizon_s=4.0, device_count=4,
                                  tenant_names=("a", "b"), count=6)
        second = random_fleet_plan(seed=9, horizon_s=4.0, device_count=4,
                                   tenant_names=("a", "b"), count=6)
        assert first == second
        assert all(spec.kind in FLEET_KINDS for spec in first)
        assert len(first) == 6

    def test_validation(self):
        with pytest.raises(FleetError):
            random_fleet_plan(seed=0, horizon_s=0.0, device_count=1,
                              tenant_names=("a",))
        with pytest.raises(FleetError):
            random_fleet_plan(seed=0, horizon_s=1.0, device_count=1,
                              tenant_names=())


class TestInvariantsHold:
    def test_campaign_over_many_seeds_is_clean(self, harness):
        for seed in range(12):
            outcome = harness.run_seed(seed)
            assert outcome.ok, [v.render() for v in outcome.violations]

    def test_replay_is_deterministic(self, harness):
        first = harness.run_seed(4)
        second = harness.run_seed(4)
        assert first.to_jsonable() == second.to_jsonable()

    def test_profile_cache_is_shared_across_runs(self, harness):
        before = harness.profiles.runs
        harness.run_seed(1)
        harness.run_seed(1)
        after = harness.profiles.runs
        # The second replay must hit only the outer DES: any inner
        # ActivePy runs it needed were already cached by the first.
        first_cost = after - before
        harness.run_seed(1)
        assert harness.profiles.runs == after, (
            f"replay re-ran {harness.profiles.runs - after} inner run(s); "
            f"first run cost {first_cost}"
        )


class TestPlantedIsolationBug:
    def test_campaign_catches_and_shrinks_to_one_minimal(self, buggy_harness):
        result = run_campaign(FleetCampaignConfig(
            runs=3, job_count=24, base_seed=1, no_isolation=True,
        ))
        assert not result.ok
        assert result.failures
        for failure in result.failures:
            names = {v.name for v in failure.outcome.violations}
            assert "tenant-isolation" in names
            # ddmin: only the tenant-fault window is load-bearing.
            assert len(failure.shrink.minimal) == 1
            (spec,) = failure.shrink.minimal.specs
            assert spec.kind is FaultKind.TENANT_FAULT_INJECTION
            assert "--fleet" in failure.replay_command
            assert "--no-isolation" in failure.replay_command

    def test_correct_scheduler_passes_the_same_seeds(self):
        result = run_campaign(FleetCampaignConfig(
            runs=3, job_count=24, base_seed=1, no_isolation=False,
        ))
        assert result.ok, result.render()

    def test_violation_names_the_bystander_tenant(self, buggy_harness):
        outcome = buggy_harness.run_seed(1)
        assert not outcome.ok
        violation = next(v for v in outcome.violations
                         if v.name == "tenant-isolation")
        assert "was not targeted" in violation.detail


class TestInvariantChecker:
    def _report(self, outcomes):
        return FleetReport(
            device_count=1, tenant_names=("t",), seed=0,
            job_count=len(outcomes), outcomes=tuple(outcomes), slos=(),
            makespan_s=1.0, throughput_jobs_per_s=1.0,
            shed_by_reason={}, device_events=(), profile_runs=0,
        )

    def _outcome(self, **overrides):
        fields = dict(
            job_id=0, tenant="t", workload="kmeans", priority=1,
            status="completed", arrival_time=0.0, finish_time=1.0,
            admitted=True, first_dispatch_time=0.5,
            signature=("kmeans", ("a",), "00000000"),
        )
        fields.update(overrides)
        return JobOutcome(**fields)

    def test_silent_shed_is_a_termination_violation(self, harness):
        report = self._report([self._outcome(status="shed", reason=None,
                                             error=None, signature=None)])
        violations = check_fleet_invariants(
            report, FaultPlan(), harness.profiles,
        )
        assert any(v.name == "job-termination" and "silently" in v.detail
                   for v in violations)

    def test_unknown_status_is_a_termination_violation(self, harness):
        report = self._report([self._outcome(status="vanished")])
        violations = check_fleet_invariants(
            report, FaultPlan(), harness.profiles,
        )
        assert any(v.name == "job-termination" for v in violations)

    def test_bystander_signature_drift_is_an_isolation_violation(
        self, harness,
    ):
        baseline = harness.profiles.baseline("kmeans")
        bad = tuple(baseline.signature[:2]) + ("deadbeef",)
        report = self._report([self._outcome(signature=bad)])
        violations = check_fleet_invariants(
            report, FaultPlan(), harness.profiles,
        )
        assert any(v.name == "tenant-isolation" for v in violations)

    def test_targeted_tenant_is_exempt_from_isolation(self, harness):
        baseline = harness.profiles.baseline("kmeans")
        bad = tuple(baseline.signature[:2]) + ("deadbeef",)
        plan = FaultPlan(specs=(FaultSpec(
            kind=FaultKind.TENANT_FAULT_INJECTION, at_time=0.0,
            target="t", duration_s=1.0,
        ),))
        report = self._report([self._outcome(signature=bad)])
        violations = check_fleet_invariants(report, plan, harness.profiles)
        assert not any(v.name == "tenant-isolation" for v in violations)

    def test_raise_for_violations_types(self, harness):
        baseline = harness.profiles.baseline("kmeans")
        bad = tuple(baseline.signature[:2]) + ("deadbeef",)
        report = self._report([self._outcome(signature=bad)])
        violations = check_fleet_invariants(
            report, FaultPlan(), harness.profiles,
        )
        with pytest.raises(TenantIsolationError):
            raise_for_violations(violations)
        report = self._report([self._outcome(status="vanished")])
        violations = check_fleet_invariants(
            report, FaultPlan(), harness.profiles,
        )
        violations = [v for v in violations if v.name != "tenant-isolation"]
        with pytest.raises(FleetError):
            raise_for_violations(violations)
        raise_for_violations([])  # no violations, no raise


class TestReplayCommand:
    def test_command_shape(self, harness):
        outcome = harness.run_seed(2)
        command = harness.replay_command(outcome)
        assert command.startswith("python -m repro chaos --fleet --runs 1")
        assert "--seed 2" in command
        assert "--devices 4" in command
        assert "--jobs 16" in command
