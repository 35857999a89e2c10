"""Campaigns across worker processes match the in-process ones bit for bit."""

from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import pytest

from repro.chaos.campaign import CampaignConfig, run_campaign
from repro.errors import ChaosError
from repro.fleet import FleetCampaignConfig

#: Small scale so the workers-vs-serial comparison runs in seconds.
SCALE = 2 ** -8


class TestParallelMatchesSerial:
    def test_workers4_same_outcomes_as_workers1(self):
        config = CampaignConfig(
            runs=8, base_seed=0, scale=SCALE, collect_metrics=True,
        )
        serial = run_campaign(config, workers=1)
        parallel = run_campaign(config, workers=4)
        assert [o.summary() for o in serial.outcomes] == \
               [o.summary() for o in parallel.outcomes]
        assert [o.plan for o in serial.outcomes] == \
               [o.plan for o in parallel.outcomes]
        assert [o.metrics for o in serial.outcomes] == \
               [o.metrics for o in parallel.outcomes]
        assert serial.summary() == parallel.summary()
        assert serial.ok == parallel.ok

    def test_parallel_matches_plain_run_campaign(self):
        config = CampaignConfig(runs=5, base_seed=11, scale=SCALE,
                                collect_metrics=False)
        assert (run_campaign(config).summary()
                == run_campaign(config, workers=3).summary())

    def test_on_outcome_streams_in_run_order(self):
        config = CampaignConfig(runs=6, scale=SCALE, collect_metrics=False)
        seen = []
        run_campaign(config, workers=4,
                     on_outcome=lambda o: seen.append(o.seed))
        assert seen == [config.base_seed + r for r in range(6)]

    def test_shrunk_failures_match_serial(self):
        # checkpoint_validate=False is the planted bug: torn-write
        # faults produce real invariant violations to shrink.
        import dataclasses

        from repro.config import DEFAULT_CONFIG

        buggy = dataclasses.replace(DEFAULT_CONFIG, checkpoint_validate=False)
        # Seeds 156..158 on kmeans bracket the known violating seed 157.
        config = CampaignConfig(
            runs=3, workloads=("kmeans",), scale=2 ** -6, base_seed=156,
            system_config=buggy, collect_metrics=False,
        )
        serial = run_campaign(config)
        parallel = run_campaign(config, workers=4)
        assert serial.violations == parallel.violations
        assert len(serial.failures) == len(parallel.failures)
        for ours, theirs in zip(parallel.failures, serial.failures):
            assert ours.outcome.summary() == theirs.outcome.summary()
            assert ours.shrink.minimal == theirs.shrink.minimal
            assert ours.shrink.probes == theirs.shrink.probes
            assert ours.replay_command == theirs.replay_command

    def test_workers_must_be_positive(self):
        config = CampaignConfig(runs=2, scale=SCALE)
        with pytest.raises(ChaosError, match="workers"):
            run_campaign(config, workers=0)

    def test_fleet_shrunk_failures_match_serial(self):
        # no_isolation is the fleet's planted bug; seeds 1..3 violate it.
        config = FleetCampaignConfig(runs=3, base_seed=1, no_isolation=True)
        serial = run_campaign(config, workers=1)
        with mock.patch("concurrent.futures.ProcessPoolExecutor",
                        side_effect=ProcessPoolExecutor) as pool:
            parallel = run_campaign(config, workers=4)
        assert pool.call_count == 1
        assert [o.summary() for o in serial.outcomes] == \
               [o.summary() for o in parallel.outcomes]
        assert serial.summary() == parallel.summary()
        assert not parallel.ok and parallel.failures
        assert len(serial.failures) == len(parallel.failures)
        for ours, theirs in zip(parallel.failures, serial.failures):
            assert ours.outcome.summary() == theirs.outcome.summary()
            assert ours.shrink.minimal == theirs.shrink.minimal
            assert ours.shrink.probes == theirs.shrink.probes
            assert ours.replay_command == theirs.replay_command
