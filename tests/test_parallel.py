"""Campaigns across worker processes match the in-process ones bit for bit."""

from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import pytest

from repro.chaos.campaign import CampaignConfig, run_campaign
from repro.errors import ChaosError
from repro.fleet import FleetCampaignConfig
from repro.parallel import default_workers, merge_metric_snapshots

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

    def test_default_workers_at_least_one(self):
        assert default_workers() >= 1


class TestMergeMetricSnapshots:
    def test_counters_sum(self):
        merged = merge_metric_snapshots([
            {"counters": {"a": 1.0, "b": 2.0}, "gauges": {}, "histograms": {}},
            {"counters": {"a": 3.0, "c": 5.0}, "gauges": {}, "histograms": {}},
        ])
        assert merged["counters"] == {"a": 4.0, "b": 2.0, "c": 5.0}

    def test_gauges_last_write_wins(self):
        merged = merge_metric_snapshots([
            {"counters": {}, "gauges": {"depth": 3.0}, "histograms": {}},
            {"counters": {}, "gauges": {"depth": 1.0}, "histograms": {}},
        ])
        assert merged["gauges"] == {"depth": 1.0}

    def test_histograms_accumulate(self):
        histogram = {"buckets": [1.0, 2.0], "counts": [1, 0, 2],
                     "sum": 5.5, "count": 3}
        merged = merge_metric_snapshots([
            {"counters": {}, "gauges": {}, "histograms": {"h": histogram}},
            {"counters": {}, "gauges": {}, "histograms": {"h": histogram}},
        ])
        assert merged["histograms"]["h"] == {
            "buckets": [1.0, 2.0], "counts": [2, 0, 4],
            "sum": 11.0, "count": 6,
        }

    def test_bucket_mismatch_rejected(self):
        with pytest.raises(ChaosError, match="bucket"):
            merge_metric_snapshots([
                {"histograms": {"h": {"buckets": [1.0], "counts": [0, 0],
                                      "sum": 0.0, "count": 0}}},
                {"histograms": {"h": {"buckets": [2.0], "counts": [0, 0],
                                      "sum": 0.0, "count": 0}}},
            ])

    def test_empty_and_none_snapshots_skipped(self):
        merged = merge_metric_snapshots([
            {}, {"counters": {"a": 1.0}},
        ])
        assert merged["counters"] == {"a": 1.0}

    def test_merged_over_real_campaign(self):
        config = CampaignConfig(runs=4, scale=SCALE, collect_metrics=True)
        result = run_campaign(config, workers=2)
        merged = merge_metric_snapshots(
            [o.metrics for o in result.outcomes if o.metrics]
        )
        total = sum(
            o.metrics["counters"].get("sim.events_fired", 0.0)
            for o in result.outcomes if o.metrics
        )
        assert merged["counters"].get("sim.events_fired", 0.0) == total
