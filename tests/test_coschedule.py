"""Co-scheduling two programs on one CSD."""

import pytest

from repro.config import SystemConfig
from repro.errors import ReproError
from repro.runtime.coschedule import (
    BusyWindow,
    coschedule_pair,
    csd_busy_windows,
)
from repro.runtime.activepy import ActivePy, RunOptions
from repro.workloads import get_workload

from .conftest import make_toy_dataset, make_toy_program


@pytest.fixture(scope="module")
def pair_result():
    q6 = get_workload("tpch_q6")
    q14 = get_workload("tpch_q14")
    return coschedule_pair(
        (q6.program, q6.dataset),
        (q14.program, q14.dataset),
    )


class TestBusyWindows:
    def test_extracted_from_traced_run(self, config):
        report = ActivePy(config).run(
            make_toy_program(), make_toy_dataset(), options=RunOptions(trace=True)
        )
        windows = csd_busy_windows(report)
        assert windows
        assert all(w.duration > 0 for w in windows)
        assert windows == sorted(windows, key=lambda w: w.start)

    def test_requires_trace(self, config):
        report = ActivePy(config).run(make_toy_program(), make_toy_dataset())
        with pytest.raises(ReproError):
            csd_busy_windows(report)

    def test_window_duration(self):
        assert BusyWindow(1.0, 3.5).duration == 2.5


class TestCoschedulePair:
    def test_colocation_costs_both_tenants_something(self, pair_result):
        assert pair_result.slowdown(0) >= 1.0
        assert pair_result.slowdown(1) >= 1.0

    def test_colocation_cost_is_bounded(self, pair_result):
        # Fair sharing at 50% cannot more than roughly double the CSD
        # portion; with migration available the end-to-end hit stays
        # well under 2x.
        assert pair_result.slowdown(0) < 2.0
        assert pair_result.slowdown(1) < 2.0

    def test_runs_complete_and_plans_offload(self, pair_result):
        for report in pair_result.shared:
            assert report.result.total_seconds > 0
            assert report.plan.uses_csd

    def test_migration_counts_exposed(self, pair_result):
        a, b = pair_result.migrations
        assert a >= 0 and b >= 0

    def test_invalid_share_rejected(self):
        workload = get_workload("tpch_q6")
        with pytest.raises(ReproError):
            coschedule_pair(
                (workload.program, workload.dataset),
                (workload.program, workload.dataset),
                shared_availability=1.0,
            )

    def test_starved_share_triggers_migration(self):
        # At a 5% share, staying on the device is hopeless: at least
        # one tenant must migrate.
        q6 = get_workload("tpch_q6")
        q1 = get_workload("tpch_q1")
        result = coschedule_pair(
            (q6.program, q6.dataset),
            (q1.program, q1.dataset),
            shared_availability=0.05,
        )
        assert sum(result.migrations) >= 1
