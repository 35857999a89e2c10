"""Shape assertions for every reproduced table and figure.

We do not assert the paper's absolute numbers — our substrate is a
simulator, not the authors' testbed — but the qualitative structure
must hold: who wins, by roughly what factor, and where the crossovers
fall.  Each experiment runs once per test session (module-scoped
fixtures) and multiple claims are asserted against it.
"""

import pytest

from repro.analysis.experiments import (
    FIG2_WORKLOADS,
    TABLE1_WORKLOADS,
    run_fig2,
    run_fig4,
    run_fig5,
    run_overhead_ladder,
    run_prediction_accuracy,
    run_table1,
)
from repro.units import GB


@pytest.fixture(scope="module")
def fig2():
    return run_fig2(availabilities=(1.0, 0.8, 0.6, 0.4, 0.2, 0.1))


@pytest.fixture(scope="module")
def fig4():
    return run_fig4()


@pytest.fixture(scope="module")
def fig5():
    return run_fig5()


@pytest.fixture(scope="module")
def ladder():
    return run_overhead_ladder()


@pytest.fixture(scope="module")
def prediction(fig4, fig5):
    # Fig. 4/5 profile the same programs first, so every sampling here
    # is a profile-cache hit.
    return run_prediction_accuracy()


class TestTable1:
    def test_nine_applications(self):
        rows = run_table1()
        assert len(rows) == 9

    def test_sizes_span_papers_range(self):
        rows = run_table1()
        sizes = [row.data_bytes for row in rows]
        assert min(sizes) == pytest.approx(5.3 * GB, rel=0.01)
        assert max(sizes) == pytest.approx(9.4 * GB, rel=0.01)
        for row in rows:
            assert row.data_bytes == pytest.approx(row.paper_bytes, rel=0.01)

    def test_region_counts_are_line_level(self):
        for row in run_table1():
            assert 2 <= row.sese_regions <= 6


class TestFig2:
    """Static C ISP collapses as CSE availability drops (paper Fig. 2)."""

    def test_wins_at_full_availability(self, fig2):
        # The paper reports ~1.25x for the trio at 100%.
        assert 1.15 < fig2.mean_at(1.0) < 1.45

    def test_loses_under_heavy_contention(self, fig2):
        for name in FIG2_WORKLOADS:
            series = fig2.series[name]
            assert series[-1] < 0.35  # at 10% availability

    def test_monotone_decline(self, fig2):
        for name in FIG2_WORKLOADS:
            series = fig2.series[name]
            assert all(a >= b for a, b in zip(series, series[1:]))

    def test_crossover_in_mid_availability_band(self, fig2):
        # Each workload flips from win to loss somewhere in the middle
        # of the sweep (the paper puts it below ~60%).
        for name in FIG2_WORKLOADS:
            crossover = fig2.crossover(name)
            assert crossover is not None
            assert 0.2 <= crossover <= 0.8


class TestFig4:
    """ActivePy matches programmer-directed static ISP (paper Fig. 4)."""

    def test_static_geomean_near_paper(self, fig4):
        assert fig4.static_geomean == pytest.approx(1.33, abs=0.08)

    def test_activepy_geomean_near_paper(self, fig4):
        # Paper: 1.34x; ours carries honest sampling cost, so allow a
        # slightly wider band below.
        assert 1.20 <= fig4.activepy_geomean <= 1.45

    def test_activepy_close_to_oracle(self, fig4):
        assert fig4.activepy_geomean >= 0.92 * fig4.static_geomean

    def test_every_workload_benefits_from_isp(self, fig4):
        for row in fig4.rows:
            assert row.static_speedup > 1.05
            assert row.activepy_speedup > 1.0

    def test_identifies_exactly_the_oracle_regions_except_csr(self, fig4):
        # Paper: "ActivePy successfully identified exactly the same set
        # of code regions ... as the optimal programmer-directed
        # configuration".  The CSR workloads are the documented
        # exception (§V): over-estimated CSR volume makes ActivePy
        # conservative there.
        for row in fig4.rows:
            if row.name == "pagerank":
                continue
            assert row.same_regions, row.name

    def test_csr_conservatism_does_no_harm(self, fig4):
        # Under-estimating the CSD never makes ActivePy slower than the
        # no-ISP baseline (paper: "at least makes no harm").
        row = fig4.row("pagerank")
        assert not row.same_regions
        assert row.activepy_speedup > 1.0
        assert row.activepy_speedup <= row.static_speedup

    def test_baseline_times_in_paper_band(self, fig4):
        # Paper: 11 s (TPC-H-6) to 73 s (KMeans).  Same order of
        # magnitude and the same extremes.
        times = {row.name: row.baseline_seconds for row in fig4.rows}
        assert max(times, key=times.get) == "kmeans"
        assert 3.0 < min(times.values()) < 15.0
        assert 30.0 < times["kmeans"] < 90.0


class TestFig5:
    """Dynamic migration under mid-run CSE contention (paper Fig. 5)."""

    def test_migration_always_at_least_as_good(self, fig5):
        # Paper: full ActivePy outperforms the no-migration ablation in
        # all cases except Blackscholes at 50%.
        violations = [
            row.name for row in fig5.rows
            if row.with_migration_speedup < row.without_migration_speedup * 0.98
        ]
        assert len(violations) <= 1

    def test_big_gain_at_ten_percent(self, fig5):
        # Paper: 2.82x over the no-migration ablation at 10%.
        assert fig5.mean_gain(0.1) > 2.0

    def test_deep_loss_without_migration_at_ten_percent(self, fig5):
        # Paper: 67% average, up to 88%, performance loss.
        mean_without = fig5.mean_without(0.1)
        assert mean_without < 0.45  # >55% loss on average
        worst = min(r.without_migration_speedup for r in fig5.at(0.1))
        assert worst < 0.35

    def test_migration_lands_near_baseline(self, fig5):
        # Paper: ~8% slowdown vs the no-CSD baseline after migrating.
        assert 0.80 < fig5.mean_with(0.1) < 1.25

    def test_migrations_actually_happened(self, fig5):
        migrated = [row for row in fig5.at(0.1) if row.migrations > 0]
        assert len(migrated) >= 7  # nearly every workload moves

    def test_fifty_percent_case_is_mild(self, fig5):
        # At 50% the ablation loses moderately, not catastrophically.
        assert fig5.mean_without(0.5) > 0.8


class TestOverheadLadder:
    """The §V language-runtime result: +41% -> +20% -> ~C."""

    def test_python_overhead(self, ladder):
        assert ladder.mean_overhead("python") == pytest.approx(0.41, abs=0.02)

    def test_cython_overhead(self, ladder):
        assert ladder.mean_overhead("cython") == pytest.approx(0.20, abs=0.02)

    def test_activepy_near_c(self, ladder):
        assert ladder.mean_overhead("activepy") < 0.03

    def test_ladder_strictly_ordered_per_workload(self, ladder):
        for name, modes in ladder.per_workload.items():
            assert modes["c"] == 1.0
            assert modes["activepy"] < modes["cython"] < modes["python"], name


class TestPredictionAccuracy:
    """The §V accuracy discussion."""

    def test_geomean_error_single_digit(self, prediction):
        # Paper: 9% discounting outliers.  Our noiseless profiler lands
        # lower; single-digit percent is the claim that must hold.
        assert prediction.geomean_error_excluding_outliers() < 0.09

    def test_csr_overestimated_up_to_2_4x(self, prediction):
        # Paper: "over-estimate the data volume ... by up to 2.41x".
        assert 1.8 < prediction.max_csr_overestimate() < 3.0

    def test_csr_always_overestimated(self, prediction):
        assert prediction.csr_always_overestimated()

    def test_outliers_are_the_sparse_structures(self, prediction):
        outlier_workloads = {row.workload for row in prediction.outliers()}
        assert outlier_workloads <= {"pagerank", "sparsemv"}
        assert outlier_workloads


class TestExportRoundTrips:
    """Every experiment result must serialise to JSON cleanly."""

    def test_fig2_exports(self, fig2):
        import json

        from repro.analysis import export

        data = json.loads(export.dumps(fig2))
        assert data["experiment"] == "fig2"
        assert set(data["series"]) == set(FIG2_WORKLOADS)
        assert len(data["availabilities"]) == 6

    def test_fig4_exports(self, fig4):
        import json

        from repro.analysis import export

        data = json.loads(export.dumps(fig4))
        assert len(data["rows"]) == 9
        assert data["static_geomean"] == pytest.approx(fig4.static_geomean)

    def test_fig5_exports(self, fig5):
        import json

        from repro.analysis import export

        data = json.loads(export.dumps(fig5))
        assert data["mean_gain_at_10pct"] > 2.0

    def test_ladder_exports(self, ladder):
        import json

        from repro.analysis import export

        data = json.loads(export.dumps(ladder))
        assert data["mean_overheads"]["python"] == pytest.approx(0.41, abs=0.02)

    def test_prediction_exports(self, prediction):
        import json

        from repro.analysis import export

        data = json.loads(export.dumps(prediction))
        outlier_flags = [row["outlier"] for row in data["rows"]]
        assert any(outlier_flags) and not all(outlier_flags)


class TestSamplingOverhead:
    """The §V overhead claim: sampling + codegen is negligible."""

    def test_overhead_small_fraction_of_run(self):
        from repro.runtime.activepy import ActivePy
        from repro.workloads import get_workload

        workload = get_workload("tpch_q6")
        report = ActivePy().run(workload.program, workload.dataset)
        assert report.overhead_seconds < 0.08 * report.total_seconds
