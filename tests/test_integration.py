"""Cross-module integration: the full stack on real workloads.

These tests run the complete pipeline — sampling with real NumPy
kernels, fitting, planning, queue-pair dispatch, simulated execution,
contention, and migration — on actual workload definitions rather than
the toy program.
"""

import pytest

from repro import (
    ActivePy,
    StaticIspBaseline,
    build_machine,
    get_workload,
    run_c_baseline,
)
from repro.runtime.planner import CSD


class TestFullPipelineOnRealWorkloads:
    def test_tpch_q6_end_to_end(self, config):
        workload = get_workload("tpch_q6")
        machine = build_machine(config)
        report = ActivePy(config).run(workload.program, workload.dataset, machine=machine)
        baseline = run_c_baseline(workload.program, workload.dataset, config=config)

        # The scan offloads; the device actually executed instructions
        # and the queue pair carried the call.
        assert report.plan.assignments[0] == CSD
        assert machine.csd.cse.counters.retired_instructions > 0
        assert report.result.status_updates > 0
        assert baseline.total_seconds / report.total_seconds > 1.1

    def test_kmeans_iterative_streaming(self, config):
        workload = get_workload("kmeans")
        report = ActivePy(config).run(workload.program, workload.dataset)
        # The folded Lloyd loop dominates and lands on the CSD.
        index = workload.program.index_of("assign_and_update")
        assert report.plan.assignments[index] == CSD

    def test_lightgbm_splits_quantise_from_predict(self, config):
        workload = get_workload("lightgbm")
        report = ActivePy(config).run(workload.program, workload.dataset)
        assignments = dict(zip(
            [s.name for s in workload.program], report.plan.assignments
        ))
        assert assignments["quantise_features"] == CSD
        assert assignments["predict_ensemble"] == "host"

    def test_pagerank_csr_stays_host_but_oracle_offloads(self, config):
        workload = get_workload("pagerank")
        report = ActivePy(config).run(workload.program, workload.dataset)
        oracle = StaticIspBaseline(config).tune(workload.program, workload.n_records)
        index = workload.program.index_of("build_csr")
        assert report.plan.assignments[index] == "host"
        assert oracle.assignments[index] == CSD


class TestContentionScenarios:
    def test_scheduled_contention_triggers_migration(self, config):
        # Availability collapses at an absolute sim time (not via the
        # progress hook): the monitor must still catch it through IPC.
        workload = get_workload("tpch_q6")
        machine = build_machine(config)
        machine.csd.cse.schedule_availability(at_time=1.5, fraction=0.05)
        report = ActivePy(config).run(workload.program, workload.dataset, machine=machine)
        assert report.result.migrated

    def test_migrated_run_still_beats_stranded_static_plan(self, config):
        workload = get_workload("tpch_q6")

        active_machine = build_machine(config)
        active_machine.csd.cse.schedule_availability(at_time=1.5, fraction=0.05)
        active = ActivePy(config).run(
            workload.program, workload.dataset, machine=active_machine
        )

        static = StaticIspBaseline(config)
        plan = static.tune(workload.program, workload.n_records)
        static_machine = build_machine(config)
        static_machine.csd.cse.schedule_availability(at_time=1.5, fraction=0.05)
        stranded = static.run(
            workload.program, workload.dataset, machine=static_machine, plan=plan
        )
        assert active.total_seconds < stranded.total_seconds


class TestDeterminism:
    def test_identical_runs_produce_identical_results(self, config):
        workload = get_workload("tpch_q6")
        first = ActivePy(config).run(workload.program, workload.dataset)
        second = ActivePy(config).run(
            get_workload("tpch_q6").program, get_workload("tpch_q6").dataset
        )
        assert first.total_seconds == pytest.approx(second.total_seconds, rel=1e-12)
        assert first.plan.assignments == second.plan.assignments
