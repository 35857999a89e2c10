#!/usr/bin/env python3
"""In-storage analytics: the TPC-H trio with and without ActivePy.

Reproduces the motivation of the paper's §II in miniature: a statically
optimised C ISP configuration is fast while the device is idle and
collapses when a co-tenant takes the engine; ActivePy reacts.

Run::

    python examples/tpch_analytics.py
"""

from repro import (
    ActivePy,
    RunOptions,
    StaticIspBaseline,
    build_machine,
    get_workload,
    run_c_baseline,
)
from repro.units import format_seconds
from repro.workloads.tpch.queries import q1_reference, q6_reference, summarize

QUERIES = ("tpch_q1", "tpch_q6", "tpch_q14")


def run_comparison() -> None:
    print("=== speedups over the no-ISP C baseline (dedicated CSD) ===")
    for name in QUERIES:
        workload = get_workload(name)
        baseline = run_c_baseline(workload.program, workload.dataset)
        static = StaticIspBaseline()
        static_result = static.run(workload.program, workload.dataset)
        report = ActivePy().run(workload.program, workload.dataset)
        print(
            f"{name:<9} baseline {format_seconds(baseline.total_seconds):>8}   "
            f"static ISP {baseline.total_seconds / static_result.total_seconds:.2f}x   "
            f"ActivePy {baseline.total_seconds / report.total_seconds:.2f}x"
        )


def run_contention_story() -> None:
    print("\n=== the same plans when a co-tenant takes 90% of the CSE ===")
    for name in QUERIES:
        workload = get_workload(name)
        baseline = run_c_baseline(workload.program, workload.dataset)

        static = StaticIspBaseline()
        plan = static.tune(workload.program, workload.n_records)
        machine = build_machine()
        machine.csd.cse.set_availability(0.1)
        stranded = static.run(workload.program, workload.dataset,
                              machine=machine, plan=plan)

        adaptive_machine = build_machine()
        adaptive = ActivePy().run(
            workload.program, workload.dataset, machine=adaptive_machine,
            options=RunOptions(progress_triggers=((0.5, 0.1),)),
        )
        migrated = "migrated" if adaptive.result.migrated else "stayed"
        print(
            f"{name:<9} static ISP "
            f"{baseline.total_seconds / stranded.total_seconds:.2f}x   "
            f"ActivePy {baseline.total_seconds / adaptive.total_seconds:.2f}x "
            f"({migrated})"
        )


def run_query_answers() -> None:
    print("\n=== the queries really compute (reduced-scale data) ===")
    q1 = get_workload("tpch_q1", scale=2**-11)
    print("\nQ1 pricing summary:")
    print(summarize(q1_reference(q1.dataset.payload)))

    q6 = get_workload("tpch_q6", scale=2**-11)
    revenue = q6_reference(q6.dataset.payload)
    print(f"\nQ6 forecast revenue change: {revenue:,.2f}")

    q14 = get_workload("tpch_q14", scale=2**-11)
    result = q14.program.run_kernels(q14.dataset.payload)
    print(f"Q14 promo revenue share:    {result['promo_revenue_pct']:.2f}%")


def main() -> None:
    run_comparison()
    run_contention_story()
    run_query_answers()


if __name__ == "__main__":
    main()
