#!/usr/bin/env python3
"""Multi-tenant devices: co-tenant bursts and placement isolation.

Two stories the paper's system-dynamics argument (§II-B3) implies:

1. a co-tenant's periodic bursts on the CSE look exactly like the
   Figure 5 stress, and ActivePy's monitor handles them unprompted;
2. with several CSDs attached, placement matters — a program whose
   dataset lives on a healthy device is untouched by a noisy neighbour
   on another one.

Run::

    python examples/multi_tenant.py
"""

from repro import ActivePy, RunOptions, build_machine, get_workload, run_c_baseline
from repro.obs import render_gantt
from repro.storage import BackgroundLoad
from repro.units import format_seconds


def run_with_cotenant(scale: float = 1.0) -> None:
    print("=== a co-tenant bursts onto the CSE mid-run ===")
    workload = get_workload("kmeans", scale=scale)
    baseline = run_c_baseline(workload.program, workload.dataset)
    print(f"no-ISP baseline: {format_seconds(baseline.total_seconds)}")

    machine = build_machine()
    load = BackgroundLoad(
        machine.csd.cse,
        period_s=30.0,
        busy_fraction=0.8,          # the tenant holds the engine 80% of the time
        available_during=0.1,       # leaving us 10% while it runs
        start_at=8.0,               # it arrives mid-run
    ).start()
    report = ActivePy().run(
        workload.program, workload.dataset, machine=machine,
        options=RunOptions(trace=True),
    )
    print(f"ActivePy under tenant bursts: "
          f"{format_seconds(report.total_seconds)} "
          f"({baseline.total_seconds / report.total_seconds:.2f}x vs baseline, "
          f"{len(report.result.migrations)} migration(s), "
          f"{load.bursts_started} burst(s))")
    print()
    print(render_gantt(report.spans, width=60))


def run_placement_isolation() -> None:
    print("\n=== two CSDs: the noisy neighbour stays on its device ===")
    workload = get_workload("tpch_q6")
    baseline = run_c_baseline(workload.program, workload.dataset)

    machine = build_machine(num_csds=2)
    # Our query's lineitem table lives on the second device ...
    machine.csds[1].store_dataset(workload.dataset.name, workload.raw_bytes)
    # ... while a co-tenant hammers the first.
    machine.csds[0].cse.set_availability(0.05)

    report = ActivePy().run(workload.program, workload.dataset, machine=machine)
    print(f"query on csd1 while csd0 is 95% busy: "
          f"{format_seconds(report.total_seconds)} "
          f"({baseline.total_seconds / report.total_seconds:.2f}x vs baseline, "
          f"{len(report.result.migrations)} migrations)")
    print(f"csd0 retired {machine.csds[0].cse.counters.retired_instructions:.0f} "
          f"foreground instructions; csd1 retired "
          f"{machine.csds[1].cse.counters.retired_instructions:.3g}")


def main() -> None:
    run_with_cotenant()
    run_placement_isolation()


if __name__ == "__main__":
    main()
