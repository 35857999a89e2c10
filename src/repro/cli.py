"""Command-line interface.

::

    python -m repro list                       # the workload suite
    python -m repro run tpch_q6 [--trace]      # one workload end to end
    python -m repro metrics run tpch_q6        # ... with the metric report
    python -m repro trace run tpch_q6          # ... exporting a Chrome trace
    python -m repro table1                     # regenerate Table I
    python -m repro fig2 | fig4 | fig5         # regenerate a figure
    python -m repro ladder | prediction        # the §V results
    python -m repro chaos [--runs N]           # randomized fault campaign
    python -m repro chaos --workers 4          # ... across worker processes
    python -m repro chaos --sdc                # ... with silent-corruption faults
    python -m repro chaos --workload W --seed S  # replay one seeded run
    python -m repro chaos --fleet [--runs N]   # rack-scale fleet fault campaign
    python -m repro fleet run [--devices N]    # one seeded fleet run
    python -m repro fleet run --timeline       # ... with the flight recorder
    python -m repro fleet run --trace-out t.json  # ... exporting a fleet trace
    python -m repro obs dashboard              # fleet sparkline dashboard
    python -m repro faults list                # catalogue of injectable faults
    python -m repro explain run tpch_q6        # plan vs. reality + critical path
    python -m repro plan search pagerank       # exact search vs greedy
    python -m repro run pagerank --plan-mode search  # run with the search plan
    python -m repro bench                      # wall-clock perf-layer benchmark
    python -m repro perf check                 # gate BENCH_*.json vs baselines
    python -m repro perf snapshot              # refresh committed perf baselines
    python -m repro ... --json out.json        # archive the raw result

Every command runs on the simulated platform; ``--scale`` shrinks the
input population for quick smoke runs (ratios then deviate from the
calibrated paper-scale ones).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .analysis import export
from .analysis.experiments import (
    run_fig2,
    run_fig4,
    run_fig5,
    run_overhead_ladder,
    run_prediction_accuracy,
    run_table1,
)
from .analysis.report import ascii_bar_chart, format_table
from .baselines import run_c_baseline
from .obs import Observability, render_gantt
from .runtime.activepy import ActivePy, RunOptions
from .units import format_bytes, format_seconds
from .workloads import get_workload, workload_names


def _cmd_list(args) -> int:
    rows = []
    for name in workload_names():
        workload = get_workload(name, scale=2**-7)
        rows.append([
            name,
            format_bytes(workload.table1_bytes) if workload.table1_bytes else "-",
            len(workload.program),
            workload.description,
        ])
    print(format_table(["workload", "Table I size", "lines", "description"], rows))
    return 0


def _cmd_run(args) -> int:
    from .hw.topology import build_machine

    workload = get_workload(args.workload, scale=args.scale)
    print(f"running {workload.name} at scale {args.scale} "
          f"({format_bytes(workload.raw_bytes)})")
    baseline = run_c_baseline(workload.program, workload.dataset)
    machine = build_machine()
    triggers = [(0.5, args.stress)] if args.stress is not None else []
    fault_plan = None
    if args.fault_count:
        from .config import DEFAULT_CONFIG
        from .faults import FaultPlan

        seed = args.fault_seed if args.fault_seed is not None else DEFAULT_CONFIG.fault_seed
        # The C baseline's runtime bounds the horizon faults land in.
        fault_plan = FaultPlan.random(
            seed=seed, horizon_s=baseline.total_seconds, count=args.fault_count,
        )
    report = ActivePy(plan_mode=args.plan_mode).run(
        workload.program, workload.dataset, machine=machine,
        options=RunOptions(
            trace=args.trace,
            progress_triggers=tuple(triggers),
            fault_plan=fault_plan,
        ),
    )
    print(f"C baseline : {format_seconds(baseline.total_seconds)}")
    print(f"ActivePy   : {format_seconds(report.total_seconds)} "
          f"({baseline.total_seconds / report.total_seconds:.2f}x)")
    print("plan       : " + ", ".join(
        f"{statement.name}->{where}"
        for statement, where in zip(workload.program, report.plan.assignments)
    ) + f" (origin: {report.plan.origin}, "
        f"projected speedup {report.plan.projected_speedup:.2f}x)")
    if report.search is not None and report.search.beat_greedy:
        moves = ", ".join(
            f"{name}: {a}->{b}" for _, name, a, b in report.search.changed_lines()
        )
        print(f"search     : beat greedy by "
              f"{100 * report.search.improvement_fraction:.1f}% ({moves})")
    if report.result.migrated:
        for event in report.result.migrations:
            print(f"migration  : {event.line_name} at "
                  f"{event.sim_time:.2f}s ({event.reason})")
    if fault_plan is not None:
        print(f"faults     : {len(fault_plan)} armed (seed {fault_plan.seed}), "
              f"degraded={report.result.degraded}, "
              f"chunk replays={report.result.chunk_replays}")
        for event in report.result.fault_events:
            print(f"  {event.render()}")
    if args.trace and report.spans is not None:
        from .analysis.utilization import utilization_report

        print()
        print(render_gantt(report.spans))
        print()
        print(utilization_report(
            machine, total_seconds=report.total_seconds,
        ).render())
    if args.json:
        export.dump(report, args.json)
        print(f"wrote {args.json}")
    return 0


def _cmd_plan_search(args) -> int:
    """Exact plan search, diffed against greedy Algorithm 1."""
    import json as json_module

    from .config import DEFAULT_CONFIG
    from .runtime.estimator import build_estimates
    from .runtime.planner import assign_csd_code
    from .runtime.plansearch import search_plan
    from .runtime.profcache import cached_sampling, default_cache
    from .runtime.sampling import SamplingPhase

    workload = get_workload(args.workload, scale=args.scale)
    print(f"planning {workload.name} at scale {args.scale} "
          f"({format_bytes(workload.raw_bytes)})")
    sampling, _, _ = cached_sampling(
        SamplingPhase(DEFAULT_CONFIG), workload.program, workload.dataset,
        default_cache(),
    )
    estimates = build_estimates(sampling, workload.n_records, DEFAULT_CONFIG)
    greedy = assign_csd_code(estimates, DEFAULT_CONFIG)
    report = search_plan(
        workload.program, workload.dataset, estimates, DEFAULT_CONFIG,
        greedy=greedy,
    )

    def plan_line(label, assignments, makespan):
        moves = ", ".join(
            f"{statement.name}->{where}"
            for statement, where in zip(workload.program, assignments)
        )
        print(f"{label}: {moves}  ({format_seconds(makespan)} speculative)")

    plan_line("greedy ", report.greedy_plan.assignments,
              report.greedy_makespan_s)
    plan_line("search ", report.plan.assignments, report.makespan_s)
    if report.beat_greedy:
        moves = ", ".join(
            f"{name}: {a}->{b}" for _, name, a, b in report.changed_lines()
        )
        print(f"verdict: search beat greedy by "
              f"{100 * report.improvement_fraction:.1f}% ({moves})")
    else:
        print("verdict: greedy's plan is optimal (search confirmed it)")
    print(f"search  : {report.steps_simulated} speculative steps, "
          f"{report.wall_seconds:.3f}s wall")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json_module.dump(report.to_jsonable(), handle, indent=2)
        print(f"wrote {args.json}")
    return 0


def _run_observed(workload_name: str, scale: float, obs: Observability):
    """Run one workload with a caller-supplied observability handle."""
    workload = get_workload(workload_name, scale=scale)
    print(f"running {workload.name} at scale {scale} "
          f"({format_bytes(workload.raw_bytes)})")
    report = ActivePy().run(
        workload.program, workload.dataset, options=RunOptions(obs=obs),
    )
    print(f"ActivePy   : {format_seconds(report.total_seconds)}")
    return report


def _cmd_metrics(args) -> int:
    obs = Observability()
    _run_observed(args.workload, args.scale, obs)
    print()
    print(obs.metrics.render())
    if args.json:
        export.dump(obs.snapshot(), args.json)
        print(f"wrote {args.json}")
    return 0


def _cmd_trace(args) -> int:
    from .obs import validate_chrome_trace, write_chrome_trace

    obs = Observability.with_tracing()
    _run_observed(args.workload, args.scale, obs)
    out = args.out if args.out else f"{args.workload}_trace.json"
    trace = write_chrome_trace(obs.tracer.spans, out)
    problems = validate_chrome_trace(trace)
    if problems:
        for problem in problems:
            print(f"repro trace: invalid trace: {problem}", file=sys.stderr)
        return 1
    print(f"wrote {out} ({len(obs.tracer.spans)} span(s)) — "
          f"open in chrome://tracing or https://ui.perfetto.dev")
    return 0


def _print_and_maybe_export(result, text: str, json_path: Optional[str]) -> int:
    print(text)
    if json_path:
        export.dump(result, json_path)
        print(f"\nwrote {json_path}")
    return 0


def _cmd_table1(args) -> int:
    rows = run_table1()
    text = format_table(
        ["application", "data size", "regions"],
        [[r.name, format_bytes(r.data_bytes), r.sese_regions] for r in rows],
    )
    return _print_and_maybe_export(rows, text, args.json)


def _cmd_fig2(args) -> int:
    result = run_fig2()
    lines = ["FIGURE 2 — static C ISP speedup vs CSE availability"]
    for name, series in result.series.items():
        lines.append(f"\n{name}:")
        lines.append(ascii_bar_chart(
            [f"{a:.0%}" for a in result.availabilities], series,
        ))
    return _print_and_maybe_export(result, "\n".join(lines), args.json)


def _cmd_fig4(args) -> int:
    result = run_fig4()
    text = format_table(
        ["application", "static ISP", "ActivePy"],
        [[r.name, f"{r.static_speedup:.3f}x", f"{r.activepy_speedup:.3f}x"]
         for r in result.rows],
    )
    text += (f"\n\ngeomean: static {result.static_geomean:.3f}x, "
             f"ActivePy {result.activepy_geomean:.3f}x")
    return _print_and_maybe_export(result, text, args.json)


def _cmd_fig5(args) -> int:
    result = run_fig5()
    text = format_table(
        ["application", "availability", "ActivePy", "w/o migration"],
        [[r.name, f"{r.availability:.0%}",
          f"{r.with_migration_speedup:.3f}x",
          f"{r.without_migration_speedup:.3f}x"] for r in result.rows],
    )
    text += f"\n\nmigration gain at 10%: {result.mean_gain(0.1):.2f}x"
    return _print_and_maybe_export(result, text, args.json)


def _cmd_ladder(args) -> int:
    result = run_overhead_ladder()
    text = "\n".join(
        f"{mode:<9} +{result.mean_overhead(mode) * 100:.1f}%"
        for mode in ("python", "cython", "activepy")
    )
    return _print_and_maybe_export(result, text, args.json)


def _cmd_prediction(args) -> int:
    result = run_prediction_accuracy()
    text = (
        f"geomean error excl. outliers: "
        f"{result.geomean_error_excluding_outliers() * 100:.1f}%\n"
        f"max CSR over-estimate: {result.max_csr_overestimate():.2f}x"
    )
    return _print_and_maybe_export(result, text, args.json)


def _cmd_fleet_run(args) -> int:
    from .faults.spec import FaultKind, FaultPlan, FaultSpec
    from .fleet import Fleet, FleetConfig, default_tenants

    specs = []
    if args.lose_device is not None:
        specs.append(FaultSpec(
            kind=FaultKind.DEVICE_LOST_MID_JOB,
            at_time=args.lose_at,
            target=args.lose_device,
            duration_s=args.rejoin_after,
        ))
    config = FleetConfig(
        device_count=args.devices,
        tenants=default_tenants(args.tenants),
        job_count=args.jobs,
        seed=args.seed,
        target_load=args.target_load,
        scale=args.scale,
        plan=FaultPlan(specs=tuple(specs), seed=args.seed),
    )
    timeline = getattr(args, "timeline", False)
    trace_out = getattr(args, "trace_out", None)
    obs = None
    if timeline or trace_out is not None:
        if args.window <= 0:
            print(f"repro fleet: error: --window must be positive, "
                  f"got {args.window}", file=sys.stderr)
            return 2
        obs = Observability.with_timeseries(window_s=args.window)
    report = Fleet(config, obs=obs).run()
    print(report.render())
    if timeline and obs is not None:
        print()
        print(f"timeline (window {obs.timeseries.window_s:g}s simulated, "
              f"one sparkline per series):")
        print(obs.timeseries.render())
    if trace_out is not None:
        from .fleet import write_fleet_chrome_trace
        from .obs import validate_chrome_trace

        trace = write_fleet_chrome_trace(report, trace_out)
        problems = validate_chrome_trace(trace)
        if problems:
            for problem in problems:
                print(f"repro fleet: invalid trace: {problem}",
                      file=sys.stderr)
            return 1
        print(f"wrote {trace_out} ({len(trace['traceEvents'])} event(s)) — "
              f"validates clean")
    if args.json:
        export.dump(report, args.json)
        print(f"wrote {args.json}")
    return 0


def _cmd_chaos(args) -> int:
    import dataclasses

    from .chaos import CampaignConfig, ChaosHarness, run_campaign
    from .chaos.shrink import render_plan
    from .config import DEFAULT_CONFIG

    for flag, value in (("--runs", args.runs), ("--workers", args.workers),
                        ("--fault-count", args.fault_count)):
        if value < 1:
            print(f"repro chaos: error: {flag} must be at least 1, got {value}",
                  file=sys.stderr)
            return 2

    if args.fleet:
        from .fleet import FleetCampaignConfig, default_tenants

        if args.workload is not None:
            print("repro chaos: error: --fleet and --workload are mutually "
                  "exclusive (replay a fleet seed with --fleet --runs 1 --seed S)",
                  file=sys.stderr)
            return 2
        if args.sdc or args.no_validate or args.no_verify:
            print("repro chaos: error: --sdc/--no-validate/--no-verify are "
                  "single-machine campaign knobs; the fleet campaign's planted "
                  "bug is --no-isolation", file=sys.stderr)
            return 2
        if args.devices < 1 or args.tenants < 1 or args.jobs < 1:
            print("repro chaos: error: --devices, --tenants and --jobs must all "
                  "be at least 1", file=sys.stderr)
            return 2
        config = FleetCampaignConfig(
            runs=args.runs,
            device_count=args.devices,
            tenants=default_tenants(args.tenants),
            job_count=args.jobs,
            base_seed=args.seed,
            fault_count=args.fault_count,
            scale=args.scale,
            no_isolation=args.no_isolation,
        )

        def describe(outcome):
            return (f"seed={outcome.seed:<6} completed={outcome.completed:<3} "
                    f"degraded={outcome.degraded:<3} shed={outcome.shed:<3}")
    else:
        system_config = DEFAULT_CONFIG
        if args.no_validate:
            # The deliberately planted bug: trust checkpoint records without
            # CRC validation.  Campaigns with torn-write faults must catch it.
            system_config = dataclasses.replace(system_config, checkpoint_validate=False)
        if args.sdc or args.no_verify:
            # Silent-corruption mode arms the integrity layer; --no-verify is
            # its planted bug — digests computed and paid for, never compared.
            system_config = dataclasses.replace(
                system_config,
                integrity_enabled=True,
                integrity_verify=not args.no_verify,
            )

        if args.workload is not None:
            # Replay mode: one fully seeded experiment, verdict on stdout.
            harness = ChaosHarness(
                system_config=system_config, scale=args.scale,
                fault_count=args.fault_count, silent_corruption=args.sdc,
            )
            outcome = harness.run_seed(args.workload, args.seed)
            print(f"replaying {args.workload} seed={args.seed} "
                  f"({len(outcome.plan)} fault(s), scale {args.scale})")
            for text in render_plan(outcome.plan):
                print(f"  - {text}")
            print(f"degraded={outcome.degraded}, "
                  f"fault events={outcome.fault_event_count}")
            if outcome.ok:
                print("all invariants held")
                return 0
            for violation in outcome.violations:
                print(f"VIOLATION {violation.render()}")
            return 1

        workloads = tuple(name.strip() for name in args.workloads.split(",") if name.strip())
        from .workloads import workload_names

        unknown = [name for name in workloads if name not in workload_names()]
        if unknown:
            print(f"repro chaos: error: unknown workload(s) {unknown}; "
                  f"known: {sorted(workload_names())}", file=sys.stderr)
            return 2
        config = CampaignConfig(
            runs=args.runs,
            workloads=workloads,
            base_seed=args.seed,
            fault_count=args.fault_count,
            scale=args.scale,
            system_config=system_config,
            silent_corruption=args.sdc,
        )

        def describe(outcome):
            return (f"{outcome.workload:<14} seed={outcome.seed:<6} "
                    f"degraded={str(outcome.degraded):<5}")

    def progress(outcome):
        mark = "ok" if outcome.ok else "VIOLATION"
        print(f"  run {outcome.seed - config.base_seed:>4} {describe(outcome)} {mark}")

    result = run_campaign(config, on_outcome=progress if args.verbose else None,
                          workers=args.workers)
    print(result.render())
    if args.json:
        export.dump(result, args.json)
        print(f"wrote {args.json}")
    return 0 if result.ok else 1


def _cmd_faults_list(args) -> int:
    from .faults.spec import FAULT_KIND_INFO, FLEET_KINDS, SILENT_KINDS, FaultKind

    rows = []
    for kind in FaultKind:
        description, target = FAULT_KIND_INFO[kind]
        if kind in SILENT_KINDS:
            klass = "silent"
        elif kind in FLEET_KINDS:
            klass = "fleet"
        else:
            klass = "loud"
        rows.append([kind.value, klass, target, description])
    print(format_table(["kind", "class", "default target", "description"], rows))
    print()
    print("loud faults fail operations the runtime can see; silent faults "
          "corrupt data\nin flight and are only caught by the integrity "
          "layer (chaos --sdc); fleet faults\nland on the rack scheduler "
          "(chaos --fleet), never on one machine's injector.")
    return 0


def _cmd_explain(args) -> int:
    from .obs import build_critical_path

    obs = Observability.with_attribution()
    report = _run_observed(args.workload, args.scale, obs)
    print(f"prof cache : {report.sampling_cache_status}")
    path = build_critical_path(obs)
    attribution = path.attribution
    print()
    if report.explanation is not None:
        print(report.explanation.render())
        print()
    print(path.render(max_steps=args.max_steps))
    print()
    print(attribution.render())
    if args.json:
        payload = {
            "workload": args.workload,
            "scale": args.scale,
            "total_seconds": report.total_seconds,
            "explanation": (
                report.explanation.to_jsonable()
                if report.explanation is not None else None
            ),
            "critical_path": path.to_jsonable(),
            "attribution": attribution.to_jsonable(),
        }
        export.dump(payload, args.json)
        print(f"\nwrote {args.json}")
    return 0


def _cmd_bench(args) -> int:
    from .wallbench import run_wall_bench, write_wall_bench

    payload = run_wall_bench(workers=args.workers, repeats=args.repeats)
    warm = payload["warm_run"]
    campaign = payload["parallel_campaign"]
    for name, row in warm["per_workload"].items():
        print(f"warm run   : {name:<14} "
              f"{row['cold_wall_seconds'] * 1e3:7.1f} ms cold -> "
              f"{row['warm_wall_seconds'] * 1e3:7.1f} ms warm "
              f"({row['speedup']:.2f}x)")
    print(f"campaign   : {campaign['runs']} run(s), "
          f"workers={campaign['workers']}  "
          f"{campaign['serial_wall_seconds']:.2f} s serial baseline -> "
          f"{campaign['parallel_wall_seconds']:.2f} s "
          f"({campaign['speedup']:.2f}x)")
    micro = payload["engine_microbench"]
    print(f"event engine: {micro['events']} event(s)  "
          f"{micro['engine_events_per_second'] / 1e6:.2f} M/s Simulator vs "
          f"{micro['heapq_events_per_second'] / 1e6:.2f} M/s bare heapq "
          f"({micro['fraction_of_heapq']:.2f}x the heapq time)")
    print(f"wrote {write_wall_bench(payload, workers=args.workers)}")
    return 0


def _cmd_perf_check(args) -> int:
    from pathlib import Path

    from .perfgate import check

    report = check(
        Path(args.root),
        baselines_dir=Path(args.baselines) if args.baselines else None,
        planted_regression=args.planted_regression,
    )
    print(report.render())
    if args.json:
        export.dump(report.to_jsonable(), args.json)
        print(f"wrote {args.json}")
    return 0 if report.ok else 1


def _cmd_perf_snapshot(args) -> int:
    from pathlib import Path

    from .perfgate import snapshot

    written = snapshot(
        Path(args.root),
        baselines_dir=Path(args.baselines) if args.baselines else None,
    )
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_validate(args) -> int:
    from .lang.checks import validate_program

    workload = get_workload(args.workload, scale=args.scale)
    report = validate_program(workload.program, workload.dataset)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_selfcheck(args) -> int:
    from .analysis.selfcheck import measure_selfcheck, run_selfcheck

    if args.repin:
        measured = measure_selfcheck()
        lines = [
            '"""Pinned self-check expectations.',
            "",
            "Generated by ``python -m repro selfcheck --repin`` against the",
            "calibrated default platform; ``run_selfcheck`` compares fresh",
            "measurements to these within a small tolerance.",
            '"""',
            "",
            "EXPECTED_SELFCHECK = {",
        ]
        for key, value in sorted(measured.items()):
            lines.append(f'    "{key}": {value},')
        lines.append("}")
        import repro.analysis.expected as expected_module

        path = expected_module.__file__
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        print(f"repinned {len(measured)} expectations to {path}")
        return 0

    result = run_selfcheck(tolerance=args.tolerance)
    print(result.render())
    if not result.ok:
        for drift in result.drifted:
            print(f"  {drift}")
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ActivePy reproduction (DAC 2023) — simulated ISP platform",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the workload suite").set_defaults(fn=_cmd_list)

    workload_choices = sorted(
        ["blackscholes", "kmeans", "lightgbm", "matrixmul", "mixedgemm",
         "pagerank", "sparsemv", "tpch_q1", "tpch_q6", "tpch_q14"]
    )

    run_parser = sub.add_parser("run", help="run one workload end to end")
    run_parser.add_argument("workload", choices=workload_choices)
    run_parser.add_argument("--scale", type=float, default=1.0,
                            help="input scale in (0, 1] (default: paper scale)")
    run_parser.add_argument("--trace", action="store_true",
                            help="render the run's spans as a Gantt chart")
    run_parser.add_argument(
        "--stress", type=float, default=None, metavar="AVAIL",
        help="throttle the CSE to AVAIL once the offloaded work reaches "
             "50%% progress (the paper's Figure 5 scenario)",
    )
    run_parser.add_argument(
        "--fault-count", type=int, default=0, metavar="N",
        help="inject N deterministic faults (crashes, lost completions, "
             "media errors, link degradation) during the run",
    )
    run_parser.add_argument(
        "--fault-seed", type=int, default=None, metavar="SEED",
        help="seed for the generated fault plan (default: config fault_seed)",
    )
    run_parser.add_argument(
        "--plan-mode", choices=("greedy", "search"), default="greedy",
        help="how step 3 picks the host/CSD split: the paper's greedy "
             "Algorithm 1, or the exact speculative search",
    )
    run_parser.add_argument("--json", metavar="PATH", default=None)
    run_parser.set_defaults(fn=_cmd_run)

    plan_parser = sub.add_parser(
        "plan", help="plan a workload without executing it"
    )
    plan_sub = plan_parser.add_subparsers(dest="plan_command", required=True)
    plan_search = plan_sub.add_parser(
        "search",
        help="exact plan search over steps measured on forked simulator states, "
             "diffed against greedy Algorithm 1",
    )
    plan_search.add_argument("workload", choices=workload_choices)
    plan_search.add_argument("--scale", type=float, default=1.0,
                             help="input scale in (0, 1]")
    plan_search.add_argument("--json", metavar="PATH", default=None,
                             help="also write the search report as JSON")
    plan_search.set_defaults(fn=_cmd_plan_search)

    for name, fn, help_text in (
        ("table1", _cmd_table1, "regenerate Table I"),
        ("fig2", _cmd_fig2, "regenerate Figure 2 (availability sweep)"),
        ("fig4", _cmd_fig4, "regenerate Figure 4 (ActivePy vs static ISP)"),
        ("fig5", _cmd_fig5, "regenerate Figure 5 (migration study)"),
        ("ladder", _cmd_ladder, "regenerate the §V runtime-overhead ladder"),
        ("prediction", _cmd_prediction, "regenerate the §V accuracy result"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--json", metavar="PATH", default=None)
        cmd.set_defaults(fn=fn)

    metrics_parser = sub.add_parser(
        "metrics", help="observability: run a workload and report its metrics"
    )
    metrics_sub = metrics_parser.add_subparsers(dest="metrics_command",
                                                required=True)
    metrics_run = metrics_sub.add_parser(
        "run", help="run one workload with metrics collection enabled"
    )
    metrics_run.add_argument("workload", choices=workload_choices)
    metrics_run.add_argument("--scale", type=float, default=1.0,
                             help="input scale in (0, 1]")
    metrics_run.add_argument("--json", metavar="PATH", default=None,
                             help="also write the metrics snapshot as JSON")
    metrics_run.set_defaults(fn=_cmd_metrics)

    trace_parser = sub.add_parser(
        "trace", help="observability: run a workload and export a Chrome trace"
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)
    trace_run = trace_sub.add_parser(
        "run", help="run one workload with span tracing enabled"
    )
    trace_run.add_argument("workload", choices=workload_choices)
    trace_run.add_argument("--scale", type=float, default=1.0,
                           help="input scale in (0, 1]")
    trace_run.add_argument(
        "--out", metavar="PATH", default=None,
        help="Chrome trace_event output path (default: <workload>_trace.json)",
    )
    trace_run.set_defaults(fn=_cmd_trace)

    chaos_parser = sub.add_parser(
        "chaos",
        help="run a randomized fault campaign (or replay one seeded run)",
    )
    chaos_parser.add_argument(
        "--runs", type=int, default=25,
        help="number of seeded campaign runs (default: 25)",
    )
    chaos_parser.add_argument(
        "--workloads", default=",".join(
            ("tpch_q6", "kmeans", "blackscholes", "pagerank")
        ),
        help="comma-separated workload rotation for the campaign",
    )
    chaos_parser.add_argument(
        "--workload", default=None, choices=workload_choices,
        help="replay mode: run exactly one workload with --seed and exit",
    )
    chaos_parser.add_argument(
        "--seed", type=int, default=0,
        help="base seed (campaign) or the exact seed to replay (--workload)",
    )
    chaos_parser.add_argument("--fault-count", type=int, default=3, metavar="N")
    chaos_parser.add_argument("--scale", type=float, default=2**-6)
    chaos_parser.add_argument(
        "--no-validate", action="store_true",
        help="disable checkpoint CRC validation (the planted bug the "
             "campaign exists to catch)",
    )
    chaos_parser.add_argument(
        "--sdc", action="store_true",
        help="include silent-data-corruption faults in the plan pool and "
             "enable the end-to-end integrity layer that catches them",
    )
    chaos_parser.add_argument(
        "--no-verify", action="store_true",
        help="enable the integrity layer but skip digest comparison (the "
             "planted bug: corruption must then reach the report and "
             "violate corruption-detected-before-report)",
    )
    chaos_parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="run the campaign across N worker processes (same outcomes "
             "as serial, just faster; default: 1)",
    )
    chaos_parser.add_argument(
        "--fleet", action="store_true",
        help="run the campaign at rack scale: seeded fleets of --devices "
             "machines serving --tenants tenants under fleet-level faults "
             "(device loss, tenant fault storms)",
    )
    chaos_parser.add_argument(
        "--devices", type=int, default=4, metavar="N",
        help="fleet mode: simulated CSD machines in the rack (default: 4)",
    )
    chaos_parser.add_argument(
        "--tenants", type=int, default=3, metavar="N",
        help="fleet mode: tenants sharing the rack (default: 3)",
    )
    chaos_parser.add_argument(
        "--jobs", type=int, default=24, metavar="N",
        help="fleet mode: jobs per seeded run (default: 24)",
    )
    chaos_parser.add_argument(
        "--no-isolation", action="store_true",
        help="fleet mode: skip the per-job device scrub between tenants "
             "(the planted bug the tenant-isolation invariant must catch)",
    )
    chaos_parser.add_argument("--verbose", action="store_true",
                              help="print a line per campaign run")
    chaos_parser.add_argument("--json", metavar="PATH", default=None)
    chaos_parser.set_defaults(fn=_cmd_chaos)

    fleet_parser = sub.add_parser(
        "fleet", help="rack-scale fleet serving over simulated CSD machines"
    )
    fleet_sub = fleet_parser.add_subparsers(dest="fleet_command", required=True)
    fleet_run = fleet_sub.add_parser(
        "run",
        help="run one seeded fleet: open-loop traffic through admission "
             "control onto N devices, with per-tenant SLO percentiles",
    )
    def add_fleet_args(parser) -> None:
        parser.add_argument("--devices", type=int, default=4, metavar="N")
        parser.add_argument("--tenants", type=int, default=3, metavar="N")
        parser.add_argument("--jobs", type=int, default=24, metavar="N")
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument(
            "--target-load", type=float, default=0.7,
            help="offered load as a fraction of fleet service capacity "
                 "(default: 0.7; push past 1.0 to watch graceful degradation)",
        )
        parser.add_argument("--scale", type=float, default=2**-6)
        parser.add_argument(
            "--lose-device", default=None, metavar="NAME",
            help="inject one DEVICE_LOST_MID_JOB against this device "
                 "(csd, csd1, ...)",
        )
        parser.add_argument(
            "--lose-at", type=float, default=0.5, metavar="T",
            help="simulated time of the injected device loss (default: 0.5)",
        )
        parser.add_argument(
            "--rejoin-after", type=float, default=0.0, metavar="S",
            help="window after which the lost device rejoins (0 = never)",
        )
        parser.add_argument(
            "--window", type=float, default=0.25, metavar="S",
            help="flight-recorder rate/percentile window in simulated "
                 "seconds (default: 0.25)",
        )
        parser.add_argument(
            "--trace-out", metavar="PATH", default=None,
            help="also export the fleet Chrome trace (jobs as spans per "
                 "device track, failover/shed/loss as instants)",
        )
        parser.add_argument("--json", metavar="PATH", default=None)

    add_fleet_args(fleet_run)
    fleet_run.add_argument(
        "--timeline", action="store_true",
        help="attach the flight recorder and print the ASCII sparkline "
             "timeline (utilization, queue depth, sliding-window SLOs, "
             "alerts)",
    )
    fleet_run.set_defaults(fn=_cmd_fleet_run)

    obs_parser = sub.add_parser(
        "obs", help="observability: the fleet flight-recorder dashboard"
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    obs_dashboard = obs_sub.add_parser(
        "dashboard",
        help="run one seeded fleet with the flight recorder attached and "
             "render the sparkline dashboard (timeline always on)",
    )
    add_fleet_args(obs_dashboard)
    obs_dashboard.set_defaults(fn=_cmd_fleet_run, timeline=True)

    faults_parser = sub.add_parser(
        "faults", help="the deterministic fault-injection catalogue"
    )
    faults_sub = faults_parser.add_subparsers(dest="faults_command",
                                              required=True)
    faults_list = faults_sub.add_parser(
        "list", help="list every injectable fault kind with its default target"
    )
    faults_list.set_defaults(fn=_cmd_faults_list)

    explain_parser = sub.add_parser(
        "explain",
        help="observability: attribute a run's time and audit the plan",
    )
    explain_sub = explain_parser.add_subparsers(dest="explain_command",
                                                required=True)
    explain_run = explain_sub.add_parser(
        "run",
        help="run one workload with attribution and explain where the "
             "time went (plan vs. reality, critical path, bottlenecks)",
    )
    explain_run.add_argument("workload", choices=workload_choices)
    explain_run.add_argument("--scale", type=float, default=1.0,
                             help="input scale in (0, 1]")
    explain_run.add_argument(
        "--max-steps", type=int, default=40,
        help="critical-path steps to print (default: 40)",
    )
    explain_run.add_argument("--json", metavar="PATH", default=None,
                             help="also write the full explanation as JSON")
    explain_run.set_defaults(fn=_cmd_explain)

    bench_parser = sub.add_parser(
        "bench",
        help="benchmark the performance layer's wall-clock wins "
             "(profile cache, parallel campaigns) into BENCH_wall.json",
    )
    bench_parser.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="worker processes for the campaign arm (default: 4)",
    )
    bench_parser.add_argument(
        "--repeats", type=int, default=3,
        help="best-of repeats for the warm/cold run arm (default: 3)",
    )
    bench_parser.set_defaults(fn=_cmd_bench)

    perf_parser = sub.add_parser(
        "perf", help="the automated perf-regression gate over BENCH_*.json"
    )
    perf_sub = perf_parser.add_subparsers(dest="perf_command", required=True)
    perf_check = perf_sub.add_parser(
        "check",
        help="diff fresh benchmark results against committed baselines "
             "(exit 1 on regression)",
    )
    perf_check.add_argument(
        "--root", default=".",
        help="repo root holding bench_results/BENCH_*.json (default: .)",
    )
    perf_check.add_argument(
        "--baselines", default=None, metavar="DIR",
        help="baseline directory (default: <root>/perf_baselines)",
    )
    perf_check.add_argument(
        "--planted-regression", action="store_true",
        help="perturb every fresh value in memory before comparing — the "
             "smoke test proving the gate can fail",
    )
    perf_check.add_argument("--json", metavar="PATH", default=None)
    perf_check.set_defaults(fn=_cmd_perf_check)
    perf_snapshot = perf_sub.add_parser(
        "snapshot",
        help="capture current results as the committed baselines (the "
             "paved road for landing an intentional model change)",
    )
    perf_snapshot.add_argument("--root", default=".")
    perf_snapshot.add_argument("--baselines", default=None, metavar="DIR")
    perf_snapshot.set_defaults(fn=_cmd_perf_snapshot)

    validate_parser = sub.add_parser(
        "validate", help="pre-flight check a workload's program definition"
    )
    validate_parser.add_argument("workload")
    validate_parser.add_argument("--scale", type=float, default=2**-7)
    validate_parser.set_defaults(fn=_cmd_validate)

    selfcheck_parser = sub.add_parser(
        "selfcheck",
        help="verify headline numbers against pinned expectations",
    )
    selfcheck_parser.add_argument("--tolerance", type=float, default=0.02)
    selfcheck_parser.add_argument(
        "--repin", action="store_true",
        help="overwrite the pinned expectations with fresh measurements",
    )
    selfcheck_parser.set_defaults(fn=_cmd_selfcheck)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
