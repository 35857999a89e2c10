"""Command-line interface.

::

    python -m repro list                       # the workload suite
    python -m repro run tpch_q6 [--trace]      # one workload end to end
    python -m repro run tpch_q6 --metrics      # ... with the metric report
    python -m repro run tpch_q6 --trace-out t.json  # ... exporting a Chrome trace
    python -m repro run tpch_q6 --explain      # ... plan vs. reality + critical path
    python -m repro run pagerank --plan-mode search  # ... with the exact plan search
    python -m repro run blackscholes --stress 0.1 --fault-count 3  # ... migrated, faulted
    python -m repro table1                     # regenerate Table I
    python -m repro fig2 | fig4 | fig5         # a figure, then its claim rows
    python -m repro ladder | prediction        # the §V results, likewise
    python -m repro selfcheck                  # every paper claim: band and pin
    python -m repro chaos [--runs N]           # randomized fault campaign
    python -m repro chaos --workers 4          # ... across worker processes
    python -m repro chaos --sdc                # ... with silent-corruption faults
    python -m repro chaos --workload kmeans --seed 157  # replay one seeded run
    python -m repro chaos --fleet [--runs N]   # rack-scale fleet fault campaign
    python -m repro fleet run [--devices N]    # one seeded fleet run
    python -m repro fleet run --timeline       # ... with the flight recorder
    python -m repro fleet run --trace-out t.json  # ... exporting a fleet trace
    python -m repro faults list                # catalogue of injectable faults
    python -m repro bench                      # wall-clock perf-layer benchmark
    python -m repro perf check                 # gate BENCH_*.json vs baselines
    python -m repro perf snapshot              # refresh committed perf baselines
    python -m repro ... --json out.json        # archive the raw result

Every command runs on the simulated platform; ``--scale`` shrinks the
input population for quick smoke runs (ratios then deviate from the
calibrated paper-scale ones).  ``run`` is the one command that runs a
workload: each observer flag (``--trace``, ``--trace-out``,
``--metrics``, ``--explain``, ``--json``) composes with each run flag
(``--stress``, ``--fault-count``, ``--plan-mode``), and observing a run
never changes its simulated seconds.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .analysis import claims, export
from .analysis.report import FIGURES, format_table
from .baselines import run_c_baseline
from .obs import (
    Observability,
    TimeAttributor,
    Tracer,
    build_critical_path,
    render_gantt,
    validate_chrome_trace,
    write_chrome_trace,
)
from .runtime.activepy import PLAN_MODES, ActivePy, RunOptions
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
    tracing = args.trace or args.trace_out is not None or args.explain
    obs = None
    if tracing or args.metrics:
        obs = Observability(
            tracer=Tracer() if tracing else None,
            attribution=TimeAttributor() if args.explain else None,
        )
    machine = build_machine(obs=obs)
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
    if args.metrics:
        print()
        print(obs.metrics.render())
    path = build_critical_path(obs) if args.explain else None
    if path is not None:
        print(f"prof cache : {report.sampling_cache_status}")
        print()
        print(report.explanation.render())
        print()
        print(path.render())
        print()
        print(path.attribution.render())
    if args.trace_out is not None:
        trace = write_chrome_trace(obs.tracer.spans, args.trace_out)
        problems = validate_chrome_trace(trace)
        if problems:
            for problem in problems:
                print(f"repro run: invalid trace: {problem}", file=sys.stderr)
            return 1
        print(f"wrote {args.trace_out} ({len(obs.tracer.spans)} span(s)) — "
              f"open in chrome://tracing or https://ui.perfetto.dev")
    if args.json:
        payload = report.to_jsonable()
        if path is not None:
            payload["critical_path"] = path.to_jsonable()
            payload["attribution"] = path.attribution.to_jsonable()
        export.dump(payload, args.json)
        print(f"wrote {args.json}")
    return 0


def _cmd_figure(args) -> int:
    """Print each driver's table, then its rows of the claim table."""
    renderers = FIGURES[args.command][1]
    results = {driver: claims.DRIVERS[driver]() for driver in renderers}
    verdicts = claims.evaluate(results)
    for driver, render in renderers.items():
        print(render(results[driver]) + "\n")
    print(claims.render(verdicts))
    if args.json:
        export.dump(results, args.json)
        print(f"\nwrote {args.json}")
    return 0 if all(verdict.ok for verdict in verdicts) else 1


def _cmd_fleet_run(args) -> int:
    from .faults.spec import FaultKind, FaultPlan, FaultSpec
    from .fleet import Fleet, FleetConfig, default_tenants, device_names

    specs = []
    if args.lose_device is not None:
        names = device_names(args.devices)
        if args.lose_device not in names:
            args.usage_error(
                f"argument --lose-device: unknown device {args.lose_device!r} "
                f"(choose from {', '.join(names)})"
            )
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
    obs = None
    if args.timeline or args.trace_out is not None:
        obs = Observability.with_timeseries(
            window_s=args.window, tracing=args.trace_out is not None,
        )
    report = Fleet(config, obs=obs).run()
    print(report.render())
    if args.timeline:
        print()
        print(f"timeline (window {obs.timeseries.window_s:g}s simulated, "
              f"one sparkline per series):")
        print(obs.timeseries.render())
    if args.trace_out is not None:
        from .fleet import write_fleet_chrome_trace

        trace = write_fleet_chrome_trace(report, args.trace_out)
        problems = validate_chrome_trace(trace)
        if problems:
            for problem in problems:
                print(f"repro fleet: invalid trace: {problem}",
                      file=sys.stderr)
            return 1
        print(f"wrote {args.trace_out} ({len(trace['traceEvents'])} event(s)) — "
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
    verdicts = claims.run_claims()
    print(claims.render(verdicts))
    return 0 if all(verdict.ok for verdict in verdicts) else 1


def _bounded(convert, accept, expected: str):
    """An argparse ``type=`` that converts and range-checks one value.

    Out-of-range input exits 2 with a usage line, like any other
    malformed argument, before any work starts.
    """
    def parse(text: str):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {expected}, got {text}")
        return value

    # argparse names the type in its "invalid <type> value" message.
    parse.__name__ = convert.__name__
    return parse


#: Input scales and CSE availabilities: a fraction in (0, 1].
_fraction = _bounded(float, lambda value: 0 < value <= 1, "in (0, 1]")
_non_negative_int = _bounded(int, lambda value: value >= 0, "at least 0")
_positive_int = _bounded(int, lambda value: value > 0, "at least 1")
_positive_float = _bounded(float, lambda value: value > 0, "positive")
_non_negative_float = _bounded(float, lambda value: value >= 0, "at least 0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ActivePy reproduction (DAC 2023) — simulated ISP platform",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the workload suite").set_defaults(fn=_cmd_list)

    run_parser = sub.add_parser(
        "run",
        help="run one workload end to end; every observer flag composes "
             "with every run flag",
    )
    run_parser.add_argument("workload", choices=workload_names())
    run_parser.add_argument("--scale", type=_fraction, default=1.0,
                            help="input scale in (0, 1] (default: paper scale)")
    run_parser.add_argument(
        "--stress", type=_fraction, default=None, metavar="AVAIL",
        help="throttle the CSE to AVAIL in (0, 1] once the offloaded work "
             "reaches 50%% progress (the paper's Figure 5 scenario)",
    )
    run_parser.add_argument(
        "--fault-count", type=_non_negative_int, default=0, metavar="N",
        help="inject N deterministic faults (crashes, lost completions, "
             "media errors, link degradation) during the run",
    )
    run_parser.add_argument(
        "--fault-seed", type=int, default=None, metavar="SEED",
        help="seed for the generated fault plan (default: config fault_seed)",
    )
    run_parser.add_argument(
        "--plan-mode", choices=PLAN_MODES, default="greedy",
        help="how step 3 picks the host/CSD split: the paper's greedy "
             "Algorithm 1, or the exact plan search",
    )
    run_parser.add_argument("--trace", action="store_true",
                            help="render the run's spans as a Gantt chart")
    run_parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write the run's spans as a validated Chrome trace_event JSON "
             "(open in chrome://tracing or Perfetto)",
    )
    run_parser.add_argument("--metrics", action="store_true",
                            help="print the run's metric report")
    run_parser.add_argument(
        "--explain", action="store_true",
        help="attribute every simulated second and print plan vs. reality, "
             "the critical path and the per-component attribution",
    )
    run_parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the run report as JSON (with --explain, also the "
             "critical path and attribution)",
    )
    run_parser.set_defaults(fn=_cmd_run)

    for name, (title, _) in FIGURES.items():
        cmd = sub.add_parser(name, help=f"regenerate {title}")
        cmd.add_argument("--json", metavar="PATH", default=None)
        cmd.set_defaults(fn=_cmd_figure)

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
        "--workload", default=None, choices=workload_names(),
        help="replay mode: run exactly one workload with --seed and exit",
    )
    chaos_parser.add_argument(
        "--seed", type=int, default=0,
        help="base seed (campaign) or the exact seed to replay (--workload)",
    )
    chaos_parser.add_argument("--fault-count", type=int, default=3, metavar="N")
    chaos_parser.add_argument("--scale", type=_fraction, default=2**-6)
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
    fleet_run.add_argument("--devices", type=_positive_int, default=4, metavar="N")
    fleet_run.add_argument("--tenants", type=_positive_int, default=3, metavar="N")
    fleet_run.add_argument("--jobs", type=_positive_int, default=24, metavar="N")
    fleet_run.add_argument("--seed", type=int, default=0)
    fleet_run.add_argument(
        "--target-load", type=_positive_float, default=0.7,
        help="offered load as a fraction of fleet service capacity "
             "(default: 0.7; push past 1.0 to watch graceful degradation)",
    )
    fleet_run.add_argument("--scale", type=_fraction, default=2**-6)
    fleet_run.add_argument(
        "--lose-device", default=None, metavar="NAME",
        help="inject one DEVICE_LOST_MID_JOB against this device "
             "(csd, csd1, ...)",
    )
    fleet_run.add_argument(
        "--lose-at", type=_non_negative_float, default=0.5, metavar="T",
        help="simulated time of the injected device loss (default: 0.5)",
    )
    fleet_run.add_argument(
        "--rejoin-after", type=_non_negative_float, default=0.0, metavar="S",
        help="window after which the lost device rejoins (0 = never)",
    )
    fleet_run.add_argument(
        "--window", type=_positive_float, default=0.25, metavar="S",
        help="flight-recorder rate/percentile window in simulated "
             "seconds (default: 0.25)",
    )
    fleet_run.add_argument(
        "--timeline", action="store_true",
        help="attach the flight recorder and print the ASCII sparkline "
             "timeline (utilization, queue depth, sliding-window SLOs, "
             "alerts)",
    )
    fleet_run.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="also export the fleet Chrome trace (jobs as spans per "
             "device track, failover/shed/loss as instants)",
    )
    fleet_run.add_argument("--json", metavar="PATH", default=None)
    fleet_run.set_defaults(fn=_cmd_fleet_run, usage_error=fleet_run.error)

    faults_parser = sub.add_parser(
        "faults", help="the deterministic fault-injection catalogue"
    )
    faults_sub = faults_parser.add_subparsers(dest="faults_command",
                                              required=True)
    faults_list = faults_sub.add_parser(
        "list", help="list every injectable fault kind with its default target"
    )
    faults_list.set_defaults(fn=_cmd_faults_list)

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
    validate_parser.add_argument("workload", choices=workload_names())
    validate_parser.add_argument("--scale", type=_fraction, default=2**-7)
    validate_parser.set_defaults(fn=_cmd_validate)

    selfcheck_parser = sub.add_parser(
        "selfcheck",
        help="check every paper claim against its band and pinned value",
    )
    selfcheck_parser.set_defaults(fn=_cmd_selfcheck)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
