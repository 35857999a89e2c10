"""Command line: ``python -m benchmarks.e2e`` from the repository root.

With ``--workload`` it runs that one workload in this process and
prints each metric with its unit, then one JSON object as the last
line of standard output.  Without ``--workload`` it runs all four, one
at a time, each in a fresh interpreter.  The exit code is 0 only when
every correctness check passed.
"""

from __future__ import annotations

import os

# One BLAS thread.  This has to happen before NumPy loads, which the
# imports below do: a second BLAS thread spins on the other core, which
# made identical set-ups take 1x or 3x their time and doubles the CPU
# time the benchmark measures.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from .workloads import ROOT, WORKLOADS  # noqa: E402


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__)
    parser.add_argument("--workload", choices=tuple(WORKLOADS),
                        help="run one workload here (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (default 0)")
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="length of the measured phase (default 12)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced pass")
    parser.add_argument("--trace-out", metavar="TRACE.json",
                        help="with --trace 1, write the Chrome trace here")
    parser.add_argument("--json", metavar="OUT",
                        help="append each run's result as one JSON line to OUT")
    return parser


def _run_one(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"benchmarks.e2e: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from .runner import run_workload

    result = run_workload(args.workload, seed=args.seed, seconds=args.seconds,
                          trace=bool(args.trace))
    print(f"{args.workload} seed={args.seed} "
          f"({'traced pass' if args.trace else 'measured'}): "
          f"{result.tally.attempted} op(s), {result.tally.failed} failed")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    for name, value in sorted(result.sims.items()):
        print(f"  ({name} = {value!r})")
    for layer in result.unwrapped:
        print(f"WARNING: layer {layer} is unwrapped", file=sys.stderr)
    for problem in result.tally.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    if args.trace_out and result.recorder is not None:
        from repro.obs import validate_chrome_trace

        trace = result.recorder.chrome_trace()
        for problem in validate_chrome_trace(trace):
            result.tally.problem(f"chrome trace: {problem}")
        Path(args.trace_out).write_text(json.dumps(trace) + "\n", encoding="utf-8")
    if args.json:
        with open(args.json, "a", encoding="utf-8") as out:
            out.write(json.dumps(result.record()) + "\n")
    print(json.dumps(result.line()))
    return 0 if result.correct else 1


def _run_all(args) -> int:
    failed = []
    for name in WORKLOADS:
        command = [sys.executable, "-m", "benchmarks.e2e", "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.json:
            command += ["--json", str(Path(args.json).resolve())]
        if args.trace_out:
            out = Path(args.trace_out).resolve()
            command += ["--trace-out", str(out.with_name(f"{out.stem}.{name}{out.suffix}"))]
        if subprocess.run(command, cwd=ROOT).returncode != 0:
            failed.append(name)
    if failed:
        print(f"benchmarks.e2e: failed: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return _run_one(args) if args.workload else _run_all(args)


if __name__ == "__main__":
    sys.exit(main())
