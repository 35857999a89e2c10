"""Which functions under ``src/repro`` no entry point reaches.

Run from the repository root::

    python tools/reach.py

The pass runs every non-test entry point in this one process under
``cProfile``:

* every CLI command, in the shapes ``cli_shapes`` lists;
* the examples under ``examples/``;
* every ``benchmarks/bench_*.py``, as pytest runs them in CI.

It then maps each code object the profiler saw back to the ``def`` it
came from, and prints the functions no entry point called, per module,
with the line count of each body and a total.  The exit code is 1 when
a module that defines functions has none reached (a dead module), or
when an entry point raised; 0 otherwise.

The entry points run against a fresh profile cache, so both the cold
and the warm paths are reached, and the committed
``bench_results/*.json`` are restored after the benches rewrite them.
Work done in a worker process is not seen: the campaign's worker entry
points read as uncalled, although the runs they make also run
in-process here.
"""

from __future__ import annotations

import ast
import contextlib
import cProfile
import io
import os
import runpy
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

#: The paper's workloads, in the order ``repro list`` prints them.
WORKLOADS = (
    "blackscholes", "kmeans", "lightgbm", "matrixmul", "mixedgemm",
    "pagerank", "sparsemv", "tpch_q1", "tpch_q6", "tpch_q14",
)

#: One run's scale: small enough for milliseconds to a second a run,
#: large enough that every workload samples, plans and offloads.
RUN_SCALE = "0.0625"


def cli_shapes(out: Path) -> List[List[str]]:
    """Every CLI command, once per shape; output files go under ``out``."""
    shapes: List[List[str]] = [["list"], ["selfcheck"]]
    for figure in ("table1", "fig2", "fig4", "fig5", "ladder", "prediction"):
        shapes.append([figure, "--json", str(out / f"{figure}.json")])
    for name in WORKLOADS:
        shapes.append([
            "run", name, "--scale", RUN_SCALE, "--trace", "--metrics",
            "--explain", "--trace-out", str(out / f"{name}.trace.json"),
            "--json", str(out / f"{name}.json"),
        ])
        shapes.append([
            "run", name, "--scale", RUN_SCALE, "--stress", "0.1",
            "--fault-count", "3", "--plan-mode", "search",
        ])
        shapes.append(["validate", name])
    shapes += [
        ["chaos", "--runs", "8", "--scale", "0.0078125", "--verbose",
         "--json", str(out / "chaos.json")],
        ["chaos", "--workload", "kmeans", "--seed", "157", "--fault-count", "3",
         "--no-validate"],
        ["chaos", "--runs", "4", "--sdc", "--no-verify"],
        ["chaos", "--runs", "4", "--fleet", "--no-isolation", "--verbose"],
        ["fleet", "run"],
        ["fleet", "run", "--lose-device", "csd1", "--rejoin-after", "0.5",
         "--timeline", "--trace-out", str(out / "fleet.trace.json"),
         "--json", str(out / "fleet.json")],
        ["faults", "list"],
        ["perf", "check", "--root", str(ROOT)],
        ["perf", "snapshot", "--root", str(ROOT), "--baselines", str(out / "baselines")],
        ["bench", "--workers", "2", "--repeats", "1"],
    ]
    return shapes


@dataclass(frozen=True)
class Def:
    """One ``def`` under the package: where it starts and how long it is."""

    module: str
    qualname: str
    body_lines: int


def collect_defs(package: Path) -> Dict[Tuple[str, int], Def]:
    """Every ``def`` under ``package``, keyed as its code object names it.

    The key is ``(file, first line)``, where the first line is that of
    the first decorator if there is one, as in ``co_firstlineno``.
    """
    defs: Dict[Tuple[str, int], Def] = {}
    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package.parent).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    body = child.end_lineno - child.body[0].lineno + 1
                    defs[(str(path.resolve()), first)] = Def(module, qualname, body)
                    visit(child, qualname + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return defs


def profile(entry_points: Iterable[Tuple[str, Callable[[], object]]]
            ) -> Tuple[Set[Tuple[str, int]], List[str]]:
    """Run each entry point under one profiler.

    Returns the ``(file, first line)`` of every Python code object
    called, and a traceback for every entry point that raised.
    """
    profiler = cProfile.Profile()
    failures: List[str] = []
    for name, entry in entry_points:
        profiler.enable()
        try:
            entry()
        except SystemExit:
            pass
        except Exception:
            failures.append(f"{name}:\n{traceback.format_exc()}")
        finally:
            profiler.disable()
    called = {
        (str(Path(e.code.co_filename).resolve()), e.code.co_firstlineno)
        for e in profiler.getstats()
        if not isinstance(e.code, str)
    }
    return called, failures


def uncalled(defs: Dict[Tuple[str, int], Def],
             called: Set[Tuple[str, int]]) -> List[Def]:
    """The defs no called code object maps to, in module order."""
    return [d for key, d in defs.items() if key not in called]


def dead_modules(defs: Dict[Tuple[str, int], Def],
                 missing: List[Def]) -> List[str]:
    """Modules that define functions and have none of them reached."""
    defined = Counter(d.module for d in defs.values())
    unreached = Counter(d.module for d in missing)
    return sorted(m for m, n in unreached.items() if n == defined[m])


def render(defs: Dict[Tuple[str, int], Def], missing: List[Def]) -> str:
    """The per-module report, a total line and the dead modules."""
    lines: List[str] = []
    for module, group in groupby(missing, key=lambda d: d.module):
        group = list(group)
        lines.append(
            f"{module}: {len(group)} uncalled "
            f"({sum(d.body_lines for d in group)} body lines)"
        )
        lines += [f"    {d.qualname:<60} {d.body_lines:>4}" for d in group]
    lines.append(
        f"total: {len(missing)} of {len(defs)} functions uncalled "
        f"({sum(d.body_lines for d in missing)} body lines)"
    )
    dead = dead_modules(defs, missing)
    lines.append(f"dead modules: {', '.join(dead) if dead else 'none'}")
    return "\n".join(lines)


def _quiet(fn: Callable[[], object]) -> Callable[[], object]:
    def run() -> object:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return fn()
    return run


def _cli(argv: List[str]) -> object:
    # Imported here, under the profiler, so that what the package runs
    # at import time counts as reached.
    from repro.cli import main

    return main(argv)


def entry_points(out: Path) -> List[Tuple[str, Callable[[], object]]]:
    """The CLI shapes, the examples and the benches, as callables."""
    points: List[Tuple[str, Callable[[], object]]] = []
    for argv in cli_shapes(out):
        points.append((f"repro {' '.join(argv)}", _quiet(lambda a=argv: _cli(a))))
    for example in sorted((ROOT / "examples").glob("*.py")):
        points.append((
            f"examples/{example.name}",
            _quiet(lambda p=example: runpy.run_path(str(p), run_name="__main__")),
        ))

    def benches() -> object:
        import pytest

        files = [str(p) for p in sorted((ROOT / "benchmarks").glob("bench_*.py"))]
        return pytest.main([
            *files, "-q", "--benchmark-disable", "-p", "no:cacheprovider",
            "--rootdir", str(ROOT),
        ])

    points.append(("benchmarks/bench_*.py", _quiet(benches)))
    return points


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    results = ROOT / "bench_results"
    committed = {p: p.read_bytes() for p in results.glob("*.json")}
    start = time.perf_counter()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        os.environ["REPRO_CACHE_DIR"] = str(Path(tmp) / "cache")
        os.chdir(tmp)
        try:
            points = entry_points(Path(tmp))
            called, failures = profile(points)
        finally:
            os.chdir(cwd)
            for path, data in committed.items():
                path.write_bytes(data)
    defs = collect_defs(PACKAGE)
    missing = uncalled(defs, called)
    print(f"reach: {len(points)} entry points in {time.perf_counter() - start:.1f} s")
    print(render(defs, missing))
    for failure in failures:
        print(f"entry point raised: {failure}", file=sys.stderr)
    return 1 if failures or dead_modules(defs, missing) else 0


if __name__ == "__main__":
    sys.exit(main())
