"""Shared machinery for the benchmark harness.

The ``bench_*`` modules time the machinery the paper's figures rest on
(the planner, the frontend, design-choice ablations) and the
fault-tolerance, observability, fleet and substrate layers, each under
``pytest-benchmark`` with one round where the run is deterministic (the
simulator is, so repetition only measures the harness).  The paper's
tables and figures themselves are printed, and their claims gated, by
``python -m repro <figure>``.

Run everything with::

    pytest benchmarks/ --benchmark-only

or only the assertions, as CI does, with ``--benchmark-disable``.

Results go to ``bench_results/BENCH_<name>.json`` in a
``schema_version`` 2 envelope with run metadata (config hash, the
seed/workload details the module supplies).  The perf gate
(:mod:`repro.perfgate`) reads them there.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Optional

from repro import __version__
from repro.config import DEFAULT_CONFIG

_REPO_ROOT = Path(__file__).resolve().parents[1]

#: Results directory (schema v2, with metadata envelope).
_RESULTS_DIR = _REPO_ROOT / "bench_results"

_SCHEMA_VERSION = 2


def config_hash() -> str:
    """A describable fingerprint of the default platform parameters.

    Two results files with the same hash were produced by the same
    simulated platform, so their simulated seconds are comparable
    exactly; a hash change flags that a baseline refresh reflects a
    deliberate model change rather than noise.
    """
    payload = json.dumps(
        dataclasses.asdict(DEFAULT_CONFIG), sort_keys=True, default=str
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def run_once(benchmark, fn):
    """Benchmark a deterministic experiment with a single round."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def write_bench_json(name: str, payload: dict, meta: Optional[dict] = None) -> Path:
    """Write one benchmark module's results; returns the file's path.

    Modules accumulate into the same file across their tests (read,
    merge, rewrite), so a partial run still leaves valid JSON behind.
    ``meta`` carries run metadata (seed, workloads, scale...) into the
    schema-v2 envelope; identity metadata (config hash, version) is
    stamped automatically.
    """
    path = _RESULTS_DIR / f"BENCH_{name}.json"
    previous: dict = {}
    if path.exists():
        try:
            previous = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            previous = {}
    previous.pop("schema_version", None)
    previous_meta = previous.pop("meta", {})
    envelope = {
        "schema_version": _SCHEMA_VERSION,
        "meta": {
            **previous_meta,
            "bench": name,
            "config_hash": config_hash(),
            "repro_version": __version__,
            **(meta or {}),
        },
        **previous,
        **payload,
    }
    _RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(envelope, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path
