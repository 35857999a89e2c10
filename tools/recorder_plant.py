"""Plant a flight-recorder slowdown and check the recorder CPU ratio sees it.

Run from the repository root::

    PYTHONPATH=src python tools/recorder_plant.py [--spin N] [--reps R]

``benchmarks/bench_obs.py`` records ``timeseries.recorder_cpu_ratio_1000_jobs``:
recorder-on / recorder-off CPU seconds of the 1 000-job fleet loop, the
median of interleaved pairs.  This script patches a busy-wait of
``--spin`` empty loop turns into ``TimeSeries.append``, the write every
recorded point goes through.  It first measures what share of the
recorder's own cost the plant adds, then takes the ratio ``--reps`` times
with and without the plant, alternating.  The plant counts as caught on
the rule ``benchmarks/e2e`` applies to a claimed gain: the planted ratio
is higher in at least nine of ten pairs, and its median is higher by
more than the unplanted ratios' interquartile range.  The exit code is
0 when it is caught and 1 otherwise.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks.bench_obs import (  # noqa: E402
    cpu_seconds,
    recorder_cpu_ratio,
    warm_serve_store,
)
from repro.obs import Observability, TimeSeries  # noqa: E402

_ORIGINAL_APPEND = TimeSeries.append

#: Every order of (recorder off, on, planted), so that no arm always
#: runs first or last while the plant is sized.
_ORDERS = ("FNP", "NPF", "PFN", "FPN", "PNF", "NFP")

#: Off/on/planted rounds that size the plant.
_ROUNDS = 60


def planted_append(spin: int):
    turns = range(spin)

    def append(self, t, value):
        for _ in turns:
            pass
        _ORIGINAL_APPEND(self, t, value)

    return append


def plant_share(spin: int) -> float:
    """The plant's added CPU as a share of the recorder's cost."""
    store = warm_serve_store()
    slowed = planted_append(spin)

    def arm_seconds(arm: str) -> float:
        TimeSeries.append = slowed if arm == "P" else _ORIGINAL_APPEND
        try:
            obs = None if arm == "F" else Observability.with_timeseries()
            return cpu_seconds(store, obs)
        finally:
            TimeSeries.append = _ORIGINAL_APPEND

    recorder, plant = [], []
    for index in range(_ROUNDS):
        cpu = {arm: arm_seconds(arm) for arm in _ORDERS[index % len(_ORDERS)]}
        recorder.append(cpu["N"] - cpu["F"])
        plant.append(cpu["P"] - cpu["N"])
    return statistics.median(plant) / statistics.median(recorder)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spin", type=int, default=2,
                        help="empty loop turns added to each append (default 2)")
    parser.add_argument("--reps", type=int, default=10,
                        help="ratio measurements per arm (default 10)")
    args = parser.parse_args()

    share = plant_share(args.spin)
    print(f"plant: {args.spin} turns per append add {share * 100:.1f}% "
          f"of the recorder's CPU cost")
    clean, planted = [], []
    for _ in range(args.reps):
        clean.append(recorder_cpu_ratio()[0])
        TimeSeries.append = planted_append(args.spin)
        try:
            planted.append(recorder_cpu_ratio()[0])
        finally:
            TimeSeries.append = _ORIGINAL_APPEND
    print("unplanted ratios: " + " ".join(f"{r:.3f}" for r in clean))
    print("planted ratios:   " + " ".join(f"{r:.3f}" for r in planted))
    wins = sum(1 for before, after in zip(clean, planted) if after > before)
    lower, _, upper = statistics.quantiles(clean, n=4)
    rise = statistics.median(planted) - statistics.median(clean)
    caught = wins >= 0.9 * len(clean) and rise > upper - lower
    print(f"median {statistics.median(clean):.3f} -> "
          f"{statistics.median(planted):.3f} (+{rise:.3f}; unplanted IQR "
          f"{upper - lower:.3f}, range {min(clean):.3f}-{max(clean):.3f}); "
          f"planted higher in {wins}/{len(clean)} pairs: "
          + ("caught" if caught else "missed"))
    return 0 if caught else 1


if __name__ == "__main__":
    sys.exit(main())
