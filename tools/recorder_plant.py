"""Plant a slowdown in an observability write path and check a CPU ratio sees it.

Run from the repository root::

    PYTHONPATH=src python tools/recorder_plant.py [--path P] [--spin N] [--reps R]

``benchmarks/bench_obs.py`` bounds two paired CPU ratios, each the
median of interleaved observability-off/on passes:

* ``recorder`` (default): ``recorder_cpu_ratio()``, recorder-on / off CPU
  seconds of the 1 000-job fleet loop.  The plant goes into
  ``FlightRecorder.record``, the write every recorded point goes
  through.  The fleet writes each series there in one batch at run
  end, so a write here is one point of the batch.
* ``tracer``: ``tracer_cpu_ratio()``, observability-on / off CPU seconds
  of warm passes over the ActivePy rotation, with metrics and spans
  live (``Observability.with_tracing``).  An arm (40 warm runs) makes
  about 58 000 metric writes and 1 500 registry lookups, so the cost
  is in the metrics.  Almost every write is an append to one of the
  handle's write-behind cells, and ``Observability.flush`` publishes
  them into the registry at the end of each run.  The plant goes into
  ``flush``, sized by the writes it publishes.

The plant is a busy-wait of ``--spin`` empty loop turns per write,
run before the write.  The script first measures what share of the
observability cost the plant adds, then takes the ratio ``--reps``
times with and without the plant, alternating.  The plant counts as caught on the
rule ``benchmarks/e2e`` applies to a claimed gain: the planted ratio is
higher in at least nine of ten pairs, and its median is higher by more
than the unplanted ratios' interquartile range.  The exit code is 0
when it is caught and 1 otherwise.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks.bench_obs import (  # noqa: E402
    RECORDER_CPU_RATIO_BOUND,
    TRACER_CPU_RATIO_BOUND,
    cpu_seconds,
    recorder_cpu_ratio,
    rotation_cpu_seconds,
    tracer_cpu_ratio,
    warm_rotation,
    warm_serve_store,
)
from repro.obs import FlightRecorder, Observability  # noqa: E402

#: Every order of (observability off, on, planted), so that no arm
#: always runs first or last while the plant is sized.
_ORDERS = ("FNP", "NPF", "PFN", "FPN", "PNF", "NFP")

#: Off/on/planted rounds that size the plant.
_ROUNDS = 60


@dataclass(frozen=True)
class PlantPath:
    """One observability write path, the ratio that bounds it, and a
    default plant size."""

    cls: type
    method: str
    ratio: Callable[[], tuple]
    bound: float
    spin: int
    #: ``arms()`` -> (off pass, on pass): each returns CPU seconds.
    arms: Callable[[], tuple]
    #: ``writes(instance, args)`` -> how many writes one call of
    #: ``method`` makes.
    writes: Callable[[object, tuple], int] = lambda instance, args: 1


def _recorder_arms():
    store = warm_serve_store()
    return (lambda: cpu_seconds(store, None),
            lambda: cpu_seconds(store, Observability.with_timeseries()))


def _tracer_arms():
    warm = warm_rotation()
    return (lambda: rotation_cpu_seconds(warm, lambda: None),
            lambda: rotation_cpu_seconds(warm, Observability.with_tracing))


PATHS = {
    "recorder": PlantPath(FlightRecorder, "record", recorder_cpu_ratio,
                          RECORDER_CPU_RATIO_BOUND, 5, _recorder_arms,
                          writes=lambda recorder, args: len(args[2])),
    "tracer": PlantPath(Observability, "flush", tracer_cpu_ratio,
                        TRACER_CPU_RATIO_BOUND, 2, _tracer_arms,
                        writes=lambda obs, args: obs.pending),
}


class _Plant:
    """Swaps a busy-wait in front of ``path``'s write while active."""

    def __init__(self, path: PlantPath, spin: int) -> None:
        self.path = path
        self.original = getattr(path.cls, path.method)
        original = self.original
        writes = path.writes

        def planted(self, *args):
            for _ in range(spin * writes(self, args)):
                pass
            return original(self, *args)

        self.planted = planted

    def __enter__(self):
        setattr(self.path.cls, self.path.method, self.planted)

    def __exit__(self, *exc):
        setattr(self.path.cls, self.path.method, self.original)


def plant_share(path: PlantPath, spin: int) -> float:
    """The plant's added CPU as a share of the observability cost."""
    off, on = path.arms()
    plant = _Plant(path, spin)

    def arm_seconds(arm: str) -> float:
        if arm == "F":
            return off()
        if arm == "N":
            return on()
        with plant:
            return on()

    observing, planted = [], []
    for index in range(_ROUNDS):
        cpu = {arm: arm_seconds(arm) for arm in _ORDERS[index % len(_ORDERS)]}
        observing.append(cpu["N"] - cpu["F"])
        planted.append(cpu["P"] - cpu["N"])
    return statistics.median(planted) / statistics.median(observing)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--path", choices=tuple(PATHS), default="recorder",
                        help="which write path to plant in (default recorder)")
    parser.add_argument("--spin", type=int,
                        help="empty loop turns added to each write "
                             "(default 5 for recorder, 2 for tracer)")
    parser.add_argument("--reps", type=int, default=10,
                        help="ratio measurements per arm (default 10)")
    args = parser.parse_args()
    path = PATHS[args.path]
    spin = path.spin if args.spin is None else args.spin

    share = plant_share(path, spin)
    print(f"plant: {spin} turns per write in {path.cls.__name__}.{path.method} add "
          f"{share * 100:.1f}% of the observability CPU cost")
    clean, planted = [], []
    for _ in range(args.reps):
        clean.append(path.ratio()[0])
        with _Plant(path, spin):
            planted.append(path.ratio()[0])
    print("unplanted ratios: " + " ".join(f"{r:.3f}" for r in clean))
    print("planted ratios:   " + " ".join(f"{r:.3f}" for r in planted))
    wins = sum(1 for before, after in zip(clean, planted) if after > before)
    lower, _, upper = statistics.quantiles(clean, n=4)
    rise = statistics.median(planted) - statistics.median(clean)
    caught = wins >= 0.9 * len(clean) and rise > upper - lower
    print(f"median {statistics.median(clean):.3f} -> "
          f"{statistics.median(planted):.3f} (+{rise:.3f}; unplanted IQR "
          f"{upper - lower:.3f}, range {min(clean):.3f}-{max(clean):.3f}; "
          f"bench bound {path.bound}); "
          f"planted higher in {wins}/{len(clean)} pairs: "
          + ("caught" if caught else "missed"))
    return 0 if caught else 1


if __name__ == "__main__":
    sys.exit(main())
