"""What a run measured, and the host-speed probe that steadies it.

The 2-vCPU Xeon VM this benchmark was written on shares its cores with
other tenants, in two ways.  A neighbour can take the core outright:
one op's wall time then jumps by 10-40 ms while its CPU time does not.
Or it can share the core, and for seconds at a time the same code runs
1.3-2x slower on the CPU clock as much as on the wall clock.

Each op is therefore timed on the CPU clock (:func:`cpu_clock`: this
process plus the children it has waited for), which drops the first
kind.  Against the second, a timer runs a fixed *reference kernel*
every :data:`PROBE_INTERVAL_S` while set-up and the measured phase run,
and each op's time is reported rescaled to the speed the kernel saw
around it::

    normalised = (cpu - probe cpu inside the op) * REFERENCE_S / kernel time

The unit stays seconds: the op's CPU time on a host where the reference
kernel takes :data:`REFERENCE_S`.  A change to the program moves the op
and not the kernel, so it shows in full; a change in the host's speed
moves both and cancels.  The ops mix interpreter work with NumPy, and
the two slow down by different factors, so the kernel is the geometric
mean of one of each: a NumPy sort and a pure-Python dict-and-object
loop.  Over sets of 8 runs, the sort alone left up to 7x and the loop
alone up to 3x the spread of the op medians that the pair left.  The
unscaled CPU times stay available in the ``--json`` record.
"""

from __future__ import annotations

import bisect
import math
import resource
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["PROBE_INTERVAL_S", "REFERENCE_S", "Tally", "cpu_clock"]

#: Nominal reference-kernel time: about what the kernel takes on the
#: 2-vCPU Xeon VM (Python 3.11, NumPy) in its fastest stretches.
REFERENCE_S = 5.0e-4
PROBE_INTERVAL_S = 0.25
#: Runs of each kernel per probe; the probe takes their medians.
PROBE_RUNS = 3
#: Probes this far (CPU seconds) outside an op still describe its speed.
PROBE_REACH_S = 2 * PROBE_INTERVAL_S


def cpu_clock() -> float:
    """CPU seconds of this process and of the children it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def _interpreter_kernel(n: int = 2000) -> int:
    table: Dict[int, _Node] = {}
    total = 0
    for i in range(n):
        node = _Node(i & 127, i)
        table[node.key] = node
        total += table[i & 127].value
    return total


@dataclass
class Tally:
    """Ops timed, host-speed probes, and the checks' verdicts."""

    #: (op kind, op id, start, end) per timed stretch on
    #: :func:`cpu_clock`; an op may span several stretches (a suite is
    #: timed driver by driver).
    segments: List[Tuple[str, int, float, float]] = field(default_factory=list)
    #: Probes as (start, end, kernel seconds) on :func:`cpu_clock`, in
    #: time order; ``end`` is None while a probe runs.
    probes: List[Tuple[float, Optional[float], float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    _array: Optional[np.ndarray] = field(default=None, repr=False)

    def expect(self, ok: bool, message: str) -> bool:
        """Count one attempted op; a false ``ok`` fails it loudly."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(message)
        return ok

    def problem(self, message: str) -> None:
        """A check outside any op failed (determinism, tree hygiene)."""
        self.problems.append(message)

    def record(self, kind: str, start: float, end: float,
               op_id: Optional[int] = None) -> int:
        """Time one stretch of an op (a new op unless ``op_id`` is given)."""
        if op_id is None:
            op_id = len(self.segments)
        self.segments.append((kind, op_id, start, end))
        return op_id

    # --- host speed -------------------------------------------------------------

    def probe(self, *_signal_args) -> None:
        """Time the reference kernel now (also the timer's signal handler)."""
        if self._array is None:
            self._array = np.random.default_rng(0).random(100_000)
        if self.probes and self.probes[-1][1] is None:
            return  # the timer fired inside a probe
        start = cpu_clock()
        self.probes.append((start, None, 0.0))
        sort_runs, loop_runs = [], []
        for _ in range(PROBE_RUNS):
            t = time.process_time()
            np.sort(self._array)
            sort_runs.append(time.process_time() - t)
            t = time.process_time()
            _interpreter_kernel()
            loop_runs.append(time.process_time() - t)
        kernel = math.sqrt(statistics.median(sort_runs) * statistics.median(loop_runs))
        self.probes[-1] = (start, cpu_clock(), kernel)

    @contextmanager
    def probing(self) -> Iterator[None]:
        """Probe the host's speed on a timer while the block runs."""
        self.probe()
        previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self.probe()

    def _probe_time(self, start: float, end: float) -> float:
        """Seconds the probes spent inside ``[start, end]``.

        The probe runs on the main thread, so it lies wholly inside an
        op or wholly outside it.
        """
        first = bisect.bisect_left(self.probes, (start,))
        last = bisect.bisect_right(self.probes, (end,))
        return sum(e - s for s, e, _ in self.probes[first:last] if e <= end)

    def _kernel_seconds(self, start: float, end: float) -> float:
        """Mean kernel time over ``[start, end]``, widened to reach a probe."""
        reach = PROBE_REACH_S
        while True:
            first = bisect.bisect_left(self.probes, (start - reach,))
            last = bisect.bisect_right(self.probes, (end + reach,))
            near = [k for _, _, k in self.probes[first:last]]
            if near:
                return statistics.fmean(near)
            reach *= 2

    def seconds(self, normalised: bool = True) -> Dict[str, List[float]]:
        """Op kind -> each op's CPU seconds, in op order, probes excluded."""
        if normalised and not self.probes:
            raise RuntimeError("normalised times need probes: time ops inside probing()")
        ops: Dict[int, List] = {}
        for kind, op_id, start, end in self.segments:
            cpu = end - start - self._probe_time(start, end)
            if normalised:
                cpu *= REFERENCE_S / self._kernel_seconds(start, end)
            entry = ops.setdefault(op_id, [kind, 0.0])
            entry[1] += cpu
        out: Dict[str, List[float]] = {}
        for kind, total in ops.values():
            out.setdefault(kind, []).append(total)
        return out
