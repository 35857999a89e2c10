"""Exact plan search: a two-state dynamic program over priced steps.

Algorithm 1 plans from Equation 1's *fitted* estimates and inherits the
sampling phase's extrapolation errors.  In §V's CSR case study
(``pagerank``, ``sparsemv``) power-law sample prefixes over-predict the
conversion's output ~2.4x, so greedy keeps it on the host while the
oracle offloads it; no re-fitting at sample scale can see that bend.

The search prices each step instead, from the ground-truth volumes
the executor charges.  A step — line ``i`` at ``location`` with the
live value on ``value_location`` — costs the simulated seconds
``PlanExecutor.step`` would advance the clock by on a fault-free,
undisturbed machine.  :func:`_step_seconds` is that step in closed
form: the executor's clock advances (input move, doorbell, per-chunk
transfer, stretch, compute, verify, checkpoint and status message)
added in the executor's order, from the clock reading a run starts its
first line at, so it equals the executor's own measurement bit for bit
(``tests/test_plansearch.py`` holds it to a fresh machine with ``==``).
A makespan is the left fold of its steps in line order, and a step
sees the past only through where the live value sits, so the state
space is a two-state chain and a Viterbi-style pass is exact::

    best[-1] = {HOST: 0.0}
    best[i][loc] = min over prev of best[i-1][prev] + step(i, loc, prev)
    makespan = min(best[k-1][HOST], best[k-1][CSD] + step(FINAL, HOST, CSD))

Every path is summed by the same fold and IEEE addition is monotone, so
the DP minimum equals the brute-force minimum over all 2^k assignments
with no epsilon.

The pass is a branch-and-bound: a step is priced only if it can still
win.  At each (line, location) the prefix ending on the cheaper
predecessor is completed first; the other predecessor's step is skipped
when that predecessor's prefix alone is strictly greater than the
candidate found.  A step costs at least 0.0 seconds and rounding never
makes ``a + s`` smaller than ``a``, so a skipped candidate could neither
win nor tie: the kept ``best`` values and prefixes are those of the
unpruned pass, bit for bit, and the final readback is bounded the same
way.  Priced steps are memoised; greedy's walk and the all-host walk
then price, lazily, any step they still need.  A search prices at most
4k-1 steps with the CSD on (line 0 is only fed from the host) and
exactly k with it off (``SearchReport.steps_simulated``); over the
rotation at scale 1 it prices 96 of 122.  Skipping steps is sound
because a step's seconds are a pure function of the program, the
record count, the config and the step.

When greedy's walked makespan ties the optimum its assignment is
returned bit for bit, so the search is never worse than Algorithm 1.
Unlike Algorithm 1, the search reads the statements' ground-truth cost
face, exactly as much of it as the executor charges: it stands for
running each step on the machine, which is how it sees the volumes the
sampled curves get wrong.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import reduce
from itertools import chain, repeat
from operator import add
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

from ..config import SystemConfig
from ..errors import PlanningError
from ..lang.dataset import Dataset
from ..lang.program import Program
from .codegen import ExecutionMode
from .estimator import LineEstimate
from .executor import chunk_advances
from .planner import CSD, HOST, Plan, assign_csd_code, host_only_plan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import Observability

__all__ = ["SearchReport", "search_plan"]

#: A step: line ``index`` runs at ``location`` with the live value
#: currently on ``value_location``.
_StepKey = Tuple[int, str, str]

#: Sentinel index for the final device→host readback step.
_FINAL = -1


@dataclass
class SearchReport:
    """Outcome of one plan search, greedy baseline included."""

    plan: Plan
    greedy_plan: Plan
    #: Fault-free simulated makespan of the chosen plan.
    makespan_s: float
    #: Fault-free makespan of greedy's plan over the same steps.
    greedy_makespan_s: float
    #: Distinct line-steps priced.
    steps_simulated: int = 0
    #: Host wall-clock seconds the search took.
    wall_seconds: float = 0.0
    #: True when the plan cache served the report and no search ran.
    cache_hit: bool = False

    @property
    def beat_greedy(self) -> bool:
        return self.plan.assignments != self.greedy_plan.assignments

    @property
    def improvement_fraction(self) -> float:
        """How much of greedy's makespan the search shaved off."""
        if self.greedy_makespan_s <= 0:
            return 0.0
        return 1.0 - self.makespan_s / self.greedy_makespan_s

    def changed_lines(self) -> List[Tuple[int, str, str, str]]:
        """(index, name, greedy_location, search_location) per diff."""
        names = {e.index: e.name for e in self.plan.estimates}
        pairs = zip(self.greedy_plan.assignments, self.plan.assignments)
        return [(i, names.get(i, f"line{i}"), a, b) for i, (a, b) in enumerate(pairs) if a != b]

    def publish(self, obs: Observability) -> None:
        """Emit ``plansearch.*`` metrics onto an observability handle."""
        if not obs.enabled:
            return
        metrics = obs.metrics
        metrics.counter("plansearch.steps_simulated").inc(self.steps_simulated)
        if self.cache_hit:
            metrics.counter("plansearch.cache_hit").inc()
        metrics.gauge("plansearch.makespan_s").set(self.makespan_s)
        metrics.gauge("plansearch.greedy_makespan_s").set(self.greedy_makespan_s)
        metrics.gauge("plansearch.improvement_fraction").set(self.improvement_fraction)

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "plan": self.plan.to_jsonable(),
            "greedy_plan": self.greedy_plan.to_jsonable(),
            "makespan_s": self.makespan_s,
            "greedy_makespan_s": self.greedy_makespan_s,
            "beat_greedy": self.beat_greedy,
            "improvement_fraction": self.improvement_fraction,
            "steps_simulated": self.steps_simulated,
            "wall_seconds": self.wall_seconds,
            "cache_hit": self.cache_hit,
        }

    @classmethod
    def from_jsonable(cls, payload: Dict[str, Any]) -> "SearchReport":
        """Rebuild a :meth:`to_jsonable` payload; floats round-trip exactly."""
        try:
            return cls(
                plan=Plan.from_jsonable(payload["plan"]),
                greedy_plan=Plan.from_jsonable(payload["greedy_plan"]),
                makespan_s=float(payload["makespan_s"]),
                greedy_makespan_s=float(payload["greedy_makespan_s"]),
                steps_simulated=int(payload["steps_simulated"]),
                wall_seconds=float(payload["wall_seconds"]),
                cache_hit=bool(payload.get("cache_hit", False)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PlanningError(f"malformed search report payload: {exc}") from exc


def _step_advances(
    program: Program, n: float, config: SystemConfig, key: _StepKey
) -> Iterator[float]:
    """The clock advances of one fault-free, undisturbed line-step.

    What ``PlanExecutor.step`` (``finish`` for the readback) advances
    the clock by on a machine nothing else runs on, in its order: the
    input move and its verify charge; for a CSD line the doorbell and
    the entry checkpoint, then per chunk the internal stream, the
    compute, the verify charge, the checkpoint and the status message;
    for a host line per chunk the storage read, the compute and the
    verify charge.  Each chunk and each move is the executor's own
    :func:`~repro.runtime.executor.chunk_advances`, priced from the
    config.  Zero advances within a chunk are dropped, since adding 0.0
    is exact.
    """
    index, location, value_location = key
    m = ExecutionMode.ACTIVEPY.time_multiplier(config)
    lat = config.effective_link_latency_s
    verify = config.integrity_verify_bandwidth if config.integrity_enabled else None
    n = float(n)

    def seconds(advances: Tuple[Tuple[float, str], ...]) -> Tuple[float, ...]:
        return tuple(s for s, _ in advances if s)

    def readback(nbytes: float) -> Tuple[float, ...]:
        return seconds(chunk_advances(
            [(nbytes, lat, config.bw_d2h, "pcie")], m, verify_bandwidth=verify,
        ))

    if index == _FINAL:
        return iter(readback(program[len(program) - 1].output_bytes(n)))
    statement = program[index]
    chunks = statement.chunks
    instructions = statement.instructions(n) * m / chunks
    storage = statement.storage_bytes(n) / chunks
    d_in = program.input_bytes(index, n)
    head: Tuple[float, ...] = ()
    if location != value_location and d_in > 0:
        head = readback(d_in)
    if location == CSD:
        checkpoint = config.checkpoint_write_cost_s if config.checkpoint_enabled else 0.0
        head += (lat, checkpoint)
        # The internal bus has no latency.
        body = chunk_advances(
            [(storage, 0.0, config.bw_internal, "nand")], m,
            compute=(instructions, config.cse_ips, "cse"),
            overlap=config.overlap_io_compute, verify_bandwidth=verify,
            checkpoint=checkpoint, status=(lat, "pcie"),
        )
    else:
        body = chunk_advances(
            [(storage, lat, config.bw_host_storage, "pcie")], m,
            compute=(instructions, config.host_ips, "host"),
            overlap=config.overlap_io_compute, verify_bandwidth=verify,
        )
    return chain(head, chain.from_iterable(repeat(seconds(body), chunks)))


def _step_seconds(program: Program, n: float, config: SystemConfig, key: _StepKey) -> float:
    """Simulated seconds of one fault-free, undisturbed line-step.

    The left fold of :func:`_step_advances`.  A float sum depends on
    the running total it is added to, so the fold starts where a run's
    clock stands when its first line starts, after the compile charge,
    and returns the difference: bit for bit what the executor measures
    for the step on a freshly compiled machine.  Folding from 0.0
    instead misses most steps in the last bits (117 of the 142
    rotation steps at scale 1/4).
    """
    started = float(ExecutionMode.ACTIVEPY.compile_seconds(config))
    return reduce(add, _step_advances(program, n, config, key), started) - started


def search_plan(
    program: Program,
    dataset: Dataset,
    estimates: Sequence[LineEstimate],
    config: SystemConfig,
    *,
    greedy: Optional[Plan] = None,
) -> SearchReport:
    """The minimum-makespan host/CSD assignment; never worse than greedy.

    The returned plan has ``origin="search"``, and its ``t_host`` and
    ``t_csd`` are fault-free makespans summed from priced steps
    (all-host, and the winner), not fitted projections.  ``greedy`` defaults to Algorithm
    1 on ``estimates``.  A greedy plan of the wrong length, or one that
    offloads while the CSD is disabled, raises :class:`PlanningError`.
    """
    k = len(program)
    if len(estimates) != k:
        raise PlanningError(f"{len(estimates)} estimates for a {k}-line program")
    wall_started = time.perf_counter()
    if greedy is None:
        greedy = assign_csd_code(estimates, config) if k else host_only_plan(estimates)
    locations: Tuple[str, ...] = (HOST, CSD) if config.csd_enabled else (HOST,)
    greedy_assignments = tuple(greedy.assignments)
    if len(greedy_assignments) != k or not set(greedy_assignments) <= set(locations):
        raise PlanningError(
            f"greedy assignments {list(greedy_assignments)} are not a "
            f"{k}-line plan over {list(locations)}"
        )

    n = dataset.n_records
    steps: Dict[_StepKey, float] = {}

    def step(key: _StepKey) -> float:
        if key not in steps:
            steps[key] = _step_seconds(program, n, config, key)
        return steps[key]

    def finish(value_location: str, elapsed: float) -> float:
        return elapsed + step((_FINAL, HOST, CSD)) if value_location == CSD else elapsed

    def walk(assignments: Sequence[str]) -> float:
        elapsed, value_location = 0.0, HOST
        for index, location in enumerate(assignments):
            elapsed += step((index, location, value_location))
            value_location = location
        return finish(value_location, elapsed)

    def cheapest(
        best: Dict[str, Tuple[float, Tuple[str, ...]]],
        complete: Callable[[str, float], float],
    ) -> Tuple[float, Tuple[str, ...]]:
        """``min((complete(loc, elapsed), prefix) for loc, (elapsed, prefix) in best)``.

        Prefixes are completed cheapest first.  Completing adds steps of
        at least 0.0, so once a prefix alone exceeds the winner so far,
        neither it nor any later prefix can win or tie: their steps are
        never priced.
        """
        winner: Optional[Tuple[float, Tuple[str, ...]]] = None
        for location, (elapsed, prefix) in sorted(best.items(), key=lambda item: item[1][0]):
            if winner is not None and elapsed > winner[0]:
                break
            candidate = (complete(location, elapsed), prefix)
            if winner is None or candidate < winner:
                winner = candidate
        return winner

    # best[loc]: the cheapest (elapsed, assignments) prefix leaving the
    # live value on ``loc``; the input starts on the host.
    best: Dict[str, Tuple[float, Tuple[str, ...]]] = {HOST: (0.0, ())}
    for index in range(k):
        layer = {}
        for location in locations:
            elapsed, prefix = cheapest(
                best, lambda prev, elapsed: elapsed + step((index, location, prev))
            )
            layer[location] = (elapsed, prefix + (location,))
        best = layer
    makespan, assignments = cheapest(best, finish)
    # Ties keep greedy's plan, bit for bit.
    greedy_makespan = walk(greedy_assignments)
    if greedy_makespan <= makespan:
        makespan, assignments = greedy_makespan, greedy_assignments

    plan = Plan(
        assignments=list(assignments), t_host=walk((HOST,) * k), t_csd=makespan,
        estimates=tuple(estimates), origin="search",
    )
    return SearchReport(
        plan=plan, greedy_plan=greedy, makespan_s=makespan,
        greedy_makespan_s=greedy_makespan, steps_simulated=len(steps),
        wall_seconds=time.perf_counter() - wall_started,
    )
