"""Exact plan search: a two-state dynamic program over measured steps.

Algorithm 1 plans from Equation 1's *fitted* estimates and inherits the
sampling phase's extrapolation errors.  In §V's CSR case study
(``pagerank``, ``sparsemv``) power-law sample prefixes over-predict the
conversion's output ~2.4x, so greedy keeps it on the host while the
oracle offloads it; no re-fitting at sample scale can see that bend.

The search measures instead.  A step — line ``i`` at ``location`` with
the live value on ``value_location`` — is dry-run on a restored
snapshot of a speculative machine through ``PlanExecutor.step``, the
stepper ``execute`` folds over, and costs the simulated seconds that
elapse.  A makespan is the left fold of its steps in line order, and a
step sees the past only through where the live value sits, so the state
space is a two-state chain and a Viterbi-style pass is exact::

    best[-1] = {HOST: 0.0}
    best[i][loc] = min over prev of best[i-1][prev] + step(i, loc, prev)
    makespan = min(best[k-1][HOST], best[k-1][CSD] + step(FINAL, HOST, CSD))

Every path is summed by the same fold and IEEE addition is monotone, so
the DP minimum equals the brute-force minimum over all 2^k assignments
with no epsilon.

The pass is a branch-and-bound: a step is measured only if it can still
win.  At each (line, location) the prefix ending on the cheaper
predecessor is completed first; the other predecessor's step is skipped
when that predecessor's prefix alone is strictly greater than the
candidate found.  A step costs at least 0.0 seconds and rounding never
makes ``a + s`` smaller than ``a``, so a skipped candidate could neither
win nor tie: the kept ``best`` values and prefixes are those of the
unpruned pass, bit for bit, and the final readback is bounded the same
way.  Measured steps are memoised; greedy's walk and the all-host walk
then measure, lazily, any step they still need.  A search measures at
most 4k-1 steps with the CSD on (line 0 is only fed from the host) and
exactly k with it off (``SearchReport.steps_simulated``); over the
rotation at scale 1 it measures 96 of 122.  Skipping steps is sound
only because a step's seconds do not depend on which steps ran before
it on the shared speculative machine, which tier-1 checks.

When greedy's walked makespan ties the optimum its assignment is
returned bit for bit, so the search is never worse than Algorithm 1.
Nothing here reads a statement's ground-truth cost model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..config import SystemConfig
from ..errors import PlanningError
from ..hw.topology import Machine, build_machine
from ..lang.dataset import Dataset
from ..lang.program import Program
from ..obs import Observability
from .codegen import CodeGenerator, ExecutionMode
from .estimator import LineEstimate
from .executor import PlanExecutor
from .planner import CSD, HOST, Plan, assign_csd_code, host_only_plan

__all__ = ["SearchReport", "search_plan"]

#: A speculative step: line ``index`` runs at ``location`` with the
#: live value currently on ``value_location``.
_StepKey = Tuple[int, str, str]

#: Sentinel index for the final device→host readback step.
_FINAL = -1


@dataclass
class SearchReport:
    """Outcome of one plan search, greedy baseline included."""

    plan: Plan
    greedy_plan: Plan
    #: Speculative (fault-free simulated) makespan of the chosen plan.
    makespan_s: float
    #: Speculative makespan of greedy's plan over the same steps.
    greedy_makespan_s: float
    #: Distinct speculative line-steps simulated.
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


class _SpeculativeMachine:
    """A private fault-free machine the search dry-runs steps on.

    Every line's device binary is installed and a base snapshot taken
    once (no events pending, so restoring it is O(1)); each step
    restores it, runs one line through ``PlanExecutor.step`` and reads
    the clock.  No fault, trigger, obs or migration branch ever runs.
    """

    def __init__(self, program: Program, dataset: Dataset, config: SystemConfig) -> None:
        self.n_records = dataset.n_records
        self.machine: Machine = build_machine(config, obs=Observability.disabled())
        self.machine.csd.store_dataset(dataset.name, dataset.raw_bytes)
        # With the CSD disabled nothing is ever dispatched to it.
        scaffold = Plan(
            assignments=[CSD if config.csd_enabled else HOST] * len(program),
            t_host=0.0, t_csd=0.0, origin="external",
        )
        self.compiled = CodeGenerator(config).generate(
            self.machine, program, scaffold, mode=ExecutionMode.ACTIVEPY,
        )
        self.base = self.machine.simulator.snapshot()

    def step_seconds(self, key: _StepKey) -> float:
        """Simulated seconds of one line-step, measured from the base snapshot."""
        index, location, value_location = key
        simulator = self.machine.simulator
        simulator.restore(self.base)
        executor = PlanExecutor(self.machine, migration_enabled=False)
        state = executor.begin(self.compiled, self.n_records, value_location=value_location)
        started = simulator.now
        if index == _FINAL:
            executor.finish(state)
        else:
            executor.step(state, index, location)
        return simulator.now - started


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
    ``t_csd`` are *measured* speculative makespans (all-host, and the
    winner), not fitted projections.  ``greedy`` defaults to Algorithm
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

    spec = _SpeculativeMachine(program, dataset, config) if k else None
    steps: Dict[_StepKey, float] = {}

    def step(key: _StepKey) -> float:
        if key not in steps:
            steps[key] = spec.step_seconds(key)
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
        never measured.
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
