"""Algorithm 1: CSD code assignment.

A faithful implementation of the paper's greedy, line-granularity
assignment.  Starting from everything-on-host, walk the lines in
program order; adding line ``L_i`` to the CSD set changes the projected
time by

* ``- CT_i,host + CT_i,device`` (the compute moves), and
* a transfer correction: if the *previous* line already runs on the
  CSD (or ``i == 0``), the line's input no longer crosses the link, so
  ``- D_in/BW_D2H``; otherwise the input must now be shipped to the
  device, ``+ D_in/BW_D2H``.  Either way the line's output must come
  back, ``+ D_out/BW_D2H`` (refunded later if the next line joins too).

Accept the move whenever it lowers the projected time.  The result is
the coarse-grained split the paper argues for: fine-grained scatter
would pay the narrow interconnect on every boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from ..config import SystemConfig
from ..errors import PlanningError
from .estimator import LineEstimate

HOST = "host"
CSD = "csd"

#: Where a plan came from: the paper's greedy Algorithm 1, the
#: exact plan search (:mod:`repro.runtime.plansearch`), or a
#: caller-supplied assignment (baselines, replayed JSON).
PLAN_ORIGINS = ("greedy", "search", "external")


@dataclass
class Plan:
    """A host/CSD assignment for every line of a program."""

    assignments: List[str]
    #: Projected all-host execution time (the algorithm's T_host).
    t_host: float
    #: Projected execution time under this plan (the algorithm's T_csd).
    t_csd: float
    estimates: Sequence[LineEstimate] = field(default=(), repr=False)
    #: Which planner produced this assignment (see :data:`PLAN_ORIGINS`).
    origin: str = "greedy"

    def __post_init__(self) -> None:
        bad = [a for a in self.assignments if a not in (HOST, CSD)]
        if bad:
            raise PlanningError(f"invalid assignment values: {bad}")
        if self.origin not in PLAN_ORIGINS:
            raise PlanningError(
                f"invalid plan origin {self.origin!r}; expected one of "
                f"{PLAN_ORIGINS}"
            )

    @property
    def csd_lines(self) -> List[int]:
        return [i for i, a in enumerate(self.assignments) if a == CSD]

    @property
    def host_lines(self) -> List[int]:
        return [i for i, a in enumerate(self.assignments) if a == HOST]

    @property
    def uses_csd(self) -> bool:
        return any(a == CSD for a in self.assignments)

    @property
    def projected_speedup(self) -> float:
        if self.t_csd <= 0:
            return 1.0
        return self.t_host / self.t_csd

    def location_of(self, index: int) -> str:
        return self.assignments[index]

    # --- serialisation (mirrors FaultPlan's to/from_jsonable) ---------------

    def to_jsonable(self) -> Dict[str, Any]:
        """A JSON-ready view that :meth:`from_jsonable` inverts exactly.

        Floats survive the round trip bit-for-bit (JSON ``repr`` is
        exact for IEEE doubles), so a cached or replayed plan is
        indistinguishable from the original — the property the profile
        cache's warm-run shortcut rests on.
        """
        return {
            "schema": "repro-plan/1",
            "assignments": list(self.assignments),
            "t_host": self.t_host,
            "t_csd": self.t_csd,
            "origin": self.origin,
            # ``dataclasses.asdict`` without its deep copy: every field
            # of a frozen estimate is a scalar.
            "estimates": [vars(e).copy() for e in self.estimates],
        }

    @classmethod
    def from_jsonable(cls, payload: Dict[str, Any]) -> "Plan":
        """Rebuild a plan serialised by :meth:`to_jsonable`."""
        if not isinstance(payload, dict):
            raise PlanningError(
                f"plan payload must be a dict, got {type(payload).__name__}"
            )
        if payload.get("schema") != "repro-plan/1":
            raise PlanningError(
                f"unknown plan schema {payload.get('schema')!r}"
            )
        try:
            estimates = tuple(
                LineEstimate(**entry) for entry in payload["estimates"]
            )
            return cls(
                assignments=[str(a) for a in payload["assignments"]],
                t_host=float(payload["t_host"]),
                t_csd=float(payload["t_csd"]),
                estimates=estimates,
                origin=str(payload.get("origin", "external")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PlanningError(f"malformed plan payload: {exc}") from exc


def host_only_plan(estimates: Sequence[LineEstimate]) -> Plan:
    """The trivial plan: every line on the host."""
    t_host = sum(e.ct_host for e in estimates)
    return Plan(
        assignments=[HOST] * len(estimates),
        t_host=t_host,
        t_csd=t_host,
        estimates=tuple(estimates),
    )


def assign_csd_code(estimates: Sequence[LineEstimate], config: SystemConfig) -> Plan:
    """Run Algorithm 1 over per-line estimates.

    Returns the resulting :class:`Plan`; the projected time ``t_csd``
    is what the runtime later holds the device accountable to.
    """
    if not estimates:
        raise PlanningError("cannot plan an empty program")
    indices = [e.index for e in estimates]
    if indices != list(range(len(estimates))):
        raise PlanningError(f"line estimates must be dense and ordered, got {indices}")
    if not config.csd_enabled:
        # A plain SSD: no compute engines to offload to, so the walk
        # below could never accept a move.  Short-circuit to all-host.
        return host_only_plan(estimates)

    bw = config.bw_d2h
    t_host = sum(e.ct_host for e in estimates)
    t_csd = t_host
    assignments = [HOST] * len(estimates)

    for i, line in enumerate(estimates):
        previous_on_csd = i == 0 or assignments[i - 1] == CSD
        if previous_on_csd:
            t_candidate = (
                t_csd - line.ct_host + line.ct_device
                - line.d_in / bw + line.d_out / bw
            )
        else:
            t_candidate = (
                t_csd - line.ct_host + line.ct_device
                + line.d_in / bw + line.d_out / bw
            )
        if t_candidate < t_csd <= t_host:
            assignments[i] = CSD
            t_csd = t_candidate

    return Plan(
        assignments=assignments,
        t_host=t_host,
        t_csd=t_csd,
        estimates=tuple(estimates),
    )


def projected_time(
    assignments: Sequence[str],
    estimates: Sequence[LineEstimate],
    config: SystemConfig,
) -> float:
    """Projected execution time of an arbitrary assignment.

    Shared by the planner's tests and the programmer-directed baseline:
    sums per-line times at each line's location plus one D2H transfer
    for every boundary crossing in the chain.
    """
    if len(assignments) != len(estimates):
        raise PlanningError(
            f"{len(assignments)} assignments for {len(estimates)} lines"
        )
    bw = config.bw_d2h
    total = 0.0
    for i, (where, line) in enumerate(zip(assignments, estimates)):
        total += line.ct_device if where == CSD else line.ct_host
        if i > 0 and assignments[i - 1] != where:
            total += line.d_in / bw
    # The final value must end up at the host.
    if assignments and assignments[-1] == CSD:
        total += estimates[-1].d_out / bw
    return total
