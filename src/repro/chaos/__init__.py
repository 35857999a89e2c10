"""Chaos campaigns: randomized fault composition with shrinking.

Individual faults are injectable and deterministic; this package turns
them into an adversary.  A campaign generates seeded random
:class:`~repro.faults.FaultPlan`s, runs every registered workload under
them, and checks a set of cross-run **invariants** — the contract the
fault-tolerant runtime must honour no matter what is thrown at it:

* the run completes with a result (``degraded=True`` is the only legal
  failure mode — an unhandled exception never is);
* the logical result matches the fault-free run (same program, same
  lines, in order);
* the simulated clock is monotone and every fault event falls inside
  the run;
* **work conservation**: every line executes at least its chunk count
  across device and host — a corrupt resume point that *skips* work is
  exactly what this catches.

On a violation the failing plan is **shrunk** delta-debugging-style to
a minimal reproducing plan and reported with its seed, so one CLI
command (``repro chaos --workload W --seed S``) replays the distilled
failure.

:func:`run_campaign` is the one driver for this campaign and for the
rack-level one (:class:`~repro.fleet.chaos.FleetCampaignConfig`), in
process or across worker processes (``workers=N``).
"""

from .campaign import (
    CampaignConfig,
    CampaignResult,
    ChaosHarness,
    ChaosRunOutcome,
    ShrunkFailure,
    run_campaign,
)
from .invariants import InvariantViolation, check_invariants, run_signature
from .shrink import ShrinkResult, shrink_plan

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "ChaosHarness",
    "ChaosRunOutcome",
    "InvariantViolation",
    "ShrinkResult",
    "ShrunkFailure",
    "check_invariants",
    "run_campaign",
    "run_signature",
    "shrink_plan",
]
