"""Pin every metrics snapshot the runtime writes, byte for byte.

One sha256 over ``json.dumps(obs.snapshot(), sort_keys=True)`` for each
snapshot of five cases:

* chaos campaigns with per-run metrics: silent corruption with the
  integrity layer on, and loud faults only, three base seeds each
  (host fallbacks, chunk replays, torn checkpoint writes, detections);
* faulted runs under a progress-trigger stress with the integrity layer
  on, so runs migrate: the migration path is the third writer of
  ``integrity.verified_bytes``, next to the executor's and the
  checkpoint manager's integrity checkers;
* the ten-program rotation at scale 1/4 with ``Observability()``;
* one ``Observability.with_tracing()`` handle shared by twenty greedy
  and plan-search runs, snapshotted after each run;
* a pre-built machine adopting a caller's handle for two runs;
* migrating ``tpch_q14`` runs sized so that ``integrity.verified_bytes``
  crosses 2**26 among fractional executor adds that land after the
  checkpoint restore's and the migration's integer adds: there the adds
  do not commute in floating point, so the pin sees the order in which
  the three writers' adds land, not only their sum.

A change to how a metric is written, created or summed moves the
digest: a counter summed in another order, an instrument created before
its first write, a write lost before a snapshot.  Every case warms the
profile and plan caches with a disabled handle first, so each pin is the
same with a cold and a warm cache (``REPRO_PROFCACHE=0`` moves them: the
snapshots count ``profcache.*``).
"""

import dataclasses
import hashlib
import json

import pytest

from repro.chaos.campaign import (
    DEFAULT_WORKLOADS,
    CampaignConfig,
    ChaosHarness,
    run_campaign,
)
from repro.config import DEFAULT_CONFIG
from repro.hw.topology import build_machine
from repro.obs import Observability
from repro.runtime.activepy import ActivePy, RunOptions
from repro.workloads import get_workload, workload_names

INTEGRITY = dataclasses.replace(DEFAULT_CONFIG, integrity_enabled=True)
CHAOS_SEEDS = (100_000, 7, 20230423)
SMALL = 2 ** -6

#: sha256 (:func:`_digest`) over each case's snapshots, in order.
PINNED = {
    "chaos": (
        "20821e66dd9790a07dbc8e2263bacf3e28eddd9a1f44f7a9e0de4dd4c1c7a0ff"
    ),
    "migrating": (
        "96bb7ad6f36c8f8679ebca7f71d7f2812665e6defcbd97087e2c37150bb0de2e"
    ),
    "rotation": (
        "7a845a14d8d75b0e813b0b8dbfad897461ef773ae88658a4f1a5456c8234f1df"
    ),
    # Its search runs publish the steps the bounded plan search measured.
    "shared_handle": (
        "0c105de9176ee632dde0bfd2ff40d94b6bc15696bc9babe096e41c87223b6809"
    ),
    "adopted": (
        "05d47e607c0b463bcbd1a1a2f7629fb7ed8a571ca2b0c76ca74873b10072d330"
    ),
    "verified_bytes_order": (
        "62fcd87d5e54fa4522a754927ab20358672437bf41236cbbae776a4d0644f8b4"
    ),
}


def _digest(snapshots):
    sha = hashlib.sha256()
    for snapshot in snapshots:
        sha.update(json.dumps(snapshot, sort_keys=True).encode())
        sha.update(b"\n")
    return sha.hexdigest()


def _warm(names, scale, plan_mode="greedy"):
    for name in names:
        workload = get_workload(name, scale=scale)
        ActivePy(plan_mode=plan_mode).run(workload.program, workload.dataset)


def _chaos():
    snapshots = []
    for system_config, silent in ((INTEGRITY, True), (DEFAULT_CONFIG, False)):
        for base_seed in CHAOS_SEEDS:
            result = run_campaign(CampaignConfig(
                runs=200, base_seed=base_seed, system_config=system_config,
                silent_corruption=silent,
            ))
            assert result.ok
            snapshots.extend(outcome.metrics for outcome in result.outcomes)
    return snapshots


def _migrating():
    harness = ChaosHarness(system_config=INTEGRITY, silent_corruption=True)
    snapshots = []
    for seed in range(40):
        for name in DEFAULT_WORKLOADS:
            workload = get_workload(name, scale=SMALL)
            obs = Observability()
            machine = build_machine(INTEGRITY, obs=obs)
            ActivePy(INTEGRITY).run(
                workload.program, workload.dataset, machine=machine,
                options=RunOptions(
                    fault_plan=harness.plan_for(name, seed), obs=obs,
                    progress_triggers=((0.5, 0.1),),
                ),
            )
            snapshots.append(obs.snapshot())
    return snapshots


def _rotation():
    _warm(workload_names(), 0.25)
    snapshots = []
    for name in workload_names():
        workload = get_workload(name, scale=0.25)
        obs = Observability()
        ActivePy().run(workload.program, workload.dataset,
                       options=RunOptions(obs=obs))
        snapshots.append(obs.snapshot())
    return snapshots


def _shared_handle():
    _warm(workload_names(), SMALL)
    _warm(workload_names(), SMALL, plan_mode="search")
    obs = Observability.with_tracing()
    snapshots = []
    for plan_mode in ("greedy", "search"):
        for name in workload_names():
            workload = get_workload(name, scale=SMALL)
            ActivePy(plan_mode=plan_mode).run(
                workload.program, workload.dataset,
                options=RunOptions(obs=obs, progress_triggers=((0.5, 0.25),)),
            )
            snapshots.append(obs.snapshot())
    return snapshots


def _adopted():
    _warm(("blackscholes", "tpch_q6"), SMALL)
    machine = build_machine(DEFAULT_CONFIG)
    caller = Observability()
    snapshots = []
    for name in ("blackscholes", "tpch_q6"):
        workload = get_workload(name, scale=SMALL)
        ActivePy().run(
            workload.program, workload.dataset, machine=machine,
            options=RunOptions(obs=caller, progress_triggers=((0.5, 0.1),)),
        )
        snapshots.append(caller.snapshot())
        snapshots.append(machine.obs.snapshot())
    return snapshots


#: ``tpch_q14`` scales at which the verified-bytes total crosses 2**26
#: during the fractional adds that follow the migration.
ORDER_SCALES = (0.00945, 0.00955)


def _verified_bytes_order():
    snapshots = []
    for scale in ORDER_SCALES:
        workload = get_workload("tpch_q14", scale=scale)
        for obs in (Observability.disabled(), Observability()):
            report = ActivePy(INTEGRITY).run(
                workload.program, workload.dataset,
                options=RunOptions(obs=obs, progress_triggers=((0.25, 0.1),)),
            )
        assert report.result.migrations
        snapshots.append(obs.snapshot())
    return snapshots


CASES = {
    "chaos": _chaos,
    "migrating": _migrating,
    "rotation": _rotation,
    "shared_handle": _shared_handle,
    "adopted": _adopted,
    "verified_bytes_order": _verified_bytes_order,
}


@pytest.fixture(scope="module")
def snapshots():
    return {name: build() for name, build in CASES.items()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_snapshots_are_pinned(snapshots, case):
    assert _digest(snapshots[case]) == PINNED[case]


def test_the_cases_reach_every_writer(snapshots):
    """Each path the pins are meant to cover shows up in some snapshot."""
    def counted(case, name):
        return sum(1 for snap in snapshots[case] if name in snap["counters"])

    assert counted("chaos", "executor.host_fallbacks") > 0
    assert counted("chaos", "checkpoint.torn_writes") > 0
    assert counted("chaos", "integrity.detected") > 0
    assert counted("migrating", "migration.count") > 0
    assert counted("migrating", "checkpoint.restores") > 0
    assert counted("shared_handle", "migration.count") > 0
    assert counted("shared_handle", "plansearch.cache_hit") > 0
    assert counted("adopted", "executor.chunks.csd") > 0
    assert counted("verified_bytes_order", "checkpoint.restores") == len(ORDER_SCALES)
    assert counted("verified_bytes_order", "migration.count") == len(ORDER_SCALES)
