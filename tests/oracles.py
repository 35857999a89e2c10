"""Independent oracles that only the tests use.

Each one computes an answer another way than the code it checks, so a
test can hold that code to it: the TPC-H reference straight from the
data, without the program model or the simulator; the plan-search step
by running it on a freshly built machine, not in closed form.
"""

from __future__ import annotations

import math

import numpy as np

from repro.hw.topology import build_machine
from repro.lang.program import Program
from repro.obs import Observability
from repro.runtime.codegen import CodeGenerator, ExecutionMode
from repro.runtime.executor import PlanExecutor
from repro.runtime.planner import CSD, HOST, Plan
from repro.runtime.plansearch import _FINAL
from repro.workloads.tpch.engine import Table, filter_rows, hash_join
from repro.workloads.tpch.schema import date_index


def q14_reference(lineitem: Table, part: Table) -> float:
    """TPC-H Q14, promotion effect.

    Filter one ship month, join ``part``, and return
    ``100 * promo revenue / total revenue`` (promo = p_type PROMO%).
    """
    start = date_index(1995, 9, 1)
    end = date_index(1995, 10, 1)
    month = filter_rows(
        lineitem,
        (lineitem["shipdate"] >= start) & (lineitem["shipdate"] < end),
    )
    joined = hash_join(
        month, part,
        left_key="partkey", right_key="p_partkey",
        right_columns=("p_is_promo",),
    )
    revenue = joined["extendedprice"] * (1.0 - joined["discount"])
    total = float(np.sum(revenue))
    if total == 0.0:
        return 0.0
    promo = float(np.sum(revenue[joined["p_is_promo"]]))
    return 100.0 * promo / total


def tick_every_chunk(simulator, budget: int) -> None:
    """Keep a no-op event pending one ulp after the clock, ``budget`` times.

    Each tick schedules the next at ``math.nextafter(now, inf)``, so
    every chunk that advances the clock reaches an event at its
    ``fire_due_events`` point and runs through the executor's per-chunk
    body, not a quiet stretch.  At most ``budget`` events are ever
    scheduled.
    """
    left = [budget]

    def tick() -> None:
        left[0] -= 1
        if left[0] > 0:
            simulator.schedule_at(math.nextafter(simulator.now, math.inf), tick)

    if budget > 0:
        simulator.schedule_at(math.nextafter(simulator.now, math.inf), tick)


def step_seconds_on_fresh_machine(program: Program, n_records, config, key) -> float:
    """Simulated seconds of one plan-search step, run on a fresh machine.

    ``key`` is ``(index, location, value_location)``, or ``(_FINAL,
    HOST, CSD)`` for the final readback.  Builds the machine, compiles
    the program in ACTIVEPY mode with every line for the device (for
    the host with the CSD off), begins a run with the live value on
    ``value_location`` and runs the one line through
    ``PlanExecutor.step`` (the readback through ``finish``), reading the
    clock before and after.  A :func:`tick_every_chunk` ticker sends
    every chunk through the per-chunk body, so the closed form, which
    shares its chunk formula with the executor's quiet stretches, is
    held to the per-chunk charges.
    """
    index, location, value_location = key
    machine = build_machine(config, obs=Observability.disabled())
    scaffold = Plan(
        assignments=[CSD if config.csd_enabled else HOST] * len(program),
        t_host=0.0, t_csd=0.0, origin="external",
    )
    compiled = CodeGenerator(config).generate(
        machine, program, scaffold, mode=ExecutionMode.ACTIVEPY,
    )
    executor = PlanExecutor(machine, migration_enabled=False)
    state = executor.begin(compiled, n_records, value_location=value_location)
    started = machine.now
    chunks = 0 if index == _FINAL else program[index].chunks
    tick_every_chunk(machine.simulator, chunks + 2)
    if index == _FINAL:
        executor.finish(state)
    else:
        executor.step(state, index, location)
    return machine.now - started
