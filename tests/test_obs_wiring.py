"""Instrumentation wiring: every layer feeds the shared handle."""

from repro.hw.compute import ComputeUnit
from repro.hw.interconnect import Link
from repro.hw.topology import build_machine
from repro.obs import Observability
from repro.runtime.activepy import ActivePy, RunOptions
from repro.sim.clock import SimClock
from repro.sim.engine import Simulator
from repro.workloads import get_workload

_SCALE = 2 ** -7


def _counters(obs):
    return obs.snapshot()["counters"]


class TestComponentWiring:
    def test_sim_engine_counts_events(self):
        obs = Observability()
        simulator = Simulator(obs=obs)
        simulator.schedule_after(1.0, lambda: None)
        simulator.run_all()
        counters = _counters(obs)
        assert counters["sim.events_scheduled"] == 1
        assert counters["sim.events_fired"] == 1

    def test_compute_unit_counts_work(self):
        obs = Observability()
        unit = ComputeUnit("host", ips=1e9, clock=SimClock(), obs=obs)
        unit.execute(1e6)
        counters = _counters(obs)
        assert counters["compute.host.instructions"] == 1e6
        assert counters["compute.host.busy_seconds"] > 0
        assert counters["compute.host.tasks"] == 1

    def test_link_counts_traffic(self):
        obs = Observability()
        link = Link("d2h", bandwidth=1e9, clock=SimClock(), obs=obs)
        link.transfer(4096)
        counters = _counters(obs)
        assert counters["link.d2h.bytes"] == 4096
        assert counters["link.d2h.transfers"] == 1


class TestEndToEndWiring:
    def test_full_run_populates_every_runtime_layer(self):
        obs = Observability()
        machine = build_machine(obs=obs)
        workload = get_workload("tpch_q6", scale=_SCALE)
        ActivePy().run(
            workload.program, workload.dataset,
            machine=machine, options=RunOptions(obs=obs),
        )
        snapshot = obs.snapshot()
        counters = snapshot["counters"]
        assert counters["dispatch.invocations"] > 0
        assert counters["dispatch.status_updates"] > 0
        assert counters["executor.lines"] == len(workload.program)
        assert counters["checkpoint.saves"] > 0
        assert counters["compute.csd.busy_seconds"] > 0
        assert counters["link.csd.internal.bytes"] > 0
        assert "nvme.csd.sq_depth" in snapshot["gauges"]
        assert snapshot["histograms"]["executor.chunk_seconds"]["count"] > 0

    def test_adopt_redirects_prebuilt_machine(self):
        # A machine built *without* obs starts feeding a caller-supplied
        # handle when one is passed to run().
        machine = build_machine()
        assert not machine.obs.enabled
        obs = Observability()
        workload = get_workload("tpch_q6", scale=_SCALE)
        ActivePy().run(
            workload.program, workload.dataset,
            machine=machine, options=RunOptions(obs=obs),
        )
        assert _counters(obs)["executor.lines"] == len(workload.program)
        # The machine's handle now shares the caller's registry.
        assert machine.obs.metrics is obs.metrics
