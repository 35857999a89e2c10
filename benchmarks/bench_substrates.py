"""Substrate microbenchmarks: the simulator itself must stay cheap.

These are engineering benchmarks (pytest-benchmark statistics matter
here, unlike the deterministic figure benches): event-queue throughput,
allocator operations, one full sampling phase, and the SpMV kernel.
"""

import numpy as np

from repro.config import DEFAULT_CONFIG
from repro.memory.allocator import FreeListAllocator
from repro.runtime.sampling import SamplingPhase
from repro.sim.engine import Simulator
from repro.workloads import get_workload


def test_event_queue_throughput(benchmark):
    def schedule_and_drain():
        sim = Simulator()
        for i in range(2000):
            sim.schedule_at(float(i % 97), lambda: None)
        sim.run_all()
        return sim.events_fired

    fired = benchmark(schedule_and_drain)
    assert fired == 2000


def test_allocator_churn(benchmark):
    def churn():
        allocator = FreeListAllocator(base=0, capacity=1 << 20)
        live = []
        for i in range(1500):
            if i % 3 == 2 and live:
                allocator.free(live.pop(0))
            else:
                live.append(allocator.allocate(256 + (i % 7) * 64))
        return allocator.live_allocations

    live = benchmark(churn)
    assert live > 0


def test_sampling_phase_cost(benchmark):
    # One full sampling pass over a real workload: four sample builds,
    # real kernel execution, twelve curve fits.
    workload = get_workload("tpch_q6")

    def sample():
        return SamplingPhase(DEFAULT_CONFIG).run(
            workload.program, workload.dataset
        )

    report = benchmark.pedantic(sample, rounds=1, iterations=1)
    assert report.sampling_seconds > 0


def test_spmv_kernel_throughput(benchmark):
    from repro.graph.csr import csr_from_edges
    from repro.graph.pagerank_core import spmv

    rng = np.random.default_rng(17)
    n = 50_000
    src = rng.integers(0, n, size=8 * n)
    dst = rng.integers(0, n, size=8 * n)
    matrix = csr_from_edges(src, dst, n_rows=n)
    x = rng.random(n)
    y = benchmark(spmv, matrix, x)
    assert y.shape == (n,)
