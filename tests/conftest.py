"""Shared fixtures for the test suite.

The toy program/dataset pair is small enough that every stage of the
ActivePy pipeline (sampling, fitting, planning, execution, migration)
runs in milliseconds, while still having a clear offload structure: a
volume-reducing scan followed by a compute-heavy stage.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.hw.topology import Machine, build_machine
from repro.lang.dataset import Dataset
from repro.lang.program import Program, Statement, constant, per_record
from repro.sim import Simulator


@pytest.fixture
def config() -> SystemConfig:
    return SystemConfig()


@pytest.fixture
def machine(config) -> Machine:
    return build_machine(config)


class _ArrayTimesSimulator(Simulator):
    """Takes every timestamp, delay and deadline as a NumPy float64
    scalar, the way a caller that draws its times from an array passes
    them."""

    def schedule_at(self, time, action, label=""):
        return super().schedule_at(np.float64(time), action, label)

    def schedule_after(self, delay, action, label=""):
        return super().schedule_after(np.float64(delay), action, label)

    def run_until(self, deadline):
        super().run_until(np.float64(deadline))


@pytest.fixture(params=["object", "array"])
def sim(request) -> Simulator:
    """A fresh simulator, run once with Python float timestamps
    ("object") and once with NumPy float64 scalars ("array")."""
    return Simulator() if request.param == "object" else _ArrayTimesSimulator()


def _toy_payload(n: int, full: int) -> dict:
    rng = np.random.default_rng(5)
    return {"x": rng.uniform(0.0, 1.0, size=n)}


def _k_scan(p: dict) -> dict:
    return {"y": (p["x"] * 2.0).astype(np.float32)}


def _k_crunch(p: dict) -> dict:
    return {"z": np.sqrt(p["y"].astype(np.float64))}


def _k_reduce(p: dict) -> dict:
    return {"total": float(np.sum(p["z"]))}


def make_toy_program(
    scan_instr: float = 40.0,
    crunch_instr: float = 200.0,
    record_bytes: float = 64.0,
) -> Program:
    """A scan (reducing 64 B -> 4 B) + crunch + reduce pipeline."""
    return Program(
        "toy",
        [
            Statement(
                "scan", _k_scan,
                instructions=per_record(scan_instr),
                output_bytes=per_record(4.0),
                storage_bytes=per_record(record_bytes),
                chunks=16,
            ),
            Statement(
                "crunch", _k_crunch,
                instructions=per_record(crunch_instr),
                output_bytes=per_record(8.0),
                chunks=16,
            ),
            Statement(
                "reduce", _k_reduce,
                instructions=per_record(1.0),
                output_bytes=constant(8.0),
            ),
        ],
    )


def make_toy_dataset(n_records: int = 20_000_000, record_bytes: float = 64.0) -> Dataset:
    return Dataset(
        name="toy.data",
        n_records=n_records,
        record_bytes=record_bytes,
        builder=_toy_payload,
    )


@pytest.fixture
def toy_program() -> Program:
    return make_toy_program()


@pytest.fixture
def toy_dataset() -> Dataset:
    return make_toy_dataset()


# --- the paper experiments, each run once per session ---------------------

@pytest.fixture(scope="session")
def table1():
    from repro.analysis.experiments import run_table1

    return run_table1()


@pytest.fixture(scope="session")
def fig2():
    from repro.analysis.experiments import run_fig2

    return run_fig2()


@pytest.fixture(scope="session")
def fig4():
    from repro.analysis.experiments import run_fig4

    return run_fig4()


@pytest.fixture(scope="session")
def fig5():
    from repro.analysis.experiments import run_fig5

    return run_fig5()


@pytest.fixture(scope="session")
def ladder():
    from repro.analysis.experiments import run_overhead_ladder

    return run_overhead_ladder()


@pytest.fixture(scope="session")
def prediction(fig4, fig5):
    from repro.analysis.experiments import run_prediction_accuracy

    # Fig. 4/5 profile the same programs first, so every sampling here
    # is a profile-cache hit.
    return run_prediction_accuracy()


@pytest.fixture(scope="session")
def csr_sweep():
    from repro.analysis.experiments import run_csr_matrix_sweep

    return run_csr_matrix_sweep()


@pytest.fixture(scope="session")
def driver_results(table1, fig2, fig4, fig5, ladder, prediction, csr_sweep):
    """Every paper driver's result, keyed as ``claims.DRIVERS`` is."""
    from repro.config import DEFAULT_CONFIG

    return {
        "run_table1": table1,
        "run_fig2": fig2,
        "run_fig4": fig4,
        "run_fig5": fig5,
        "run_overhead_ladder": ladder,
        "run_prediction_accuracy": prediction,
        "run_csr_matrix_sweep": csr_sweep,
        "config": DEFAULT_CONFIG,
    }


@pytest.fixture(scope="session")
def verdicts(driver_results):
    """Claim name -> its verdict over the session's driver results."""
    from repro.analysis.claims import evaluate

    return {verdict.claim.name: verdict for verdict in evaluate(driver_results)}


@pytest.fixture
def measured(monkeypatch, driver_results):
    """Make every claim-gated command (``selfcheck``, the figure commands)
    read the session's driver results instead of measuring again."""
    from repro.analysis import claims

    monkeypatch.setattr(claims, "DRIVERS", {
        driver: (lambda result=result: result)
        for driver, result in driver_results.items()
    })
    return driver_results
