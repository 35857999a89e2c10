"""``repro selfcheck``: the claim table rendered and gated.

The command runs every paper driver once; these tests hand it the
session's driver results instead, so nothing is measured twice.
"""

import copy
import dataclasses

import pytest

from repro.analysis import claims
from repro.cli import main


@pytest.fixture
def measured(monkeypatch, driver_results):
    """Make ``run_claims`` read the session's driver results."""
    monkeypatch.setattr(claims, "DRIVERS", {
        driver: (lambda result=result: result)
        for driver, result in driver_results.items()
    })
    return driver_results


class TestSelfCheck:
    def test_passes_on_the_calibrated_platform(self, measured, capsys):
        assert main(["selfcheck"]) == 0
        assert "claims: PASS" in capsys.readouterr().out

    def test_measures_every_pinned_quantity(self, measured):
        verdicts = claims.run_claims()
        assert [v.claim for v in verdicts] == list(claims.CLAIMS)

    def test_break_even_near_analytic_value(self, verdicts):
        # docs/calibration.md derives ~4.1 instr/byte by hand.
        assert verdicts["config break-even instr/byte"].ok

    def test_covers_scan_csr_and_compute_workloads(self, verdicts):
        verdict = verdicts["fig4 (baseline s, static, ActivePy, CSD lines)"]
        assert set(verdict.measured) == {"tpch_q6", "pagerank", "mixedgemm"}
        assert verdict.ok

    def test_render_mentions_status(self, measured, capsys):
        main(["selfcheck"])
        header = capsys.readouterr().out.splitlines()[0].split()
        assert header == ["claim", "paper", "band", "pin", "measured", "ok"]

    def test_detects_injected_drift(self, measured, monkeypatch, capsys):
        fig4 = measured["run_fig4"]
        drifted = dataclasses.replace(fig4, rows=[
            dataclasses.replace(row, activepy_speedup=row.activepy_speedup * 1.5)
            if row.name == "tpch_q6" else row
            for row in fig4.rows
        ])
        monkeypatch.setitem(claims.DRIVERS, "run_fig4", lambda: drifted)
        assert main(["selfcheck"]) == 1
        out = capsys.readouterr().out
        assert "claims: FAIL" in out
        missed = [line for line in out.splitlines() if line.endswith("MISS")]
        assert [line.split("  ")[0] for line in missed] == [
            "fig4 ActivePy geomean",
            "fig4 ActivePy / static geomean",
            "fig4 (baseline s, static, ActivePy, CSD lines)",
        ]

    def test_measurement_is_deterministic(self, driver_results):
        # Judging is pure: it neither re-measures nor mutates a result.
        before = copy.deepcopy(driver_results)
        assert claims.evaluate(driver_results) == claims.evaluate(before)
        assert driver_results == before
