"""``repro selfcheck`` and the figure commands: the claim table rendered
and gated.

The commands run the paper drivers; these tests hand them the session's
driver results instead (the ``measured`` fixture), so nothing is
measured twice.
"""

import copy
import dataclasses
import json

import pytest

from repro.analysis import claims, export, report
from repro.cli import main


def _cells(line):
    return [cell.strip() for cell in line.strip().strip("|").split("|")]


#: Each figure command's drivers, with the renderer of each result.
FIGURES = {
    "table1": {"run_table1": report.render_table1},
    "fig2": {"run_fig2": report.render_fig2},
    "fig4": {"run_fig4": report.render_fig4},
    "fig5": {"run_fig5": report.render_fig5},
    "ladder": {"run_overhead_ladder": report.render_ladder},
    "prediction": {"run_prediction_accuracy": report.render_prediction,
                   "run_csr_matrix_sweep": report.render_csr_sweep},
}


def _scaled(row, field, factor):
    return dataclasses.replace(row, **{field: getattr(row, field) * factor})


#: Per figure: a driver and a drift of its result that some claim row misses.
DRIFTS = {
    "table1": ("run_table1", lambda rows: [
        dataclasses.replace(rows[0], sese_regions=rows[0].sese_regions + 1),
        *rows[1:]]),
    "fig2": ("run_fig2", lambda fig2: dataclasses.replace(fig2, series={
        name: [value * 1.5 for value in series]
        for name, series in fig2.series.items()})),
    "fig4": ("run_fig4", lambda fig4: dataclasses.replace(fig4, rows=[
        _scaled(row, "activepy_speedup", 1.5) if row.name == "tpch_q6" else row
        for row in fig4.rows])),
    "fig5": ("run_fig5", lambda fig5: dataclasses.replace(fig5, rows=[
        _scaled(row, "without_migration_speedup", 1.5)
        if (row.name, row.availability) == ("tpch_q6", 0.1) else row
        for row in fig5.rows])),
    "ladder": ("run_overhead_ladder", lambda ladder: dataclasses.replace(
        ladder, per_workload={
            name: {**modes, "python": modes["python"] * 1.5}
            for name, modes in ladder.per_workload.items()})),
    "prediction": ("run_csr_matrix_sweep", lambda rows: [
        _scaled(row, "predicted_bytes", 1.5) for row in rows]),
}


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
        header = _cells(capsys.readouterr().out.splitlines()[0])
        assert header == ["claim", "paper", "band", "pin", "measured", "ok"]

    def test_detects_injected_drift(self, measured, monkeypatch, capsys):
        monkeypatch.setitem(claims.DRIVERS, "run_fig4",
                            lambda: DRIFTS["fig4"][1](measured["run_fig4"]))
        assert main(["selfcheck"]) == 1
        out = capsys.readouterr().out
        assert "claims: FAIL" in out
        missed = [_cells(line) for line in out.splitlines()
                  if line.startswith("|") and _cells(line)[-1] == "MISS"]
        assert [cells[0] for cells in missed] == [
            "fig4 ActivePy geomean",
            "fig4 ActivePy / static geomean",
            "fig4 (baseline s, static, ActivePy, CSD lines)",
        ]

    def test_measurement_is_deterministic(self, driver_results):
        # Judging is pure: it neither re-measures nor mutates a result.
        before = copy.deepcopy(driver_results)
        assert claims.evaluate(driver_results) == claims.evaluate(before)
        assert driver_results == before


def _expected(figure, results):
    """The rendering of each driver's result, then its claim rows."""
    renderers = FIGURES[figure]
    tables = [render(results[driver]) for driver, render in renderers.items()]
    verdicts = claims.evaluate({driver: results[driver] for driver in renderers})
    return "\n\n".join([*tables, claims.render(verdicts)]) + "\n"


@pytest.mark.parametrize("figure", FIGURES)
class TestFigureCommands:
    def test_prints_the_rendering_then_the_claim_rows(self, figure, measured,
                                                      capsys):
        assert main([figure]) == 0
        assert capsys.readouterr().out == _expected(figure, measured)

    def test_drift_exits_1_with_a_miss(self, figure, measured, monkeypatch,
                                       capsys):
        driver, drift = DRIFTS[figure]
        drifted = drift(measured[driver])
        monkeypatch.setitem(claims.DRIVERS, driver, lambda: drifted)
        assert main([figure]) == 1
        out = capsys.readouterr().out
        assert out == _expected(figure, {**measured, driver: drifted})
        assert "MISS" in out and "claims: FAIL" in out

    def test_json_holds_each_driver_result(self, figure, measured, tmp_path,
                                           capsys):
        path = tmp_path / f"{figure}.json"
        assert main([figure, "--json", str(path)]) == 0
        assert capsys.readouterr().out == (
            _expected(figure, measured) + f"\nwrote {path}\n")
        results = {driver: measured[driver] for driver in FIGURES[figure]}
        assert json.loads(path.read_text()) == json.loads(export.dumps(results))
