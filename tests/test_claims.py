"""Every paper claim holds: each row's band and pin, and the copies of
the table outside ``repro.analysis.claims`` (the e2e benchmark's pins,
EXPERIMENTS.md) agree with it."""

import re
from pathlib import Path

import pytest

from repro.analysis.claims import CLAIMS, DRIVERS, claim

EXPERIMENTS_MD = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"


@pytest.mark.parametrize("row", CLAIMS, ids=lambda row: row.name)
def test_claim_holds(row, verdicts):
    verdict = verdicts[row.name]
    assert verdict.in_band is not False, (verdict.measured, row.band)
    assert verdict.pinned, (verdict.measured, row.pin)


class TestTable:
    def test_names_are_unique(self):
        names = [row.name for row in CLAIMS]
        assert len(names) == len(set(names))

    def test_every_driver_is_known(self):
        assert {row.driver for row in CLAIMS} == set(DRIVERS)

    def test_paper_values_lie_in_their_bands(self):
        # A band states how far the reproduction may sit from the paper,
        # so it must contain the paper's own number.
        from repro.analysis.claims import _inside

        for row in CLAIMS:
            if row.band is not None and row.paper is not None:
                low, high = row.band
                assert _inside(row.paper, (low - 1e-9, high + 1e-9)), row.name


def test_e2e_pins_match_the_table(driver_results):
    """``benchmarks/e2e`` keeps its own copy of 13 pins; each must be a
    table row with the same pin and rounding, and its extractor must
    reproduce the pin on the session's driver results."""
    from benchmarks.e2e.workloads import PAPER_CLAIMS

    for name, extract, pinned, decimals in PAPER_CLAIMS:
        row = claim(name)
        assert (row.pin, row.decimals) == (pinned, decimals), name
        value = extract(driver_results)
        assert (value if decimals is None else round(value, decimals)) == pinned, name


# --- EXPERIMENTS.md -----------------------------------------------------------

def _section(title: str) -> str:
    text = EXPERIMENTS_MD.read_text(encoding="utf-8")
    match = re.search(rf"^## {re.escape(title)}.*?(?=^## |\Z)", text, re.S | re.M)
    assert match, f"EXPERIMENTS.md lost its '{title}' section"
    return match.group(0)


def _rows(section: str):
    """The body rows of the section's first table, as stripped cells."""
    rows = [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in section.splitlines() if line.startswith("|")
    ]
    return rows[2:]


def _number(cell: str) -> float:
    return float(re.search(r"-?\d+(?:\.\d+)?", cell).group(0))


def _pin(name: str):
    return claim(name).pin


class TestExperimentsDoc:
    def test_fig2_rows_and_crossovers(self, fig2):
        section = _section("Figure 2")
        for cells in _rows(section):
            index = fig2.availabilities.index(_number(cells[0]) / 100)
            shown = [f"{fig2.series[name][index]:.3f}×" for name in fig2.series]
            assert cells[1:] == shown, cells
        crossovers = _pin("fig2 crossovers").values()
        band = f"{min(crossovers):.0%}"[:-1] + f"–{max(crossovers):.0%}"
        text = EXPERIMENTS_MD.read_text(encoding="utf-8")
        stated = re.findall(r"crossovers (?:at|sit at) (\d+–\d+%)", text)
        assert stated and set(stated) == {band}, stated
        assert f"geomean {_pin('fig2 static geomean at 100% CSE'):.2f}× at 100%" in section
        assert f"~{claim('fig2 static geomean at 100% CSE').paper}× at 100%" in section

    def test_fig4_rows_and_geomeans(self, fig4):
        section = _section("Figure 4")
        rows = _rows(section)
        for cells in rows[:-1]:
            row = fig4.row(cells[0])
            assert cells[1:4] == [
                f"{row.baseline_seconds:.2f}",
                f"{row.static_speedup:.3f}×",
                f"{row.activepy_speedup:.3f}×",
            ], cells
            assert cells[4].startswith("yes" if row.same_regions else "no"), cells
        static, activepy = _pin("fig4 static geomean"), _pin("fig4 ActivePy geomean")
        assert rows[-1][2:4] == [f"**{static:.3f}×**", f"**{activepy:.3f}×**"]
        paper = (claim("fig4 static geomean").paper, claim("fig4 ActivePy geomean").paper)
        assert f"Paper: {paper[0]}× (static) vs {paper[1]}× (ActivePy)" in section
        assert f"regions on {_pin('fig4 rows with the same regions')}/9 workloads" in section

    def test_fig5_rows_and_headline(self, fig5):
        section = _section("Figure 5")
        for cells in _rows(section):
            availability = _number(cells[1]) / 100
            (row,) = [r for r in fig5.at(availability) if r.name == cells[0]]
            assert cells[2:] == [
                f"{row.with_migration_speedup:.3f}×",
                f"{row.without_migration_speedup:.3f}×",
                f"{row.migration_gain:.3f}×",
            ], cells
        gain = claim("fig5 migration gain at 10% availability")
        loss = claim("fig5 mean loss without migration at 10%")
        worst = claim("fig5 worst loss without migration at 10%")
        assert f"migration wins {gain.paper}× over the ablation" in section
        assert f"geomean gain {gain.pin}× at 10%" in section
        assert f"loss averages {loss.paper:.0%} (up to {worst.paper:.0%})" in section
        assert f"loss without migration {loss.pin:.0%} average" in section

    def test_ladder(self):
        rows = {cells[0]: cells for cells in _rows(_section("§V — language-runtime"))}
        for mode, label in (
            ("python", "plain CPython"),
            ("cython", "Cython-compiled"),
            ("activepy", "ActivePy (copy-eliminated)"),
        ):
            row = claim(f"ladder {mode} overhead %")
            assert _number(rows[label][1]) == row.paper, label
            assert _number(rows[label][2]) == row.pin, label

    def test_prediction(self, csr_sweep):
        section = _section("§V — prediction accuracy")
        rows = {cells[0]: cells for cells in _rows(section)}
        error = claim("volume error excluding outliers %")
        cells = rows["Geomean data-volume error, outliers discounted"]
        assert (_number(cells[1]), _number(cells[2])) == (error.paper, error.pin)
        over = claim("CSR volume over-estimate")
        cells = rows["CSR volume over-estimate"]
        assert (_number(cells[1]), _number(cells[2])) == (over.paper, over.pin)
        ratios = [row.ratio for row in csr_sweep]
        assert f"ratios {min(ratios):.2f}×–{max(ratios):.2f}×" in section
