"""Every paper claim holds: each row's band and pin, and the copies of
the table outside ``repro.analysis.claims`` (the e2e benchmark's pins,
EXPERIMENTS.md's figure blocks and prose, README's headline numbers)
agree with it."""

import re
from pathlib import Path

import pytest

from repro.analysis.claims import _LOW, CLAIMS, DRIVERS, claim
from repro.analysis.report import FIGURES
from repro.cli import main

ROOT = Path(__file__).resolve().parents[1]
EXPERIMENTS_MD = ROOT / "EXPERIMENTS.md"
README_MD = ROOT / "README.md"


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


# --- EXPERIMENTS.md and README ----------------------------------------------

#: A block holding the exact output of ``python -m repro <figure>``.
_BLOCK = re.compile(r"^<!-- repro (\w+) -->\n(.*?)^<!-- /repro \1 -->$", re.S | re.M)


def _section(title: str) -> str:
    text = EXPERIMENTS_MD.read_text(encoding="utf-8")
    match = re.search(rf"^## {re.escape(title)}.*?(?=^## |\Z)", text, re.S | re.M)
    assert match, f"EXPERIMENTS.md lost its '{title}' section"
    return match.group(0)


def _pin(name: str):
    return claim(name).pin


def _assert_block(figure, capsys):
    """The ``figure`` block is byte-equal to ``python -m repro <figure>``'s
    output over the session's driver results (the ``measured`` fixture)."""
    blocks = dict(_BLOCK.findall(EXPERIMENTS_MD.read_text(encoding="utf-8")))
    assert main([figure]) == 0
    expected = capsys.readouterr().out
    assert blocks.get(figure) == expected, (
        f"EXPERIMENTS.md's `repro {figure}` block is stale; it should read:\n"
        f"<!-- repro {figure} -->\n{expected}<!-- /repro {figure} -->"
    )


class TestExperimentsDoc:
    """Each figure's block is its command's output; the prose numbers are
    the rows' paper values and pins."""

    def test_every_figure_has_one_block(self):
        names = [name for name, _ in _BLOCK.findall(EXPERIMENTS_MD.read_text(encoding="utf-8"))]
        assert sorted(names) == sorted(FIGURES)

    def test_table1_rows(self, measured, capsys):
        _assert_block("table1", capsys)

    def test_fig2_rows_and_crossovers(self, measured, capsys):
        _assert_block("fig2", capsys)
        section = _section("Figure 2")
        crossovers = _pin("fig2 crossovers").values()
        band = f"{min(crossovers):.0%}"[:-1] + f"–{max(crossovers):.0%}"
        text = EXPERIMENTS_MD.read_text(encoding="utf-8")
        stated = re.findall(r"crossovers (?:at|sit at) (\d+–\d+%)", text)
        assert stated and set(stated) == {band}, stated
        assert f"geomean {_pin('fig2 static geomean at 100% CSE'):.2f}× at 100%" in section
        assert f"~{claim('fig2 static geomean at 100% CSE').paper}× at 100%" in section

    def test_fig4_rows_and_geomeans(self, measured, capsys):
        _assert_block("fig4", capsys)
        section = _section("Figure 4")
        paper = (claim("fig4 static geomean").paper, claim("fig4 ActivePy geomean").paper)
        assert f"Paper: {paper[0]}× (static) vs {paper[1]}× (ActivePy)" in section
        assert f"regions on {_pin('fig4 rows with the same regions')}/9 workloads" in section

    def test_fig5_rows_and_headline(self, measured, capsys):
        _assert_block("fig5", capsys)
        section = _section("Figure 5")
        gain = claim("fig5 migration gain at 10% availability")
        loss = claim("fig5 mean loss without migration at 10%")
        worst = claim("fig5 worst loss without migration at 10%")
        assert f"migration wins {gain.paper}× over the ablation" in section
        assert f"geomean gain {gain.pin}× at 10%" in section
        assert f"loss averages {loss.paper:.0%} (up to {worst.paper:.0%})" in section
        assert f"loss without migration {loss.pin:.0%} average" in section

    def test_ladder(self, measured, capsys):
        _assert_block("ladder", capsys)

    def test_prediction(self, measured, capsys):
        _assert_block("prediction", capsys)
        section = _section("§V — prediction accuracy")
        pagerank = _pin("fig4 (baseline s, static, ActivePy, CSD lines)")["pagerank"]
        assert f"PageRank's ActivePy speedup\nis {pagerank[2]}×" in section
        ratios = sorted({f"{row.ratio:.3f}×" for row in measured["run_csr_matrix_sweep"]})
        assert len(ratios) == 3, ratios
        assert f"three\ndistinct ratios, {ratios[0]}, {ratios[1]} and {ratios[2]}" in section


def test_readme_headline_numbers_are_claim_rows():
    """Every number in README's headline bullets is a claim's paper value
    or pin, in bullet order (figure labels aside)."""
    text = README_MD.read_text(encoding="utf-8")
    bullets = re.search(r"^Headline shapes.*?\n\n(.*?)\n\n", text, re.S | re.M).group(1)
    static, activepy = claim("fig4 static geomean"), claim("fig4 ActivePy geomean")
    crossovers = _pin("fig2 crossovers").values()
    loss = claim("fig5 mean loss without migration at 10%")
    gain = claim("fig5 migration gain at 10% availability")
    csr = claim("CSR volume over-estimate")
    expected = [
        str(static.paper), str(activepy.paper), f"{static.pin:.2f}", f"{activepy.pin:.2f}",
        str(claim("fig2 static geomean at 100% CSE").paper),
        f"{100 * min(crossovers):.0f}", f"{100 * max(crossovers):.0f}",
        f"{100 * loss.paper:.0f}", f"{100 * _LOW:.0f}", str(gain.paper), str(gain.pin),
        f"{claim('ladder python overhead %').paper:.0f}",
        f"{claim('ladder cython overhead %').paper:.0f}",
        str(csr.paper), f"{csr.pin:.2f}",
    ]
    numbers = re.findall(r"\d+(?:\.\d+)?", re.sub(r"Figure \d", "", bullets))
    assert numbers == expected
