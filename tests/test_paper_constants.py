"""The paper's own values in the claim table, and the calibrated
platform's consistency with them."""

from repro.analysis.claims import claim, evaluate
from repro.analysis.experiments import TABLE1_WORKLOADS
from repro.config import DEFAULT_CONFIG
from repro.units import GB

_CONFIG = {v.claim.name: v for v in evaluate({"config": DEFAULT_CONFIG})}


def _config_is_the_papers(name: str) -> None:
    """The row pins the paper's value, and the platform measures it."""
    row = claim(name)
    assert row.pin == row.paper, name
    assert _CONFIG[name].pinned, (name, _CONFIG[name].measured)


class TestPaperConstants:
    def test_fig4_averages(self):
        for name in ("fig4 static geomean", "fig4 ActivePy geomean"):
            low, high = claim(name).band
            assert low < claim(name).paper < high, name

    def test_table1_has_nine_apps(self):
        sizes = claim("table1 input sizes GB")
        assert len(sizes.paper) == len(TABLE1_WORKLOADS) == 9
        assert sizes.pin == sizes.paper

    def test_sampling_factors_match_config(self):
        _config_is_the_papers("config sampling factors log2")

    def test_ladder_matches_config_decomposition(self):
        _config_is_the_papers("config python overhead")
        _config_is_the_papers("config cython overhead")
        assert claim("config python overhead").paper * 100 == (
            claim("ladder python overhead %").paper
        )

    def test_platform_internal_bandwidth_matches_config(self):
        _config_is_the_papers("config internal bandwidth GB/s")

    def test_cse_cores_match(self):
        _config_is_the_papers("config CSE cores")

    def test_nand_capacity_matches(self):
        _config_is_the_papers("config NAND capacity GB")

    def test_compile_cost_matches(self):
        _config_is_the_papers("config compile overhead s")

    def test_workload_sizes_match_table1(self):
        from repro.workloads import get_workload

        paper = dict(zip(TABLE1_WORKLOADS, claim("table1 input sizes GB").paper))
        for name, size in paper.items():
            assert get_workload(name, scale=2**-7).table1_bytes == size * GB
