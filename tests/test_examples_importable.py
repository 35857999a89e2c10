"""Every example must at least import and expose a main().

Full example runs take minutes of wall clock (they use paper-scale
inputs); importing them catches broken imports without the cost, and
two sub-second scenarios (``adaptive_migration.run_scenario`` and
``multi_tenant.run_with_cotenant`` at a small scale) run for real so a
changed call signature fails here too.  The examples'
behaviour itself is covered by the experiment tests, which exercise the
same drivers.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


def load_module(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_expected_examples_present(self):
        names = {path.stem for path in EXAMPLE_FILES}
        assert {
            "quickstart", "tpch_analytics", "graph_analytics",
            "adaptive_migration", "multi_tenant", "when_does_isp_pay",
            "plain_python",
        } <= names

    @pytest.mark.parametrize(
        "path", EXAMPLE_FILES, ids=[p.stem for p in EXAMPLE_FILES]
    )
    def test_imports_and_has_main(self, path):
        module = load_module(path)
        assert callable(getattr(module, "main", None)), (
            f"{path.name} must expose a main()"
        )

    @pytest.mark.parametrize(
        "path", EXAMPLE_FILES, ids=[p.stem for p in EXAMPLE_FILES]
    )
    def test_has_module_docstring_with_run_instructions(self, path):
        module = load_module(path)
        assert module.__doc__ and "Run::" in module.__doc__

class TestAdaptiveMigrationRuns:
    """One example actually runs, so a removed keyword cannot hide."""

    def test_run_scenario_migrates_under_stress(self):
        module = load_module(EXAMPLES_DIR / "adaptive_migration.py")
        report = module.run_scenario(True)
        assert report.result.migrations
        assert report.total_seconds > 0


class TestMultiTenantRuns:
    """The co-tenant scenario runs and draws its Gantt chart."""

    def test_run_with_cotenant_renders_the_run(self, capsys):
        module = load_module(EXAMPLES_DIR / "multi_tenant.py")
        module.run_with_cotenant(scale=2 ** -6)
        out = capsys.readouterr().out
        assert "ActivePy under tenant bursts" in out
        assert "s=sampling" in out  # the Gantt legend
