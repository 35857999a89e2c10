"""The repro.api facade and the docs/api.md contract stay in sync."""

import importlib
import re
from pathlib import Path

import pytest

import repro
import repro.api

DOCS_API = Path(__file__).resolve().parents[1] / "docs" / "api.md"

#: Every public package/subpackage; each must declare an explicit
#: __all__ whose names all resolve.
PUBLIC_PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.baselines",
    "repro.chaos",
    "repro.faults",
    "repro.fleet",
    "repro.frontend",
    "repro.graph",
    "repro.hw",
    "repro.lang",
    "repro.memory",
    "repro.ml",
    "repro.obs",
    "repro.perfgate",
    "repro.runtime",
    "repro.sim",
    "repro.storage",
    "repro.workloads",
    "repro.workloads.tpch",
]


def documented_symbols():
    """The symbol list inside the facade section's fenced block."""
    text = DOCS_API.read_text(encoding="utf-8")
    match = re.search(
        r"## The `repro\.api` facade.*?```text\n(.*?)```", text, re.DOTALL
    )
    assert match, "docs/api.md lost its repro.api facade section"
    return [line.strip() for line in match.group(1).splitlines() if line.strip()]


class TestFacadeDocsSync:
    def test_docs_match_facade_exactly(self):
        documented = documented_symbols()
        exported = list(repro.api.__all__)
        missing_from_docs = sorted(set(exported) - set(documented))
        missing_from_api = sorted(set(documented) - set(exported))
        assert not missing_from_docs, (
            f"exported by repro.api but undocumented in docs/api.md: "
            f"{missing_from_docs}"
        )
        assert not missing_from_api, (
            f"documented in docs/api.md but not exported by repro.api: "
            f"{missing_from_api}"
        )

    def test_every_documented_symbol_imports(self):
        for name in documented_symbols():
            assert hasattr(repro.api, name), f"repro.api.{name} does not import"

    def test_star_import_covers_all(self):
        namespace = {}
        exec("from repro.api import *", namespace)
        public = {k for k in namespace if not k.startswith("__")}
        assert public == set(repro.api.__all__) - {"__version__"}

    def test_all_is_sorted_and_unique(self):
        names = list(repro.api.__all__)
        assert names == sorted(names)
        assert len(names) == len(set(names))


class TestPackageAllDeclarations:
    @pytest.mark.parametrize("module_name", PUBLIC_PACKAGES)
    def test_package_declares_resolvable_all(self, module_name):
        module = importlib.import_module(module_name)
        assert hasattr(module, "__all__"), f"{module_name} has no __all__"
        for name in module.__all__:
            assert hasattr(module, name), (
                f"{module_name}.__all__ names {name!r} which does not resolve"
            )


class TestTopLevelExports:
    def test_run_options_and_observability_reachable_from_repro(self):
        assert repro.RunOptions is repro.api.RunOptions
        assert repro.Observability is repro.api.Observability
