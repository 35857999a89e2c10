"""The reach pass's bookkeeping (``tools/reach.py``), on a toy package."""

import importlib
import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "reach.py"


@pytest.fixture
def reach(monkeypatch):
    spec = importlib.util.spec_from_file_location("reach_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "reach_tool", module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def toy(tmp_path, monkeypatch):
    """A package with one module: one called and one uncalled function."""
    package = tmp_path / "toypkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(textwrap.dedent('''\
        import functools


        @functools.lru_cache(maxsize=None)
        def called(x):
            return x + 1


        class Box:
            def uncalled(self):
                """Never run."""
                y = 2
                return y
        '''))
    monkeypatch.syspath_prepend(str(tmp_path))
    yield package
    for name in ("toypkg", "toypkg.mod"):
        sys.modules.pop(name, None)


def test_reports_exactly_the_uncalled_function(reach, toy):
    mod = importlib.import_module("toypkg.mod")
    called, failures = reach.profile([("toy", lambda: mod.called(1))])
    missing = reach.uncalled(reach.collect_defs(toy), called)
    assert failures == []
    assert missing == [reach.Def("toypkg/mod.py", "Box.uncalled", 3)]
    assert reach.dead_modules(reach.collect_defs(toy), missing) == []
    assert "total: 1 of 2 functions uncalled (3 body lines)" in reach.render(
        reach.collect_defs(toy), missing
    )


def test_a_module_with_nothing_reached_is_dead(reach, toy):
    importlib.import_module("toypkg.mod")
    called, failures = reach.profile([("nothing", lambda: None)])
    defs = reach.collect_defs(toy)
    missing = reach.uncalled(defs, called)
    assert failures == []
    assert reach.dead_modules(defs, missing) == ["toypkg/mod.py"]


def test_an_entry_point_that_raises_is_reported(reach):
    def boom():
        raise ValueError("boom")

    _, failures = reach.profile([("boom", boom)])
    assert len(failures) == 1 and failures[0].startswith("boom:")
    assert "ValueError: boom" in failures[0]
