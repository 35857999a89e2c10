"""RunOptions: the one way to shape an ActivePy.run."""

import dataclasses
import math

import pytest

from repro.errors import ConfigError
from repro.runtime.activepy import ActivePy, RunOptions, run_plan
from repro.workloads import get_workload

_SCALE = 2 ** -7


def _workload():
    return get_workload("tpch_q6", scale=_SCALE)


class TestRunOptions:
    def test_frozen_and_keyword_friendly(self):
        options = RunOptions(trace=True)
        with pytest.raises(dataclasses.FrozenInstanceError):
            options.trace = False

    def test_options_path_emits_no_warning(self, recwarn):
        workload = _workload()
        report = ActivePy().run(
            workload.program, workload.dataset,
            options=RunOptions(trace=True),
        )
        assert report.spans is not None
        assert not [w for w in recwarn if w.category is DeprecationWarning]

    def test_options_is_the_only_run_shaping_keyword(self):
        workload = _workload()
        for keyword in ("obs", "fault_plan"):
            with pytest.raises(TypeError):
                ActivePy().run(workload.program, workload.dataset, **{keyword: None})
        fields = {field.name for field in dataclasses.fields(RunOptions)}
        assert fields == {"trace", "progress_triggers", "fault_plan", "obs"}


class TestProgressTriggers:
    @pytest.mark.parametrize("triggers", [
        None, [(2.0,)], [(0.5, 0.5, 0.5)], [(math.nan, 0.5)], [(0.5, math.inf)],
        [("half", 0.5)], [(True, 0.5)], [(-1.0, 0.5)], [(1.5, 0.5)], [(0.5, 0.0)],
        [(0.5, 2.0)],
    ])
    def test_rejected_where_they_enter(self, triggers):
        with pytest.raises(ConfigError, match="pair"):
            RunOptions(progress_triggers=triggers)
        workload = _workload()
        with pytest.raises(ConfigError, match="pair"):
            run_plan(
                None, workload.program, None, workload.dataset, None,
                progress_triggers=triggers,
            )

    @pytest.mark.parametrize("triggers", [(), ((0.5, 0.1),), [(0.0, 1.0), (1.0, 1e-9)]])
    def test_valid_triggers_accepted(self, triggers):
        assert RunOptions(progress_triggers=triggers).progress_triggers == triggers
