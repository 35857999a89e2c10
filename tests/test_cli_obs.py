"""The observed CLI run: ``repro run`` with --metrics / --trace-out / --explain."""

import json

import pytest

from repro.cli import _cmd_run, build_parser, main
from repro.obs import validate_chrome_trace

_SCALE = "0.0078125"  # 2**-7


class TestParser:
    def test_subcommands_registered(self):
        parser = build_parser()
        for flag in (["--metrics"], ["--trace-out", "t.json"], ["--explain"]):
            args = parser.parse_args(["run", "tpch_q6"] + flag)
            assert args.fn is _cmd_run

    @pytest.mark.parametrize("command", ["metrics", "trace", "explain", "plan", "obs"])
    def test_run_is_the_only_workload_command(self, command):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, "run", "tpch_q6"])
        assert excinfo.value.code == 2


class TestMetricsRun:
    def test_prints_metric_report(self, capsys):
        assert main(["run", "tpch_q6", "--scale", _SCALE, "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "executor.lines" in out
        assert "dispatch.invocations" in out

    def test_json_snapshot(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        assert main(["run", "tpch_q6", "--scale", _SCALE, "--metrics",
                     "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["metrics"]["counters"]["executor.lines"] > 0
        assert "critical_path" not in payload


class TestTraceRun:
    def test_writes_valid_chrome_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(["run", "tpch_q6", "--scale", _SCALE,
                     "--trace-out", str(path)]) == 0
        trace = json.loads(path.read_text())
        assert validate_chrome_trace(trace) == []
        assert any(e["ph"] == "X" for e in trace["traceEvents"])
        assert "perfetto" in capsys.readouterr().out


def _activepy_line(out):
    return next(line for line in out.splitlines() if line.startswith("ActivePy   :"))


class TestComposition:
    """Every observer flag on a migrated, faulted run at once.

    Fault seed 1 lands its faults without sending a line to the host
    fallback, so the CSE throttle at 50% progress still migrates
    ``price_options``; at the default seed a NAND fault moves
    ``parse_options`` to the host before the trigger fires.
    """

    RUN = ["run", "blackscholes", "--scale", "0.0625", "--stress", "0.1",
           "--fault-count", "3", "--fault-seed", "1"]

    def test_every_observer_on_a_migrated_faulted_run(self, tmp_path, capsys):
        trace_path = tmp_path / "T.json"
        json_path = tmp_path / "P.json"
        assert main(self.RUN + [
            "--metrics", "--trace-out", str(trace_path), "--explain",
            "--json", str(json_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "migration  : price_options" in out
        assert "faults     : 3 armed (seed 1)" in out
        assert "executor.lines" in out
        assert "prof cache : " in out
        assert "plan explanation for 'blackscholes'" in out
        assert validate_chrome_trace(json.loads(trace_path.read_text())) == []
        payload = json.loads(json_path.read_text())
        assert payload["migrated"] is True
        assert "metrics" in payload
        steps = payload["critical_path"]["steps"]
        assert any(step["component"] == "migration" for step in steps)
        assert payload["attribution"]["residual"] == 0.0

    def test_observing_never_changes_the_simulated_seconds(self, tmp_path, capsys):
        assert main(self.RUN) == 0
        plain = _activepy_line(capsys.readouterr().out)
        assert main(self.RUN + [
            "--trace", "--metrics", "--trace-out", str(tmp_path / "T.json"),
            "--explain",
        ]) == 0
        assert _activepy_line(capsys.readouterr().out) == plain
