"""JSON export and the command-line interface."""

import json

import pytest

from repro.analysis import export
from repro.obs import Span
from repro.cli import build_parser, main
from repro.errors import ReproError


class TestExport:
    def test_timeline_round_trips(self):
        # A traced run's spans export through the dataclass fallback.
        spans = (Span("scan", "compute", "host", 0.0, 1.0, (("chunk", 3),)),)
        data = json.loads(export.dumps(spans))
        assert data == [{
            "name": "scan", "cat": "compute", "resource": "host",
            "start": 0.0, "end": 1.0, "args": [["chunk", 3]],
        }]

    def test_dataclass_fallback(self):
        from repro.analysis.experiments import Table1Row

        row = Table1Row(name="x", data_bytes=1.0, paper_bytes=1.0, sese_regions=2)
        assert export.to_jsonable(row)["name"] == "x"

    def test_list_of_results(self):
        from repro.analysis.experiments import Table1Row

        rows = [Table1Row("a", 1.0, 1.0, 2), Table1Row("b", 2.0, 2.0, 3)]
        data = export.to_jsonable(rows)
        assert [r["name"] for r in data] == ["a", "b"]

    def test_unknown_type_rejected(self):
        with pytest.raises(ReproError):
            export.to_jsonable(object())

    def test_dump_to_path(self, tmp_path):
        spans = [Span("scan", "compute", "host", 0.0, 1.0)]
        path = tmp_path / "spans.json"
        export.dump(spans, str(path))
        assert json.loads(path.read_text())[0]["name"] == "scan"


class TestCliParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for argv in (
            ["list"], ["run", "tpch_q6"], ["table1"], ["fig2"], ["fig4"],
            ["fig5"], ["ladder"], ["prediction"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.fn)

    def test_unknown_workload_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "nope"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCliExecution:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "blackscholes" in out and "tpch_q14" in out

    def test_run_small_scale(self, capsys, tmp_path):
        path = tmp_path / "plan.json"
        code = main([
            "run", "tpch_q6", "--scale", "0.0078125", "--json", str(path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "ActivePy" in out and "plan" in out
        assert path.exists()

    def test_run_with_trace(self, capsys):
        assert main(["run", "tpch_q6", "--scale", "0.0078125", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "s=sampling" in out  # the timeline legend
        assert "wall (simulated)" in out  # the utilization report

    def test_run_with_stress_reports_migration(self, capsys):
        assert main(["run", "tpch_q6", "--stress", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "migration" in out

    def test_validate_command(self, capsys):
        assert main(["validate", "tpch_q6"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_table1(self, capsys, tmp_path):
        path = tmp_path / "table1.json"
        assert main(["table1", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert list(data) == ["run_table1"]
        assert len(data["run_table1"]) == 9
        # Table I, then its claim rows, as pipe tables.
        out = capsys.readouterr().out
        assert out.startswith("| application ")
        assert "| table1 SESE regions " in out and "claims: PASS" in out
