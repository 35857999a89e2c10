"""End-to-end CLI checks: campaigns, planted bugs, fleet failover, cache
hits, and bad input rejected at the argument parser.

Each test runs one ``python -m repro`` command in process through
:func:`repro.cli.main` and checks its exit code and the line a user
reads.  The planted-bug campaigns also feed the printed replay command
back to ``main`` to show that it replays the same violation.
"""

import re
import shlex

import pytest

from repro.cli import main
from repro.runtime import profcache

TINY = "0.0078125"  # 2**-7: each seeded run takes milliseconds


def _violations(out):
    """Every rendered invariant violation a chaos command printed."""
    return set(re.findall(r"^\s*(?:violated  |VIOLATION )(.+)$", out, re.MULTILINE))


def _replay_argv(out):
    (line,) = re.findall(r"^\s*replay    python -m repro (chaos .+)$", out, re.MULTILINE)
    return shlex.split(line)


class TestChaosCampaigns:
    @pytest.mark.parametrize("extra", [[], ["--sdc"]], ids=["loud", "sdc"])
    def test_fixed_seed_campaign_holds(self, extra, capsys):
        assert main(["chaos", "--runs", "8", "--scale", TINY, *extra]) == 0
        assert "all invariants held" in capsys.readouterr().out

    def test_campaign_across_two_workers_holds(self, capsys):
        argv = ["chaos", "--runs", "6", "--workers", "2", "--scale", TINY]
        assert main(argv) == 0
        assert "all invariants held" in capsys.readouterr().out

    def test_fleet_campaign_holds(self, capsys):
        assert main(["chaos", "--fleet", "--runs", "12"]) == 0
        assert "all fleet invariants held" in capsys.readouterr().out

    @pytest.mark.parametrize("fleet", [[], ["--fleet"]], ids=["machine", "fleet"])
    def test_workers_below_one_is_a_usage_error(self, fleet, capsys):
        assert main(["chaos", *fleet, "--runs", "2", "--workers", "0"]) == 2
        assert "--workers must be at least 1" in capsys.readouterr().err


class TestPrintedReplayLineReplays:
    """The planted bugs: the campaign fails, and so does its replay line.

    The single-machine replay line is ``chaos --workload kmeans --seed
    157 --fault-count 3 --no-validate``; the fleet campaign here is
    itself a one-run replay.
    """

    @pytest.mark.parametrize("argv, violation", [
        (["chaos", "--runs", "1", "--workloads", "kmeans", "--seed", "157",
          "--no-validate"], "work-conservation"),
        (["chaos", "--fleet", "--runs", "1", "--seed", "1", "--no-isolation"],
         "tenant-isolation"),
    ], ids=["machine", "fleet"])
    def test_replay_exits_1_with_the_same_violation(self, argv, violation, capsys):
        assert main(argv) == 1
        campaign = capsys.readouterr().out
        assert main(_replay_argv(campaign)) == 1
        replay = capsys.readouterr().out
        assert any(v.startswith(f"{violation}:") for v in _violations(campaign))
        assert _violations(replay) == _violations(campaign)


class TestFleetRun:
    def test_device_loss_fails_over_without_shedding(self, capsys):
        argv = ["fleet", "run", "--devices", "4", "--tenants", "3", "--jobs", "16",
                "--lose-device", "csd1", "--lose-at", "0.5"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "csd1 lost" in out
        jobs = re.search(r"jobs\s+16 arrived.*?(\d+) degraded\s+(\d+) shed", out)
        assert jobs and int(jobs.group(1)) >= 1 and jobs.group(2) == "0"


class TestProfileCacheHit:
    def test_second_explain_run_hits_the_cache(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(profcache, "_DEFAULT_CACHE", None)
        monkeypatch.setattr(profcache, "_DEFAULT_CACHE_KEY", None)
        argv = ["run", "tpch_q6", "--scale", "0.01", "--explain"]
        assert main(argv) == 0
        assert "prof cache : miss" in capsys.readouterr().out
        assert main(argv) == 0
        assert "prof cache : hit" in capsys.readouterr().out


class TestBadInputIsAUsageError:
    """Out-of-range values exit 2 with a usage line before any work runs."""

    @pytest.mark.parametrize("argv", [
        ["run", "tpch_q6", "--scale", "0"],
        ["run", "tpch_q6", "--scale", "1.5"],
        ["run", "tpch_q6", "--scale", "nan"],
        ["run", "tpch_q6", "--stress", "1.5"],
        ["run", "tpch_q6", "--stress", "0"],
        ["run", "tpch_q6", "--fault-count", "-2"],
        ["fleet", "run", "--scale", "0"],
        ["fleet", "run", "--window", "0"],
        ["fleet", "run", "--devices", "0"],
        ["fleet", "run", "--jobs", "-1"],
        ["fleet", "run", "--target-load", "0"],
        ["fleet", "run", "--lose-device", "csd1", "--lose-at", "-1"],
        ["fleet", "run", "--lose-device", "csd1", "--rejoin-after", "-1"],
        ["fleet", "run", "--lose-device", "nope"],
        ["fleet", "run", "--devices", "2", "--lose-device", "csd2"],
        ["chaos", "--scale", "-1"],
        ["validate", "nope"],
        ["validate", "tpch_q6", "--scale", "two"],
    ], ids=lambda argv: " ".join(argv))
    def test_exits_2_with_usage(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro")
        assert "Traceback" not in err
