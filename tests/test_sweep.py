"""The config-sweep utility."""

import pytest

from repro.analysis.sweep import (
    SweepResult,
    activepy_speedup_metric,
    sweep_config,
)
from repro.errors import ReproError
from repro.units import GB


class TestSweepUtility:
    def test_sweep_validates(self):
        with pytest.raises(ReproError):
            sweep_config("bw_d2h", [], metric=lambda c: 1.0)
        with pytest.raises(ReproError):
            sweep_config("not_a_field", [1], metric=lambda c: 1.0)

    def test_sweep_evaluates_each_point(self):
        result = sweep_config(
            "cse_ips", [1e9, 2e9, 4e9],
            metric=lambda config: config.device_speed_ratio,
        )
        assert result.metrics == [8.0, 4.0, 2.0]
        assert result.is_monotone(increasing=False)

    def test_monotonicity_helper(self):
        rising = SweepResult("f", [])
        rising.points = [  # type: ignore[assignment]
            type("P", (), {"value": v, "metric": m})()
            for v, m in ((1, 1.0), (2, 2.0))
        ]
        assert rising.is_monotone(increasing=True)

    def test_isp_profit_falls_with_faster_host_storage(self):
        # The whole premise of ISP: it lives off the host's narrow
        # storage path.  Widen that path and the profit must shrink.
        result = sweep_config(
            "bw_host_storage", [1.0 * GB, 2.0 * GB, 6.0 * GB],
            metric=activepy_speedup_metric("tpch_q6"),
        )
        assert result.is_monotone(increasing=False)
        assert result.metrics[0] > 1.3
        assert result.metrics[-1] < result.metrics[0]
