"""SystemConfig validation and derived quantities."""

import math

import pytest

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.errors import ConfigError


class TestDefaults:
    def test_default_is_valid(self):
        config = SystemConfig()
        assert config.host_ips > 0

    def test_cse_slower_than_host(self):
        assert DEFAULT_CONFIG.cse_ips < DEFAULT_CONFIG.host_ips

    def test_internal_bandwidth_richer_than_host_path(self):
        # The architectural premise of ISP (paper Fig. 1): the device
        # sees its own data faster than the host can pull it.
        assert DEFAULT_CONFIG.bw_internal > DEFAULT_CONFIG.bw_host_storage

    def test_device_speed_ratio(self):
        config = SystemConfig(host_ips=8e9, cse_ips=4e9)
        assert config.device_speed_ratio == pytest.approx(2.0)

    def test_sampling_factors_match_paper(self):
        assert DEFAULT_CONFIG.sampling_factors == (2**-10, 2**-9, 2**-8, 2**-7)

    def test_overhead_ladder_components(self):
        # dispatch + copies must reproduce the paper's +41%.
        total = (
            DEFAULT_CONFIG.interp_dispatch_overhead
            + DEFAULT_CONFIG.copy_overhead
        )
        assert total == pytest.approx(0.41)


class TestValidation:
    def test_negative_ips_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(host_ips=-1)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(bw_d2h=0)

    def test_cse_faster_than_host_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(host_ips=1e9, cse_ips=2e9)

    def test_empty_sampling_factors_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(sampling_factors=())

    def test_sampling_factor_above_one_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(sampling_factors=(0.5, 1.5))

    def test_unsorted_sampling_factors_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(sampling_factors=(2**-7, 2**-10))

    def test_ipc_threshold_bounds(self):
        with pytest.raises(ConfigError):
            SystemConfig(ipc_degradation_threshold=0.0)
        with pytest.raises(ConfigError):
            SystemConfig(ipc_degradation_threshold=1.5)

    @pytest.mark.parametrize("field, value", [
        ("bw_internal", math.nan),
        ("host_ips", math.nan),
        ("link_latency_s", math.nan),
        ("compile_overhead_s", math.nan),
        ("bw_d2h", math.inf),
        ("checkpoint_write_cost_s", -math.inf),
        ("cse_cores", math.inf),
    ])
    def test_non_finite_rejected(self, field, value):
        # NaN passes every range check (each comparison is False), and
        # the plan search's pruning needs steps that compare.
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            SystemConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("bw_internal", "x"), ("host_ips", None), ("cse_cores", True),
        ("link_latency_s", [5e-6]),
    ])
    def test_non_numeric_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be a number"):
            SystemConfig(**{field: value})

    def test_non_numeric_sampling_factor_rejected(self):
        with pytest.raises(ConfigError, match="must be numbers"):
            SystemConfig(sampling_factors=("x",))

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(link_latency_s=-1e-6)

    def test_internal_bandwidth_must_be_physically_deliverable(self):
        # A 2-channel array cannot stream 9 GB/s; the config refuses
        # the inconsistent platform instead of silently simulating it.
        with pytest.raises(ConfigError, match="NAND geometry"):
            SystemConfig(nand_channels=2)

    def test_default_geometry_sustains_internal_bandwidth(self):
        config = SystemConfig()
        peak = (
            config.nand_channels * config.nand_page_bytes
            / config.nand_read_latency_s
        )
        assert peak >= config.bw_internal


class TestReplace:
    def test_replace_returns_new_instance(self):
        base = SystemConfig()
        derived = base.replace(cse_ips=2e9)
        assert derived.cse_ips == 2e9
        assert base.cse_ips != 2e9

    def test_replace_validates(self):
        with pytest.raises(ConfigError):
            SystemConfig().replace(bw_internal=-1)

    def test_frozen(self):
        with pytest.raises(Exception):
            SystemConfig().host_ips = 1.0
