"""NAND flash: the read faults a device read can hit."""

import pytest

from repro.errors import FlashError
from repro.hw.topology import build_machine
from repro.storage.nand import FlashArray


def test_ecc_retry_costs_the_configured_read_latency(config):
    """A correctable fault re-reads at ``nand_read_latency_s``, bit for bit."""
    machine = build_machine(config)
    machine.csd.flash.arm_read_fault(correctable=True, retries=3)
    assert machine.csd.consume_media_fault() == 3 * config.nand_read_latency_s
    assert machine.now == 3 * config.nand_read_latency_s


def test_non_positive_read_latency_rejected():
    with pytest.raises(FlashError):
        FlashArray(read_latency_s=0.0)
