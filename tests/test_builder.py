"""Fluent program/dataset builders."""

import numpy as np
import pytest

from repro.errors import ProgramError
from repro.lang.builder import ProgramBuilder, dataset_of
from repro.runtime.activepy import ActivePy


def _k_parse(p):
    return {"v": p["raw"] * 0.5}


def _k_total(p):
    return {"total": float(np.sum(p["v"]))}


def build_program():
    return (
        ProgramBuilder("fluent")
        .scan("parse", _k_parse, instr_per_record=40,
              record_bytes=64, out_bytes_per_record=8)
        .reduce("total", _k_total, instr_per_record=1)
        .build()
    )


class TestProgramBuilder:
    def test_builds_scan_and_reduce(self):
        program = build_program()
        assert len(program) == 2
        assert program[0].reads_storage()
        assert not program[1].reads_storage()

    def test_cost_laws_installed(self):
        program = build_program()
        assert program[0].instructions(1000) == 40_000
        assert program[0].storage_bytes(1000) == 64_000
        assert program[1].output_bytes(1e9) == 24.0

    def test_scan_passes_multiply_storage(self):
        program = (
            ProgramBuilder("iterative")
            .scan("sweep", _k_parse, instr_per_record=10,
                  record_bytes=64, out_bytes_per_record=8, passes=5)
            .build()
        )
        assert program[0].storage_bytes(100) == 64 * 5 * 100

    def test_empty_build_rejected(self):
        with pytest.raises(ProgramError):
            ProgramBuilder("empty").build()

    def test_invalid_scan_params(self):
        with pytest.raises(ProgramError):
            ProgramBuilder("x").scan("s", _k_parse, 1, record_bytes=0,
                                     out_bytes_per_record=8)
        with pytest.raises(ProgramError):
            ProgramBuilder("x").scan("s", _k_parse, 1, record_bytes=8,
                                     out_bytes_per_record=8, passes=0)

    def test_built_program_runs_through_activepy(self, config):
        dataset = dataset_of(
            "fluent.data", n_records=20_000_000, record_bytes=64.0,
            builder=lambda n, full: {"raw": np.ones(n)},
        )
        report = ActivePy(config).run(build_program(), dataset)
        assert report.plan.uses_csd
        assert report.result.total_seconds > 0
