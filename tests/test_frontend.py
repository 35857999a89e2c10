"""The plain-Python frontend: AST lowering, liveness, cost derivation."""

import ast

import numpy as np
import pytest

from repro.frontend import (
    FrontendError,
    live_after_each,
    names_read,
    names_written,
    program_from_function,
)
from repro.lang.dataset import Dataset
from repro.runtime.activepy import ActivePy
from repro.runtime.profiler import payload_nbytes


def pipeline(prices, volumes):
    scaled = prices * 1.02
    kept = scaled[volumes > 100.0]
    return float(np.sum(kept))


def _payload(n, full=None):
    rng = np.random.default_rng(31)
    return {
        "prices": rng.uniform(1.0, 50.0, size=n),
        "volumes": rng.uniform(0.0, 200.0, size=n),
    }


class TestLiveness:
    def parse(self, source):
        return ast.parse(source).body

    def test_names_read_and_written(self):
        stmt = self.parse("c = a + b[0]")[0]
        assert names_read(stmt) == {"a", "b"}
        assert names_written(stmt) == {"c"}

    def test_live_after_each(self):
        body = self.parse("x = a + 1\ny = x * 2\nz = y + a")
        live = live_after_each(body)
        assert live[0] == {"x", "a"}
        assert live[1] == {"y", "a"}
        assert live[2] == set()

    def test_dead_values_drop_out(self):
        body = self.parse("tmp = a * 2\nresult = a + 1")
        live = live_after_each(body)
        assert "tmp" not in live[0]  # never read again

    def test_rewrite_kills_liveness(self):
        body = self.parse("x = a\nx = b\ny = x")
        live = live_after_each(body)
        assert "x" not in live[0] or live[0] == {"b", "x"} - {"x"} | {"b"}
        # The first x is dead: line 1 rewrites it before line 2 reads.
        assert live[0] == {"b"}


class TestLowering:
    def test_three_statements(self):
        program = program_from_function(pipeline, record_bytes=16.0)
        assert len(program) == 3
        assert [s.name for s in program] == ["L0_scaled", "L1_kept", "L2_return"]

    def test_kernels_compute_the_same_result(self):
        program = program_from_function(pipeline, record_bytes=16.0)
        payload = _payload(5000)
        result = program.run_kernels(dict(payload))
        assert result["__result__"] == pytest.approx(
            pipeline(payload["prices"], payload["volumes"])
        )

    def test_liveness_prunes_intermediate_payloads(self):
        program = program_from_function(pipeline, record_bytes=16.0)
        payload = program[0].kernel(_payload(1000))
        # After line 0, 'prices' is dead; 'scaled' is the only live
        # in-memory value.  'volumes' has not been read yet, so it
        # threads through as still-stored (zero in-memory size).
        assert set(payload) == {"scaled", "__stored__"}
        assert set(payload["__stored__"]) == {"volumes"}

    def test_stored_passthrough_has_no_memory_footprint(self):
        program = program_from_function(pipeline, record_bytes=16.0)
        payload = program[0].kernel(_payload(1000))
        assert payload_nbytes(payload) == pytest.approx(8_000)

    def test_storage_attributed_to_first_readers(self):
        program = program_from_function(pipeline, record_bytes=16.0)
        # prices read at line 0, volumes at line 1: 8 bytes each.
        assert program[0].storage_bytes(1000) == pytest.approx(8_000)
        assert program[1].storage_bytes(1000) == pytest.approx(8_000)
        assert program[2].storage_bytes(1000) == 0.0

    def test_column_bytes_override(self):
        program = program_from_function(
            pipeline, record_bytes=16.0,
            column_bytes={"prices": 12.0, "volumes": 4.0},
        )
        assert program[0].storage_bytes(1000) == pytest.approx(12_000)
        assert program[1].storage_bytes(1000) == pytest.approx(4_000)

    def test_instruction_density_scales_with_op_count(self):
        program = program_from_function(pipeline, record_bytes=16.0)
        # line 2 (call + call + cast) is denser than line 0 (one binop).
        assert program[2].instructions(1000) > program[0].instructions(1000)

    def test_instr_hints_override(self):
        program = program_from_function(
            pipeline, record_bytes=16.0, instr_hints={"L0_scaled": 99.0},
        )
        assert program[0].instructions(10) == pytest.approx(990.0)

    def test_probe_calibrates_output_volumes(self):
        probe = _payload(4096)
        program = program_from_function(
            pipeline, record_bytes=16.0, probe_payload=probe,
        )
        # Line 0's measured output: just 'scaled' (8 B per record) —
        # 'volumes' is still on flash and must not count.
        assert program[0].output_bytes(1000) == pytest.approx(8_000, rel=0.01)
        # Line 1 keeps ~half the rows (volumes > 100 on U[0, 200]).
        assert program[1].output_bytes(1000) == pytest.approx(4_000, rel=0.15)


class TestValidation:
    def test_loops_rejected_with_guidance(self):
        def looping(data):
            total = 0.0
            for value in data:
                total += value
            return total

        with pytest.raises(FrontendError, match="vectorise"):
            program_from_function(looping, record_bytes=8.0)

    def test_constant_range_loops_rejected(self):
        def smooth(signal):
            x = signal * 1.0
            for _ in range(8):
                x = (x + np.roll(x, 1)) * 0.5
            return float(np.sum(x))

        with pytest.raises(FrontendError, match="vectorise"):
            program_from_function(smooth, record_bytes=8.0)

    def test_missing_return_rejected(self):
        def no_return(data):
            _ = data * 2

        with pytest.raises(FrontendError, match="return"):
            program_from_function(no_return, record_bytes=8.0)

    def test_early_return_rejected(self):
        def early(data):
            return float(data.sum())
            return 0.0  # noqa: unreachable on purpose

        # Unreachable second return is dropped by Python's compiler but
        # kept by ast.parse; the frontend must reject the *first* one
        # only if it is not last — here it is last-but-one.
        with pytest.raises(FrontendError):
            program_from_function(early, record_bytes=8.0)

    def test_no_parameters_rejected(self):
        def nullary():
            return 1.0

        with pytest.raises(FrontendError, match="parameter"):
            program_from_function(nullary, record_bytes=8.0)

    def test_bad_record_bytes(self):
        with pytest.raises(FrontendError):
            program_from_function(pipeline, record_bytes=0.0)

    def test_bad_column_bytes(self):
        with pytest.raises(FrontendError, match="unknown"):
            program_from_function(
                pipeline, record_bytes=16.0, column_bytes={"nope": 16.0},
            )
        with pytest.raises(FrontendError, match="sum"):
            program_from_function(
                pipeline, record_bytes=16.0, column_bytes={"prices": 1.0},
            )


class TestEndToEnd:
    def test_frontend_program_offloads_through_activepy(self, config):
        # A variant whose first line narrows to f32 — the volume
        # reduction Equation 1 rewards.  (The original `pipeline` is
        # flat-volume at line 0 and legitimately stays on the host.)
        def reducing_pipeline(prices, volumes):
            scaled = (prices * 1.02).astype(np.float32)
            kept = scaled[volumes > 100.0]
            return float(np.sum(kept))

        program = program_from_function(
            reducing_pipeline, record_bytes=16.0, probe_payload=_payload(4096),
            # Calibrated densities (instructions/record), as one would
            # measure for vectorised numpy kernels on small records.
            instr_hints={"L0_scaled": 12.0, "L1_kept": 12.0, "L2_return": 4.0},
        )
        dataset = Dataset(
            "frontend.ticks", n_records=100_000_000, record_bytes=16.0,
            builder=_payload,
        )
        report = ActivePy(config).run(program, dataset)
        assert report.plan.uses_csd
        assert report.result.total_seconds > 0

    def test_flat_volume_pipeline_stays_host(self, config):
        # Negative control: the original pipeline's first line does not
        # shrink its data, so ActivePy keeps everything host-side.
        program = program_from_function(
            pipeline, record_bytes=16.0, probe_payload=_payload(4096),
        )
        dataset = Dataset(
            "frontend.flat", n_records=100_000_000, record_bytes=16.0,
            builder=_payload,
        )
        report = ActivePy(config).run(program, dataset)
        assert not report.plan.uses_csd

    def test_final_result_is_small(self):
        program = program_from_function(pipeline, record_bytes=16.0)
        out = program.run_kernels(_payload(2000))
        assert payload_nbytes(out) < 64
