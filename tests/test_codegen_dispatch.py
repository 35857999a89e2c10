"""Code generation (mode ladder, distribution) and queue dispatch."""

import pytest

from repro.errors import CodegenError, DispatchError
from repro.runtime.codegen import CodeGenerator, ExecutionMode, overhead_ladder
from repro.runtime.dispatch import CallQueueDispatcher, StatusUpdate
from repro.runtime.planner import CSD, HOST, Plan
from repro.baselines import ground_truth_estimates

from .conftest import make_toy_program


def make_plan(program, assignments, config):
    estimates = ground_truth_estimates(program, 1_000_000, config)
    return Plan(
        assignments=assignments,
        t_host=sum(e.ct_host for e in estimates),
        t_csd=1.0,
        estimates=tuple(estimates),
    )


class TestExecutionModes:
    def test_ladder_multipliers(self, config):
        ladder = dict(overhead_ladder(config))
        assert ladder[ExecutionMode.C] == 1.0
        assert ladder[ExecutionMode.PYTHON] == pytest.approx(1.41)
        assert ladder[ExecutionMode.CYTHON] == pytest.approx(1.20)
        assert ladder[ExecutionMode.ACTIVEPY] == pytest.approx(1.005)

    def test_compile_costs(self, config):
        assert ExecutionMode.C.compile_seconds(config) == 0.0
        assert ExecutionMode.PYTHON.compile_seconds(config) == 0.0
        assert ExecutionMode.CYTHON.compile_seconds(config) == pytest.approx(0.1)
        assert ExecutionMode.ACTIVEPY.compile_seconds(config) == pytest.approx(0.1)


class TestCodeGenerator:
    def test_compile_charges_clock(self, config, machine):
        program = make_toy_program()
        plan = make_plan(program, [HOST, HOST, HOST], config)
        CodeGenerator(config).generate(machine, program, plan, ExecutionMode.ACTIVEPY)
        assert machine.now == pytest.approx(config.compile_overhead_s)

    def test_c_mode_compiles_for_free(self, config, machine):
        program = make_toy_program()
        plan = make_plan(program, [HOST, HOST, HOST], config)
        CodeGenerator(config).generate(machine, program, plan, ExecutionMode.C)
        assert machine.now == 0.0

    def test_binaries_installed_for_csd_lines_only(self, config, machine):
        program = make_toy_program()
        plan = make_plan(program, [CSD, CSD, HOST], config)
        compiled = CodeGenerator(config).generate(machine, program, plan)
        assert set(compiled.device_binaries) == {"scan", "crunch"}
        assert machine.csd.bar.binary_address("toy.scan") is not None

    def test_copy_elimination_counted_in_activepy_mode(self, config, machine):
        program = make_toy_program()
        plan = make_plan(program, [HOST, HOST, HOST], config)
        compiled = CodeGenerator(config).generate(
            machine, program, plan, ExecutionMode.ACTIVEPY
        )
        assert compiled.copies_eliminated == len(program) - 1

    def test_cython_keeps_copies(self, config, machine):
        program = make_toy_program()
        plan = make_plan(program, [HOST, HOST, HOST], config)
        compiled = CodeGenerator(config).generate(
            machine, program, plan, ExecutionMode.CYTHON
        )
        assert compiled.copies_eliminated == 0

    def test_interpreted_code_cannot_ship_to_csd(self, config, machine):
        program = make_toy_program()
        plan = make_plan(program, [CSD, HOST, HOST], config)
        with pytest.raises(CodegenError):
            CodeGenerator(config).generate(
                machine, program, plan, ExecutionMode.PYTHON
            )

    def test_plan_program_length_mismatch(self, config, machine):
        program = make_toy_program()
        plan = make_plan(program, [HOST, HOST, HOST], config)
        short = Plan(assignments=[HOST], t_host=1.0, t_csd=1.0,
                     estimates=plan.estimates[:1])
        with pytest.raises(CodegenError):
            CodeGenerator(config).generate(machine, program, short)

    def test_regenerate_for_host_charges_compile(self, config, machine):
        program = make_toy_program()
        plan = make_plan(program, [HOST, HOST, HOST], config)
        compiled = CodeGenerator(config).generate(machine, program, plan)
        before = machine.now
        cost = CodeGenerator(config).regenerate_for_host(machine, compiled)
        assert cost == pytest.approx(config.compile_overhead_s)
        assert machine.now == pytest.approx(before + cost)


class TestDispatch:
    def test_invoke_rings_doorbell_and_fetches(self, machine):
        dispatcher = CallQueueDispatcher(machine)
        command_id = dispatcher.invoke("scan", binary_address=0x1000)
        assert dispatcher.invocations == 1
        dispatcher.complete(command_id)
        completion = dispatcher.reap_completion(command_id)
        assert completion.status == "ok"

    def test_invoke_without_binary_rejected(self, machine):
        dispatcher = CallQueueDispatcher(machine)
        with pytest.raises(DispatchError):
            dispatcher.invoke("scan", binary_address=None)

    def test_status_updates_cost_a_message(self, machine, config):
        dispatcher = CallQueueDispatcher(machine)
        before = machine.now
        dispatcher.post_status(StatusUpdate(
            line_name="scan", chunk=1, ipc=1.0, progress=0.5,
        ))
        assert machine.now == pytest.approx(before + config.link_latency_s)
        assert dispatcher.status_updates == 1

    def test_drain_returns_updates_and_preserves_completions(self, machine):
        dispatcher = CallQueueDispatcher(machine)
        command_id = dispatcher.invoke("scan", binary_address=0x1000)
        dispatcher.post_status(StatusUpdate("scan", 1, 1.0, 0.5))
        dispatcher.complete(command_id)
        dispatcher.post_status(StatusUpdate("scan", 2, 1.0, 1.0))
        updates = dispatcher.drain_status()
        assert [u.chunk for u in updates] == [1, 2]
        # The interleaved completion survived the drain.
        assert dispatcher.reap_completion(command_id).command_id == command_id
