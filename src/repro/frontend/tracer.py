"""Turning plain Python functions into ActivePy programs.

:func:`program_from_function` accepts an ordinary function whose
parameters name the dataset's payload arrays and whose body is
straight-line code (the vectorised style every workload in the paper's
evaluation uses)::

    def pipeline(prices, volumes):
        scaled = prices * 1.02
        kept = scaled[volumes > 100.0]
        return float(kept.sum())

Each top-level statement becomes one ActivePy line.  Kernels execute
the real source against a flowing namespace dict; liveness analysis
trims each line's output to the variables later lines still read, so
measured inter-line volumes are tight.  Cost models come from the code
itself: operation counts weigh instruction density, parameter reads
attribute storage streaming, and an optional probe payload measures
per-record output volumes empirically (linear scaling, the paper's
default assumption).
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from ..errors import ReproError
from ..lang.program import Program, Statement, constant
from ..runtime.profcache import FINGERPRINT_ATTR
from .liveness import live_after_each, names_read

#: Default instructions charged per AST operation per record.
_INSTR_PER_OP = 12.0
#: Fallback per-record output bytes per live variable (no probe given).
_BYTES_PER_LIVE_VAR = 8.0

_RESULT_NAME = "__result__"

#: AST node types that count as one "operation" for instruction density.
_OP_NODES = (
    ast.BinOp, ast.UnaryOp, ast.BoolOp, ast.Compare,
    ast.Call, ast.Subscript, ast.Attribute, ast.IfExp,
)

_DISALLOWED_NODES = (
    ast.For, ast.While, ast.If, ast.With, ast.Try,
    ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
)


class FrontendError(ReproError):
    """The function cannot be lowered to a line program."""


def _function_def(fn: Callable) -> ast.FunctionDef:
    try:
        source = textwrap.dedent(inspect.getsource(fn))
    except (OSError, TypeError) as exc:
        raise FrontendError(f"cannot read source of {fn!r}: {exc}") from exc
    module = ast.parse(source)
    for node in module.body:
        if isinstance(node, ast.FunctionDef):
            return node
    raise FrontendError(f"no function definition found in source of {fn!r}")


def _validate_body(body: Sequence[ast.stmt], fn_name: str) -> None:
    if not body:
        raise FrontendError(f"{fn_name} has an empty body")
    for statement in body:
        if isinstance(statement, _DISALLOWED_NODES):
            raise FrontendError(
                f"{fn_name} line {statement.lineno}: top-level "
                f"{type(statement).__name__} is not supported — fold loops "
                f"and branches into vectorised expressions (the style the "
                f"paper's workloads use)"
            )
    if not isinstance(body[-1], ast.Return) or body[-1].value is None:
        raise FrontendError(f"{fn_name} must end with 'return <expression>'")
    for statement in body[:-1]:
        if isinstance(statement, ast.Return):
            raise FrontendError(
                f"{fn_name} line {statement.lineno}: early return is not "
                f"supported in a straight-line program"
            )


def _statement_name(statement: ast.stmt, index: int) -> str:
    if isinstance(statement, ast.Assign) and statement.targets:
        target = statement.targets[0]
        if isinstance(target, ast.Name):
            return f"L{index}_{target.id}"
    if isinstance(statement, ast.Return):
        return f"L{index}_return"
    return f"L{index}_stmt"


def _op_count(statement: ast.stmt) -> int:
    return sum(1 for node in ast.walk(statement) if isinstance(node, _OP_NODES))


def _compile_line(statement: ast.stmt, filename: str):
    """Compile one body statement; returns the code object to exec."""
    if isinstance(statement, ast.Return):
        assert statement.value is not None
        lowered: ast.stmt = ast.Assign(
            targets=[ast.Name(id=_RESULT_NAME, ctx=ast.Store())],
            value=statement.value,
        )
        ast.copy_location(lowered, statement)
    else:
        lowered = statement
    module = ast.Module(body=[lowered], type_ignores=[])
    ast.fix_missing_locations(module)
    return compile(module, filename=filename, mode="exec")


_STORED_KEY = "__stored__"


def _make_kernel(
    code, fn: Callable, index: int, keep: Set[str], unread_params: Set[str],
):
    """Line ``index`` of ``fn`` (compiled: ``code``) as a kernel over the
    flowing namespace.

    Parameters the program has not read yet are threaded through under
    ``__stored__``: they are still on flash, so the profiler must not
    count them as this line's in-memory output (their bytes are charged
    as storage streaming at their first reader instead).  The profile
    cache cannot fingerprint the code object and module globals the
    kernel closes over, so it declares the function, line and names.
    """

    def kernel(payload: Dict[str, Any]) -> Dict[str, Any]:
        namespace = dict(payload)
        stored = namespace.pop(_STORED_KEY, {})
        namespace.update(stored)
        exec(code, fn.__globals__, namespace)  # the actual user line
        out = {name: namespace[name] for name in keep if name in namespace}
        still_stored = {
            name: namespace[name]
            for name in unread_params if name in namespace
        }
        if still_stored:
            out[_STORED_KEY] = still_stored
        return out

    setattr(kernel, FINGERPRINT_ATTR, {
        "function": fn, "line": index,
        "keep": sorted(keep), "unread": sorted(unread_params),
    })
    return kernel


def program_from_function(
    fn: Callable,
    record_bytes: float,
    probe_payload: Optional[Dict[str, Any]] = None,
    instr_per_op: float = _INSTR_PER_OP,
    instr_hints: Optional[Dict[str, float]] = None,
    column_bytes: Optional[Dict[str, float]] = None,
    name: Optional[str] = None,
) -> Program:
    """Lower an unannotated Python function to an ActivePy program.

    Parameters
    ----------
    fn:
        Straight-line function; its parameters name the dataset's
        payload arrays.
    record_bytes:
        Stored bytes per record, attributed to the lines that first
        read each parameter (override the per-parameter split with
        ``column_bytes``).
    probe_payload:
        Optional small real payload; when given, per-line output
        volumes are *measured* by running the kernels on it and scaled
        linearly, instead of the live-variable-count heuristic.
    instr_per_op / instr_hints:
        Instruction-density model: each AST operation costs
        ``instr_per_op`` per record, unless ``instr_hints`` pins a
        line's density by its generated name (e.g. ``"L0_scaled"``).
    """
    if record_bytes <= 0:
        raise FrontendError(f"record_bytes must be positive, got {record_bytes}")
    definition = _function_def(fn)
    fn_name = name if name is not None else definition.name
    params = [argument.arg for argument in definition.args.args]
    if not params:
        raise FrontendError(f"{fn_name} needs at least one parameter")
    body = list(definition.body)
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        body = body[1:]  # the docstring is not a program line
    _validate_body(body, fn_name)
    live_sets = live_after_each(body)
    hints = instr_hints or {}

    shares = _storage_shares(params, record_bytes, column_bytes)
    first_reader: Dict[str, int] = {}
    for index, statement in enumerate(body):
        for parameter in names_read(statement) & set(params):
            first_reader.setdefault(parameter, index)

    statements: List[Statement] = []
    read_so_far: Set[str] = set()
    for index, statement in enumerate(body):
        is_last = index == len(body) - 1
        read_so_far |= names_read(statement) & set(params)
        unread = set(params) - read_so_far
        keep = (
            set(live_sets[index]) - unread
        ) | ({_RESULT_NAME} if is_last else set())
        code = _compile_line(statement, filename=f"<{fn_name}:L{index}>")
        kernel = _make_kernel(code, fn, index, keep, unread)
        stmt_name = _statement_name(statement, index)
        density = hints.get(stmt_name, instr_per_op * max(1, _op_count(statement)))
        storage_per_record = sum(
            shares[parameter]
            for parameter, reader in first_reader.items()
            if reader == index
        )
        out_per_record = _BYTES_PER_LIVE_VAR * max(1, len(keep))
        chunks = 64 if storage_per_record > 0 else 32
        statements.append(Statement(
            name=stmt_name,
            kernel=kernel,
            instructions=lambda n, d=density: d * n,
            output_bytes=(
                constant(24.0) if is_last
                else (lambda n, o=out_per_record: o * n)
            ),
            storage_bytes=lambda n, s=storage_per_record: s * n,
            chunks=chunks,
            live_vars=tuple(sorted(live_sets[index])),
        ))

    program = Program(fn_name, statements)
    if probe_payload is not None:
        _calibrate_outputs_from_probe(program, probe_payload)
    return program


def _storage_shares(
    params: Sequence[str],
    record_bytes: float,
    column_bytes: Optional[Dict[str, float]],
) -> Dict[str, float]:
    if column_bytes is None:
        return {parameter: record_bytes / len(params) for parameter in params}
    unknown = set(column_bytes) - set(params)
    if unknown:
        raise FrontendError(f"column_bytes names unknown parameters: {sorted(unknown)}")
    total = sum(column_bytes.get(parameter, 0.0) for parameter in params)
    if abs(total - record_bytes) > 0.01 * record_bytes:
        raise FrontendError(
            f"column_bytes sum to {total}, but record_bytes is {record_bytes}"
        )
    return {parameter: column_bytes.get(parameter, 0.0) for parameter in params}


def _calibrate_outputs_from_probe(program: Program, probe: Dict[str, Any]) -> None:
    """Replace heuristic output laws with measured per-record rates."""
    from ..runtime.profiler import payload_nbytes

    n = _probe_records(probe)
    payload = dict(probe)
    for index, statement in enumerate(program.statements):
        payload = statement.kernel(payload)
        measured = payload_nbytes(payload)
        is_last = index == len(program.statements) - 1
        if is_last:
            statement.output_bytes = constant(float(measured))
        else:
            rate = measured / n
            statement.output_bytes = lambda count, r=rate: r * count


def _probe_records(probe: Dict[str, Any]) -> int:
    import numpy as np

    sizes = {
        np.asarray(value).shape[0]
        for value in probe.values()
        if np.asarray(value).ndim >= 1
    }
    if not sizes:
        raise FrontendError("probe payload needs at least one array")
    return max(sizes)
