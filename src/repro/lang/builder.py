"""Fluent construction of programs and datasets.

The raw :class:`~repro.lang.program.Statement` constructor takes cost
callables; for straight-line streaming programs the builder reads more
like the Python source it models::

    program = (
        ProgramBuilder("wordcount")
        .scan("count_words", count, instr_per_record=57,
              record_bytes=80, out_bytes_per_record=8)
        .reduce("total", total, instr_per_record=1)
        .build()
    )

``scan`` lines stream stored records; ``reduce`` emits a constant-size
result.
"""

from __future__ import annotations

from typing import List

from ..errors import ProgramError
from .dataset import Dataset, PayloadBuilder
from .program import Kernel, Program, Statement, constant, per_record


class ProgramBuilder:
    """Accumulates statements, then builds an immutable Program."""

    def __init__(self, name: str) -> None:
        if not name:
            raise ProgramError("program needs a non-empty name")
        self.name = name
        self._statements: List[Statement] = []

    def scan(
        self,
        name: str,
        kernel: Kernel,
        instr_per_record: float,
        record_bytes: float,
        out_bytes_per_record: float,
        chunks: int = 64,
        passes: float = 1.0,
    ) -> "ProgramBuilder":
        """A line streaming stored records (``passes`` > 1 re-reads)."""
        if record_bytes <= 0:
            raise ProgramError(f"scan {name!r} needs positive record_bytes")
        if passes < 1:
            raise ProgramError(f"scan {name!r} needs passes >= 1")
        self._statements.append(Statement(
            name=name,
            kernel=kernel,
            instructions=per_record(instr_per_record),
            output_bytes=per_record(out_bytes_per_record),
            storage_bytes=per_record(record_bytes * passes),
            chunks=chunks,
        ))
        return self

    def reduce(
        self,
        name: str,
        kernel: Kernel,
        instr_per_record: float,
        out_bytes: float = 24.0,
    ) -> "ProgramBuilder":
        """A terminal reduction producing a constant-size result."""
        self._statements.append(Statement(
            name=name,
            kernel=kernel,
            instructions=per_record(instr_per_record),
            output_bytes=constant(out_bytes),
            chunks=8,
        ))
        return self

    def build(self) -> Program:
        if not self._statements:
            raise ProgramError(f"program {self.name!r} has no lines")
        return Program(self.name, self._statements)


def dataset_of(
    name: str,
    n_records: int,
    record_bytes: float,
    builder: PayloadBuilder,
) -> Dataset:
    """Sibling convenience constructor for the common case."""
    return Dataset(
        name=name, n_records=n_records, record_bytes=record_bytes,
        builder=builder,
    )

