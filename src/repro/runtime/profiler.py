"""Line profiler: the measurement apparatus of the sampling phase.

The paper implements this with ``line_profiler``/``kernprof``: run the
program on a sample input and record, for every line, the execution
time (with stored-data access time separated out), the input size, and
the output size (§III-A).

This module is the *only* place where the runtime touches a
statement's ground-truth cost model, and only ever at **sample scale**
— it plays the role of the stopwatch.  Output sizes are not taken from
the cost model at all: the profiler executes the real kernel on the
real sample payload and measures the bytes that come out.  Everything
downstream (fitting, planning) consumes :class:`LineRecord` objects,
which is the firewall that keeps ActivePy honest: it can only be as
good as what a profiler could really observe.

Times are normalised to compiled-kernel time.  The real system samples
under the interpreter and rescales by its own known overhead factors
before comparing against generated code; folding that constant in here
keeps every downstream ratio identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from ..config import SystemConfig
from ..errors import SamplingError
from ..lang.dataset import Dataset
from ..lang.program import Program


def payload_nbytes(payload: Dict[str, Any]) -> float:
    """Measured size in bytes of a payload dict (arrays and scalars).

    Keys starting with ``__stored`` are skipped: they stand for data
    still resident on flash (the plain-Python frontend threads
    not-yet-read parameters through under that convention), which a
    line profiler would not see as in-memory traffic.
    """
    total = 0.0
    for key, value in payload.items():
        if isinstance(key, str) and key.startswith("__stored"):
            continue
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, (int, float, np.integer, np.floating)):
            total += 8.0
        elif isinstance(value, (list, tuple)):
            total += 8.0 * len(value)
        elif isinstance(value, dict):
            total += payload_nbytes(value)
        else:
            total += 8.0  # opaque object header
    return total


@dataclass(frozen=True, slots=True)
class LineRecord:
    """What the profiler observed for one line on one sample run."""

    index: int
    name: str
    n_records: int
    #: Kernel execution time, stored-data access excluded.
    compute_seconds: float
    #: Time spent reading stored data (separated per paper §III-A).
    data_access_seconds: float
    #: Measured bytes flowing in from the previous line.
    input_bytes: float
    #: Measured bytes this line passed to the next line.
    output_bytes: float
    #: Bytes streamed from storage by this line.
    storage_bytes: float


class LineProfiler:
    """Runs a program on a (sample) dataset and records per-line stats.

    When ``config.profiler_noise`` is nonzero, every timed quantity is
    perturbed by a deterministic, seeded multiplicative jitter — the
    measurement error a real ``line_profiler`` run exhibits.  Byte
    counts are exact (the profiler can count them), times are not.
    """

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        # Built on the first draw: a noise-free profiler never needs it.
        self._noise_rng: Optional[np.random.Generator] = None

    def _jitter(self) -> float:
        if self.config.profiler_noise <= 0:
            return 1.0
        if self._noise_rng is None:
            self._noise_rng = np.random.default_rng(self.config.profiler_noise_seed)
        factor = 1.0 + self._noise_rng.normal(0.0, self.config.profiler_noise)
        return max(0.1, factor)

    def profile(self, program: Program, dataset: Dataset) -> List[LineRecord]:
        """Execute every line on the dataset's real payload; observe.

        Returns one :class:`LineRecord` per line.  Raises
        :class:`~repro.errors.SamplingError` if a kernel fails — a
        sample input that crashes the program cannot guide planning.
        """
        n = dataset.n_records
        payload = dataset.payload
        records: List[LineRecord] = []
        previous_output = 0.0
        for index, statement in enumerate(program):
            try:
                payload = statement.kernel(payload)
            except Exception as exc:
                raise SamplingError(
                    f"kernel {statement.name!r} failed on a {n}-record sample: {exc}"
                ) from exc
            if not isinstance(payload, dict):
                raise SamplingError(
                    f"kernel {statement.name!r} returned "
                    f"{type(payload).__name__}, expected a payload dict"
                )
            measured_output = payload_nbytes(payload)
            storage = statement.storage_bytes(n)
            compute = statement.instructions(n) / self.config.host_ips * self._jitter()
            data_access = storage / self.config.bw_host_storage * self._jitter()
            records.append(
                LineRecord(
                    index=index,
                    name=statement.name,
                    n_records=n,
                    compute_seconds=compute,
                    data_access_seconds=data_access,
                    input_bytes=previous_output,
                    output_bytes=measured_output,
                    storage_bytes=storage,
                )
            )
            previous_output = measured_output
        return records

    def run_seconds(self, records: List[LineRecord]) -> float:
        """Wall time one profiled run took (compute + data access)."""
        return sum(r.compute_seconds + r.data_access_seconds for r in records)
