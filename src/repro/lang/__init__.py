"""Program and dataset model for ActivePy.

A *program* is an ordered list of *statements*; each statement stands
for one line of Python, which the paper uses as the unit of offload
(single-entry-single-exit code region, §III-B).  A *dataset* is a named
collection of records stored on the CSD, able to produce scaled-down
sample inputs for the sampling phase (§III-A).
"""

from .builder import ProgramBuilder, dataset_of
from .checks import ValidationReport, validate_program
from .dataset import Dataset
from .program import Program, Statement, constant, linear, per_record

__all__ = [
    "Dataset",
    "Program",
    "ProgramBuilder",
    "Statement",
    "ValidationReport",
    "constant",
    "dataset_of",
    "linear",
    "per_record",
    "validate_program",
]
