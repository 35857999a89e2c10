"""Shared host/CSD memory abstraction.

ActivePy runs host and CSD code in a single address space (paper
§III-C0a): device DRAM is exposed through PCIe BARs and mapped into the
program's virtual memory, so both sides access data with plain
load/store semantics.  This package provides the address space and a
first-fit free-list allocator; the codegen mode model carries the
paper's copy elimination.
"""

from .address_space import MemoryRegion, SharedAddressSpace
from .allocator import Allocation, FreeListAllocator

__all__ = [
    "MemoryRegion",
    "SharedAddressSpace",
    "Allocation",
    "FreeListAllocator",
]
