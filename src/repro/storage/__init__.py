"""Computational storage device (CSD) substrate.

This package models the device in Figure 1 of the paper: NAND flash
(its read faults; no FTL, as on a zoned drive), device DRAM, NVMe queue
pairs toward the host, PCIe BAR windows exposing device memory, and a
computational storage engine (CSE) that executes offloaded tasks near
the data.
"""

from .bar import BarWindow
from .cse import ComputationalStorageEngine
from .csd import ComputationalStorageDevice
from .nand import FlashArray
from .nvme import CompletionQueue, QueuePair, SubmissionQueue
from .tenant import BackgroundLoad

__all__ = [
    "BackgroundLoad",
    "BarWindow",
    "ComputationalStorageEngine",
    "ComputationalStorageDevice",
    "FlashArray",
    "CompletionQueue",
    "QueuePair",
    "SubmissionQueue",
]
