"""Single shared address space spanning host and device memory."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import AddressError
from .allocator import FreeListAllocator


@dataclass
class MemoryRegion:
    """A contiguous window of the shared address space.

    ``location`` names the physical home of the bytes (``"host"`` or a
    device name such as ``"csd"``); the near-consumer placement policy
    keys on it.
    """

    name: str
    base: int
    size: int
    location: str
    allocator: FreeListAllocator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise AddressError(f"region {self.name!r} needs positive size")
        if self.base < 0:
            raise AddressError(f"region {self.name!r} needs non-negative base")
        self.allocator = FreeListAllocator(self.base, self.size)

    @property
    def end(self) -> int:
        return self.base + self.size


class SharedAddressSpace:
    """Registry of non-overlapping regions of one flat space.

    The host program sees one flat space; each region's ``location``
    names the physical home of its bytes (an access to a remote region
    crosses the interconnect).
    """

    def __init__(self) -> None:
        self._regions: list[MemoryRegion] = []

    @property
    def regions(self) -> tuple[MemoryRegion, ...]:
        return tuple(self._regions)

    def map_region(self, name: str, size: int, location: str) -> MemoryRegion:
        """Map a new region after all existing ones.

        Regions are packed contiguously; the next base is the previous
        region's end, so the space never overlaps by construction.
        """
        if any(region.name == name for region in self._regions):
            raise AddressError(f"region name {name!r} already mapped")
        base = self._regions[-1].end if self._regions else 0
        region = MemoryRegion(name=name, base=base, size=size, location=location)
        self._regions.append(region)
        return region

    def region_named(self, name: str) -> MemoryRegion:
        for region in self._regions:
            if region.name == name:
                return region
        raise AddressError(f"no region named {name!r}")
