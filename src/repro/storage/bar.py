"""PCIe BAR window: device memory exposed into the host address space.

CSDs supporting ActivePy declare part of their DRAM in a PCIe base
address register so the OS can map it into any program's virtual memory
(paper §III-C0a).  The same window carries generated CSD binaries: the
host "emits the generated CSD binary into the target device memory
location without additional commands or protocols" (§III-C0d).
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from ..errors import StorageError
from ..memory.address_space import MemoryRegion, SharedAddressSpace

#: Bytes reserved per checkpoint slot in the BAR window.
CHECKPOINT_SLOT_BYTES = 4096

#: Pattern XOR-ed over the unwritten tail of a torn checkpoint record —
#: the DMA scribble a power event leaves behind.
_TORN_SCRAMBLE = 0xA5

#: Pattern XOR-ed over the tail of a *committed* record by silent
#: bitrot — retention loss in device DRAM, after the CRC was written.
_BITROT_SCRAMBLE = 0x3C

#: Bytes at the end of a record image the bitrot flips: enough to cover
#: the cursor and the stored CRC, so a rotted record decodes (the header
#: is intact) but carries a garbage resume point.
_BITROT_TAIL_BYTES = 12


class CheckpointArea:
    """Two checkpoint slots in device DRAM, reachable through the BAR.

    The runtime's checkpoint protocol (:mod:`repro.runtime.checkpoint`)
    alternates writes between the slots so the last *committed* record
    survives any single torn write.  The area itself is deliberately
    dumb — it stores whatever bytes it is handed — because the torn
    write is a *memory* fault: the device loses power or the engine is
    reset mid-DMA, the head of the record lands, and the tail is left
    scrambled.  CRC validation on the read side is the runtime's job.

    The area lives in device DRAM, not engine state: it survives a CSE
    crash and firmware reset, which is exactly why a resume point kept
    here is recoverable when the engine's own state is not.
    """

    def __init__(self, device_name: str, region: MemoryRegion) -> None:
        self.device_name = device_name
        self.slot_addresses = tuple(
            region.allocator.allocate(CHECKPOINT_SLOT_BYTES).address
            for _ in range(2)
        )
        #: Each slot's record image, or the encoder of one not yet read.
        self._slots: list[Union[None, bytes, Callable[[], bytes]]] = [None, None]
        #: Device-side monotone record version; survives runs on the
        #: same machine so stale records are never mistaken for new.
        self.next_generation = 0
        self.writes = 0
        self.torn_writes = 0
        self._torn_armed = 0
        self.bitrot_events = 0

    # --- fault injection ---------------------------------------------------

    def arm_torn_write(self, count: int = 1) -> None:
        """The next ``count`` checkpoint writes are torn mid-DMA."""
        if count < 1:
            raise StorageError(f"torn-write count must be >= 1, got {count}")
        self._torn_armed += count

    @property
    def torn_write_armed(self) -> bool:
        return self._torn_armed > 0

    def rot_committed(self, count: int = 1) -> int:
        """Decay up to ``count`` committed records, newest first.

        Models retention loss in device DRAM: the record was written
        cleanly — CRC and all — and the bits flipped *afterwards*.  The
        tail (cursor + stored CRC) is scrambled, so CRC validation on
        the read side rejects the record; a runtime configured to skip
        validation trusts the garbage cursor verbatim.  Returns how
        many records actually decayed (0 when the area is empty).
        """
        if count < 1:
            raise StorageError(f"bitrot count must be >= 1, got {count}")
        newest = (self.next_generation - 1) % 2
        rotted = 0
        for slot in (newest, 1 - newest):
            if rotted >= count:
                break
            blob = self.read(slot)
            if not blob:
                continue
            keep = max(0, len(blob) - _BITROT_TAIL_BYTES)
            self._slots[slot] = blob[:keep] + bytes(
                b ^ _BITROT_SCRAMBLE for b in blob[keep:]
            )
            self.bitrot_events += 1
            rotted += 1
        return rotted

    # --- slot access --------------------------------------------------------

    def write(self, slot: int, payload: bytes, tear_offset: int) -> bool:
        """Store a record image into ``slot``.

        Returns True for a clean write.  If a torn-write fault is
        armed, only the first ``tear_offset`` bytes land; the rest of
        the record image is scrambled, and False is returned (callers
        use it only for accounting — the *runtime* never sees this
        flag, it must discover the tear through CRC validation).
        """
        self._check_write(slot, len(payload))
        self.writes += 1
        if self._torn_armed > 0:
            self._torn_armed -= 1
            self.torn_writes += 1
            tear = max(0, min(int(tear_offset), len(payload)))
            scrambled = bytes(b ^ _TORN_SCRAMBLE for b in payload[tear:])
            self._slots[slot] = payload[:tear] + scrambled
            return False
        self._slots[slot] = payload
        return True

    def write_deferred(
        self, slot: int, encode: Callable[[], bytes], size: int, tear_offset: int
    ) -> bool:
        """:meth:`write` of the ``size``-byte image ``encode()`` returns.

        Most records are overwritten unread two writes later, so the
        image is encoded only when something needs its bytes: a read,
        bitrot, or a torn write (which lands part of it now).
        """
        if self._torn_armed > 0:
            return self.write(slot, encode(), tear_offset)
        self._check_write(slot, size)
        self.writes += 1
        self._slots[slot] = encode
        return True

    @staticmethod
    def _check_write(slot: int, size: int) -> None:
        if slot not in (0, 1):
            raise StorageError(f"checkpoint slot must be 0 or 1, got {slot}")
        if size > CHECKPOINT_SLOT_BYTES:
            raise StorageError(
                f"checkpoint record of {size} bytes exceeds the "
                f"{CHECKPOINT_SLOT_BYTES}-byte slot"
            )

    def read(self, slot: int) -> Optional[bytes]:
        if slot not in (0, 1):
            raise StorageError(f"checkpoint slot must be 0 or 1, got {slot}")
        blob = self._slots[slot]
        if callable(blob):
            blob = self._slots[slot] = blob()
        return blob


class BarWindow:
    """A mapped view of device DRAM inside the shared address space."""

    def __init__(
        self,
        device_name: str,
        size: int,
        space: SharedAddressSpace,
    ) -> None:
        if size <= 0:
            raise StorageError(f"BAR window for {device_name!r} needs positive size")
        self.device_name = device_name
        self.region: MemoryRegion = space.map_region(
            name=f"{device_name}.bar", size=size, location=device_name
        )
        self._binaries: dict[str, int] = {}
        self.bytes_written = 0
        #: Double-buffered line-boundary resume records (paper §III-D:
        #: migration resumes "at a Python-line boundary from shared
        #: memory"); see :mod:`repro.runtime.checkpoint`.
        self.checkpoints = CheckpointArea(device_name, self.region)

    @property
    def base(self) -> int:
        return self.region.base

    @property
    def size(self) -> int:
        return self.region.size

    def install_binary(self, name: str, nbytes: int) -> int:
        """Copy a generated binary into device memory via the window.

        Returns the device address the binary landed at.  Reinstalling
        under the same name replaces the old image (code regeneration
        after migration does this).
        """
        if nbytes <= 0:
            raise StorageError(f"binary {name!r} must have positive size")
        old_address = self._binaries.get(name)
        if old_address is not None:
            del self._binaries[name]
        allocation = self.region.allocator.allocate(int(nbytes))
        self._binaries[name] = allocation.address
        self.bytes_written += nbytes
        return allocation.address

    def binary_address(self, name: str) -> Optional[int]:
        """Device address of an installed binary, or None."""
        return self._binaries.get(name)

    @property
    def installed_binaries(self) -> tuple[str, ...]:
        return tuple(self._binaries)
