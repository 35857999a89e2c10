"""NVMe-style submission/completion queue pairs.

ActivePy invokes CSD functions the way NVMe invokes commands (paper
§III-C0b): the host writes a request into a submission queue mapped in
device memory, rings a doorbell, and the CSE pulls requests whenever it
is free; results and per-line status updates flow back through the
completion queue.  These are bounded ring buffers with explicit
head/tail indices, as in the NVMe specification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..errors import DispatchError


@dataclass(slots=True)
class Command:
    """A queued request (CSD function call or control message)."""

    opcode: str
    payload: Any = None
    command_id: int = 0


@dataclass(slots=True)
class Completion:
    """A completion entry, matched to a command by id."""

    command_id: int
    status: str = "ok"
    payload: Any = None


class _Ring:
    """Bounded ring buffer with NVMe-style head/tail semantics."""

    def __init__(self, name: str, depth: int) -> None:
        if depth < 2:
            raise DispatchError(f"queue {name!r} depth must be >= 2, got {depth}")
        self.name = name
        self.depth = depth
        self._slots: list[Optional[Any]] = [None] * depth
        self.head = 0  # consumer index
        self.tail = 0  # producer index

    def __len__(self) -> int:
        return (self.tail - self.head) % self.depth

    @property
    def is_empty(self) -> bool:
        return self.head == self.tail

    @property
    def is_full(self) -> bool:
        # One slot is sacrificed to distinguish full from empty.
        return (self.tail + 1) % self.depth == self.head

    def push(self, item: Any) -> None:
        if self.is_full:
            raise DispatchError(f"queue {self.name!r} is full (depth {self.depth})")
        self._slots[self.tail] = item
        self.tail = (self.tail + 1) % self.depth

    def pop(self) -> Any:
        if self.is_empty:
            raise DispatchError(f"queue {self.name!r} is empty")
        item = self._slots[self.head]
        self._slots[self.head] = None
        self.head = (self.head + 1) % self.depth
        return item

    def pop_all(self) -> list[Any]:
        """Consume every queued item in one pass (order preserved)."""
        head, tail = self.head, self.tail
        if head == tail:
            return []
        if head < tail:
            items = self._slots[head:tail]
            self._slots[head:tail] = [None] * (tail - head)
        else:
            items = self._slots[head:] + self._slots[:tail]
            self._slots[head:] = [None] * (self.depth - head)
            self._slots[:tail] = [None] * tail
        self.head = tail
        return items


class SubmissionQueue:
    """Host-side producer ring for commands, with a doorbell."""

    def __init__(self, depth: int = 64, name: str = "sq") -> None:
        self._ring = _Ring(name, depth)
        self.doorbell_rings = 0
        self._next_command_id = 0

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def is_empty(self) -> bool:
        return self._ring.is_empty

    @property
    def is_full(self) -> bool:
        return self._ring.is_full

    def submit(self, opcode: str, payload: Any = None) -> int:
        """Enqueue a command and ring the doorbell; returns its id."""
        command_id = self._next_command_id
        self._next_command_id += 1
        self._ring.push(Command(opcode=opcode, payload=payload, command_id=command_id))
        self.doorbell_rings += 1
        return command_id

    def fetch(self) -> Command:
        """Device side: pull the oldest pending command."""
        return self._ring.pop()


class CompletionQueue:
    """Device-side producer ring for completions and status updates."""

    def __init__(self, depth: int = 64, name: str = "cq") -> None:
        self._ring = _Ring(name, depth)
        # Armed completion faults (fault injection).
        self._loss_armed = 0
        self._delay_armed_s = 0.0
        self.completions_lost = 0

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def is_empty(self) -> bool:
        return self._ring.is_empty

    # --- fault injection hooks -----------------------------------------

    def arm_loss(self, count: int = 1) -> None:
        """Silently drop the next ``count`` posted completions."""
        if count < 1:
            raise DispatchError(f"loss count must be at least 1, got {count}")
        self._loss_armed += count

    def arm_delay(self, extra_s: float) -> None:
        """Make the next completion visible to the host ``extra_s`` late."""
        if extra_s <= 0:
            raise DispatchError(f"delay must be positive, got {extra_s}")
        self._delay_armed_s = extra_s

    @property
    def loss_armed(self) -> bool:
        """True when the next posted entry will be swallowed."""
        return self._loss_armed > 0

    def consume_delay(self) -> float:
        """Host side: the extra wait the next reap must charge, once."""
        delay, self._delay_armed_s = self._delay_armed_s, 0.0
        return delay

    def post(self, completion: Completion) -> None:
        """Device side: publish a completion entry.

        An armed loss fault swallows the entry: the doorbell-side write
        happened (the device believes it completed) but the host never
        sees it — exactly the failure the dispatcher's deadline/retry
        machinery exists to survive.
        """
        if self._loss_armed > 0:
            self._loss_armed -= 1
            self.completions_lost += 1
            return
        self._ring.push(completion)

    def reap(self) -> Completion:
        """Host side: consume the oldest completion entry."""
        return self._ring.pop()

    def drain(self) -> list[Completion]:
        """Host side: consume every pending completion entry."""
        return self._ring.pop_all()


@dataclass
class QueuePair:
    """A bound submission/completion pair, as NVMe allocates them."""

    sq: SubmissionQueue = field(default_factory=SubmissionQueue)
    cq: CompletionQueue = field(default_factory=CompletionQueue)
    #: Absolute sim time until which the pair makes no progress
    #: (fault injection: controller firmware busy / queue stall).
    stalled_until: float = 0.0

    @classmethod
    def create(cls, depth: int = 64, name: str = "qp") -> "QueuePair":
        return cls(
            sq=SubmissionQueue(depth=depth, name=f"{name}.sq"),
            cq=CompletionQueue(depth=depth, name=f"{name}.cq"),
        )

    def stall(self, until: float) -> None:
        """Stall both rings until absolute sim time ``until``."""
        self.stalled_until = max(self.stalled_until, until)

    def stalled_at(self, now: float) -> bool:
        return now < self.stalled_until

    def clear(self) -> None:
        """Drop every in-flight entry (device reset loses them)."""
        while not self.sq.is_empty:
            self.sq.fetch()
        while not self.cq.is_empty:
            self.cq.reap()
        self.stalled_until = 0.0
