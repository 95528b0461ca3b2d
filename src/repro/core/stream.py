"""CPU-side buffered FIFO streams of the HHT front-end.

Section 3.1: the FE offers a *streaming FIFO interface* — software always
loads from a fixed buffer address; the FE tracks which buffer is being
drained and switches to the next ready buffer; a load that finds no ready
buffer stalls the CPU.

Each back-end fill is staged as one ``(ready_at_cycle, value_bits)``
group: a ``uint32`` array whose elements all become ready together.  A
fill occupies ``ceil(n / buffer_elems)`` buffer slots, and a slot is only
recycled when the CPU has drained every element in it.  The back-end may
run ahead only while a slot is free — with N=1 this forces strict
fill/drain alternation; N=2 gives the paper's double-buffering.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np


class StreamUnderflow(Exception):
    """CPU read past the end of what the back-end will ever produce."""


@dataclass
class StreamStats:
    elements_supplied: int = 0
    reads: int = 0
    cpu_wait_cycles: int = 0


class BufferedStream:
    """One FIFO stream (VVAL, MVAL or COUNT) with buffer-slot accounting."""

    def __init__(self, name: str, n_buffers: int, buffer_elems: int):
        if n_buffers < 1 or buffer_elems < 1:
            raise ValueError("n_buffers and buffer_elems must be >= 1")
        self.name = name
        self.n_buffers = n_buffers
        self.buffer_elems = buffer_elems
        # Staged fills, oldest first: [ready_at, values, consumed].
        self._groups: deque[list] = deque()
        self._unconsumed = 0
        self._occupied = 0
        self.stats = StreamStats()

    @property
    def unconsumed(self) -> int:
        return self._unconsumed

    @property
    def occupied_slots(self) -> int:
        return self._occupied

    @property
    def has_room(self) -> bool:
        return self._occupied < self.n_buffers

    def push(self, ready_at: int, value_bits: int) -> None:
        """Stage a single element as its own buffer slot (COUNT stream)."""
        self._groups.append(
            [ready_at, np.array((value_bits,), dtype=np.uint32), 0]
        )
        self._unconsumed += 1
        self._occupied += 1

    def push_group(self, ready_at: int, values) -> None:
        """Stage one back-end fill; it occupies ceil(n/BLEN) buffer slots.

        A fill larger than one buffer (a long variant-1 row) transiently
        overshoots N — the gate then stays closed until the CPU drains the
        extra slots, which is how the model throttles the back-end.
        """
        values = np.asarray(values, dtype=np.uint32)
        n = len(values)
        if n == 0:
            return
        self._groups.append([ready_at, values, 0])
        self._unconsumed += n
        self._occupied += -(-n // self.buffer_elems)

    def pop_available(self, count: int) -> tuple[list[np.ndarray], int | None]:
        """Pop up to *count* staged elements (ready or not), oldest first.

        Returns the popped elements as a list of array slices, one per
        fill they came from, and the latest ``ready_at`` among those
        fills (``([], None)`` when nothing is staged).  A buffer slot is
        recycled once its last element is consumed: a fill's first
        ``consumed // BLEN`` slots are drained, all of them once the
        fill is.
        """
        groups = self._groups
        blen = self.buffer_elems
        out: list[np.ndarray] = []
        latest = None
        popped = 0
        while popped < count and groups:
            group = groups[0]
            ready, values, done = group
            n = len(values)
            end = done + count - popped
            if end >= n:
                end = n
                groups.popleft()
                self._occupied -= -(-n // blen) - done // blen
            else:
                group[2] = end
                self._occupied -= end // blen - done // blen
            out.append(values[done:end])
            popped += end - done
            if latest is None or ready > latest:
                latest = ready
        self._unconsumed -= popped
        return out, latest
