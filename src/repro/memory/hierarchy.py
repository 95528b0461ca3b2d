"""Memory-system timing front door: flat SRAM or L1D-cached.

Both the CPU's bus and the HHT back-end engines charge their memory
timing through one :class:`MemorySystem`.  With ``cache=None`` (the
Table-1 MCU) every access is a port issue; with an L1D configured (the
Section 3.2 high-performance integration) reads go through the cache —
for the CPU *and* the HHT ("HHT will access the cache for fetching
sparse data") — and writes are written through.
"""

from __future__ import annotations

from ..component import SimComponent
from .cache import L1Cache
from .port import MemoryPort


class MemorySystem(SimComponent):
    """Address-aware timing facade over the port and the optional L1D.

    As a component the facade is *transparent* (empty name): the port
    and cache appear in the registry under their own names
    (``...ram.*`` / ``...l1d.*``) with no extra path segment.
    """

    def __init__(self, port: MemoryPort, cache: L1Cache | None = None):
        super().__init__("")
        self.port = port
        self.cache = cache
        self.add_child(port)
        if cache is not None:
            self.add_child(cache)

    @property
    def closed_form(self) -> bool:
        """True when a run of reads has closed-form slots: every read is
        one issue on a flat single-bank port that no probe observes."""
        port = self.port
        return (self.cache is None and port.banks == 1
                and port.probe_sink is None)

    # ------------------------------------------------------------------
    def read(self, addr: int, cycle: int, requester: str) -> int:
        """One word read; returns the completion cycle."""
        if self.cache is None:
            return self.port.issue(cycle, requester, addr)
        return self.cache.read(addr, cycle, requester)

    def gather(self, addrs, first: int, requester: str,
               spacing: int = 1) -> int:
        """Read one word per address, word ``i`` presented at
        ``first + spacing * i`` (``spacing >= 1``); return the latest
        completion, or *first* when *addrs* is empty.

        When :attr:`closed_form` holds, word ``i`` issues at
        ``max(first + spacing*i, free + i)``, so only the word count
        matters.  Otherwise (banked port, L1D, or a probe that must see
        every issue) it is a per-word :meth:`read` loop, word 0 first.
        """
        if self.closed_form:
            port = self.port
            n = len(addrs)
            if n == 0:
                return first
            lag = port.next_free_slot - first
            if lag <= 0:
                waited = 0
            elif spacing == 1:
                waited = lag * n
            else:
                # Word i waits lag - (spacing-1)*i while that is positive.
                m = min(n, (lag + spacing - 2) // (spacing - 1))
                waited = m * lag - (spacing - 1) * m * (m - 1) // 2
            last = first + spacing * (n - 1)
            if lag > (spacing - 1) * (n - 1):  # the last word queued
                last = first + lag + n - 1
            port.claim(last + 1, n, waited, requester)
            return last + port.latency
        read = self.read
        latest = t = first
        for addr in addrs:
            done = read(int(addr), t, requester)
            if done > latest:
                latest = done
            t += spacing
        return latest

    def write(self, addr: int, cycle: int, requester: str) -> int:
        """One word write (write-through when cached)."""
        if self.cache is None:
            return self.port.issue(cycle, requester, addr)
        return self.cache.write(addr, cycle, requester)

    def read_seq(
        self, addr: int, words: int, cycle: int, requester: str,
        *, words_per_slot: int = 1,
    ) -> int:
        """Sequential read of *words* 32-bit words starting at *addr*.

        Uncached: a pipelined burst (optionally wide — the HHT's
        memory-side interface).  Cached: one cache access per line the
        range touches, issued back to back; the line fills themselves
        serialise on the memory port.
        """
        if words <= 0:
            return cycle
        if self.cache is None:
            slots = (words + words_per_slot - 1) // words_per_slot
            return self.port.issue_burst(
                cycle, slots, requester, addr=addr,
                stride_words=words_per_slot,
            )
        line = self.cache.config.line_bytes
        first = addr - (addr % line)
        last = addr + 4 * words - 1
        completion = cycle
        t = cycle
        while first <= last:
            completion = max(completion, self.cache.read(first, t, requester))
            t += 1  # one lookup per cycle
            first += line
        return completion

    def write_seq(self, addr: int, words: int, cycle: int, requester: str) -> int:
        """Sequential write of *words* words (write-through when cached)."""
        if words <= 0:
            return cycle
        if self.cache is None:
            return self.port.issue_burst(cycle, words, requester, addr=addr)
        completion = cycle
        for i in range(words):
            completion = self.cache.write(addr + 4 * i, cycle + i, requester)
        return completion
