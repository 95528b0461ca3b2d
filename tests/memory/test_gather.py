"""MemorySystem.gather and Bus.load_gather against per-word reads.

The closed form (flat single-bank port, no L1D, no probe) must leave
exactly the port state a loop of single-word reads leaves: the same
return value, pipe head and every ``PortStats`` counter.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import (
    MMIO_BASE,
    Bus,
    CacheConfig,
    L1Cache,
    MemoryAccessError,
    MemoryPort,
    MemorySystem,
    Ram,
)


def _per_word(mem, addrs, first, requester, spacing):
    latest = first
    for i, addr in enumerate(addrs):
        latest = max(latest, mem.read(int(addr), first + spacing * i, requester))
    return latest


def _state(port):
    return list(port._bank_free), port.counters


def _system(latency, banks, free, cached=False):
    port = MemoryPort(latency=latency, banks=banks)
    if free:
        port.issue_burst(0, free, "other")  # pipe head at *free*
    cache = L1Cache(CacheConfig(), port) if cached else None
    return MemorySystem(port, cache)


@settings(max_examples=300, deadline=None)
@given(
    latency=st.integers(1, 4),
    free=st.integers(0, 80),
    first=st.integers(0, 100),
    spacing=st.integers(1, 3),
    words=st.lists(st.integers(0, 255), max_size=64),
)
def test_closed_form_equals_per_word_reads(latency, free, first, spacing,
                                           words):
    addrs = 4 * np.array(words, dtype=np.int64)
    fast = _system(latency, 1, free)
    slow = _system(latency, 1, free)
    got = fast.gather(addrs, first, "hht", spacing=spacing)
    want = _per_word(slow, addrs, first, "hht", spacing)
    assert got == want
    assert _state(fast.port) == _state(slow.port)


@settings(max_examples=60, deadline=None)
@given(
    banks=st.sampled_from([1, 2, 4]),
    cached=st.booleans(),
    free=st.integers(0, 20),
    first=st.integers(0, 30),
    spacing=st.integers(1, 3),
    words=st.lists(st.integers(0, 255), max_size=24),
)
def test_fallback_equals_per_word_reads(banks, cached, free, first, spacing,
                                        words):
    """Banked and cached systems take the per-word path, in order."""
    addrs = 4 * np.array(words, dtype=np.int64)
    fast = _system(2, banks, free, cached)
    slow = _system(2, banks, free, cached)
    got = fast.gather(addrs, first, "hht", spacing=spacing)
    assert got == _per_word(slow, addrs, first, "hht", spacing)
    assert _state(fast.port) == _state(slow.port)


def test_probe_sink_sees_every_word():
    class Sink:
        def __init__(self):
            self.events = []

        def port_issue(self, *event):
            self.events.append(event)

    mem = _system(2, 1, 0)
    mem.port.probe_sink = sink = Sink()
    mem.gather(np.arange(0, 20, 4), 10, "hht", spacing=2)
    assert [e[2] for e in sink.events] == [10, 12, 14, 16, 18]
    assert all(e[3] == 1 for e in sink.events)


def test_empty_gather_returns_first():
    mem = _system(2, 1, 5)
    assert mem.gather(np.empty(0, np.int64), 3, "hht") == 3
    assert mem.port.counters.requests == 5


class _Device:
    def read_word(self, offset, cycle):
        return 0xABC0 + offset, cycle + 7

    def write_word(self, offset, value, cycle):  # pragma: no cover
        return cycle + 1

    def read_burst(self, offset, count, cycle):  # pragma: no cover
        raise AssertionError


def _bus():
    ram = Ram(4096)
    ram.write_array(0, np.arange(1024, dtype=np.uint32) * 3)
    bus = Bus(ram, MemoryPort(latency=2))
    bus.attach_device(MMIO_BASE, 0x100, _Device())
    return bus


def _load_words(bus, addrs, cycle):
    latest, values = cycle, []
    for i, addr in enumerate(addrs):
        value, done = bus.load_word(int(addr), cycle + i)
        values.append(value)
        latest = max(latest, done)
    return values, latest


@pytest.mark.parametrize("addrs", [
    [0, 40, 8, 4092],           # all RAM: one MemorySystem.gather
    [0, MMIO_BASE + 8, 12],     # an MMIO word: loads one by one
    [],
])
def test_load_gather_equals_word_loads(addrs):
    addrs = np.array(addrs, dtype=np.int64)
    fast, slow = _bus(), _bus()
    values, latest = fast.load_gather(addrs, 5)
    want_values, want_latest = _load_words(slow, addrs, 5)
    assert values.tolist() == want_values
    assert latest == want_latest
    assert _state(fast.port) == _state(slow.port)


@pytest.mark.parametrize("bad", [4096, 6])
def test_load_gather_faults_like_word_loads(bad):
    addrs = np.array([0, 4, bad, 8], dtype=np.int64)
    fast, slow = _bus(), _bus()
    with pytest.raises(MemoryAccessError) as got:
        fast.load_gather(addrs, 0)
    with pytest.raises(MemoryAccessError) as want:
        _load_words(slow, addrs, 0)
    assert str(got.value) == str(want.value)
    assert _state(fast.port) == _state(slow.port)
