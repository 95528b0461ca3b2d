"""The SSR indexed-mode snapshot taken at START.

With the snapshot, an indexed stream's words are read once at START and
the timing walk reads no RAM.  Without it, every element's index and
value words are read as the element is generated.  Both must give the
same values, ready times and port traffic on every memory system, and an
index outside RAM must decline the snapshot so the fault is raised at
its element with the same message as before.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.ssr import SSR_MODE_INDEXED, SSRMMR, SSRUnit
from repro.memory import MemoryAccessError, MemoryPort, Ram
from repro.memory.cache import CacheConfig, L1Cache
from repro.memory.hierarchy import MemorySystem

IDX_BASE = 0x100
VAL_BASE = 0x800
MEMORIES = ("flat", "banked", "l1d", "probed")


class _NullSink:
    def port_issue(self, *event):
        pass


def _unit(memory, indices, *, val_base=VAL_BASE, lookahead=4,
          snapshot=True):
    ram = Ram(4096)
    ram.write_array(IDX_BASE, np.array(indices, np.int32))
    ram.write_array(VAL_BASE, np.arange(64, dtype=np.uint32) * 7 + 1)
    port = MemoryPort(banks=4 if memory == "banked" else 1)
    if memory == "probed":
        port.probe_sink = _NullSink()
    cache = L1Cache(CacheConfig(), port) if memory == "l1d" else None
    mem = MemorySystem(port, cache)
    unit = SSRUnit(ram, mem, lookahead=lookahead)
    if not snapshot:
        # The per-element reference: every word read as it is generated.
        unit._snapshot_indexed = lambda: None
    for offset, value in ((SSRMMR.IDX_BASE, IDX_BASE),
                          (SSRMMR.VAL_BASE, val_base),
                          (SSRMMR.LENGTH, len(indices)),
                          (SSRMMR.MODE, SSR_MODE_INDEXED)):
        unit.write_word(offset, value, 0)
    unit.write_word(SSRMMR.START, 1, 0)
    return unit, mem


def _run(memory, indices, pops, lookahead, snapshot):
    unit, mem = _unit(memory, indices, lookahead=lookahead, snapshot=snapshot)
    out = []
    cycle = 0
    left = len(indices)
    for count, gap in pops:
        count = min(count, left)
        if not count:
            break
        values, completion = unit.pop(0, count, cycle + gap)
        out.append((list(values), completion))
        cycle = completion
        left -= count
    return out, unit._ready, unit._gen_time, unit.counters, mem.stats()


@settings(max_examples=150, deadline=None)
@given(
    memory=st.sampled_from(MEMORIES),
    lookahead=st.integers(1, 8),
    indices=st.lists(st.integers(0, 63), min_size=1, max_size=40),
    pops=st.lists(st.tuples(st.integers(1, 8), st.integers(0, 12)),
                  max_size=20),
)
def test_snapshot_equals_per_element_reads(memory, lookahead, indices, pops):
    args = (memory, indices, pops, lookahead)
    assert _run(*args, snapshot=True) == _run(*args, snapshot=False)


@pytest.mark.parametrize("memory", MEMORIES)
def test_index_outside_ram_declines_snapshot_and_faults_at_its_element(
        memory):
    unit, mem = _unit(memory, [1, 2, 5000, 3], lookahead=1)
    assert unit._val_addrs is None
    reads = []
    read = mem.read
    mem.read = lambda addr, cycle, requester: (
        reads.append(addr) or read(addr, cycle, requester))
    with pytest.raises(MemoryAccessError) as err:
        unit.pop(0, 4, 0)
    bad = VAL_BASE + 4 * 5000
    assert str(err.value) == f"word access out of range at 0x{bad:08x}"
    # Elements 1 and 2 issued their index and value reads (element 0
    # was prefetched at START); element 3 was never generated.
    assert reads == [IDX_BASE + 4, VAL_BASE + 8, IDX_BASE + 8, bad]
    assert unit._issued == 2


def test_misaligned_value_base_declines_snapshot():
    # START prefetches element 0, which faults on its value word.
    with pytest.raises(MemoryAccessError) as err:
        _unit("flat", [0, 1], val_base=VAL_BASE + 2)
    assert str(err.value) == f"misaligned word access at 0x{VAL_BASE + 2:08x}"


def test_snapshot_taken_for_an_in_ram_stream():
    unit, _ = _unit("flat", [3, 0, 7])
    assert unit._val_addrs.tolist() == [VAL_BASE + 12, VAL_BASE, VAL_BASE + 28]
    assert unit._data == [22, 1, 50]
