"""SSR indexed-mode closed form against the per-element chain.

A port with a probe sink attached takes the per-element path (every
issue is published), so the same unit run twice — bare and probed —
compares the closed form with the chain it replaces: popped values,
completions, the unit's ready times and generator clock, and the
port's pipe head and counters.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.ssr import SSR_MODE_INDEXED, SSRMMR, SSRUnit
from repro.memory import MemoryAccessError, MemoryPort, Ram

IDX_BASE = 0x100
VAL_BASE = 0x800


class _NullSink:
    def port_issue(self, *event):
        pass


def _unit(latency, lookahead, free, gen, indices, probed):
    ram = Ram(4096)
    ram.write_array(IDX_BASE, np.array(indices, np.int32))
    ram.write_array(VAL_BASE, np.arange(64, dtype=np.uint32) * 7 + 1)
    port = MemoryPort(latency=latency)
    if free:
        port.issue_burst(0, free, "cpu")
    if probed:
        port.probe_sink = _NullSink()
    unit = SSRUnit(ram, port, lookahead=lookahead)
    for offset, value in ((SSRMMR.IDX_BASE, IDX_BASE),
                          (SSRMMR.VAL_BASE, VAL_BASE),
                          (SSRMMR.LENGTH, len(indices)),
                          (SSRMMR.MODE, SSR_MODE_INDEXED)):
        unit.write_word(offset, value, 0)
    unit.write_word(SSRMMR.START, 1, gen)
    return unit, port


def _port_state(port):
    return list(port._bank_free), port.counters


def _run(latency, lookahead, free, gen, indices, pops, probed):
    unit, port = _unit(latency, lookahead, free, gen, indices, probed)
    out = []
    cycle = gen
    left = len(indices)
    for count, gap, cpu_words in pops:
        count = min(count, left)
        if not count:
            break
        cycle += gap
        # Foreign traffic between pops moves the pipe head.
        port.issue_burst(cycle, cpu_words, "cpu")
        values, completion = unit.pop(0, count, cycle)
        out.append((list(values), completion))
        cycle = completion
        left -= count
    state = (unit._ready, unit._data, unit._gen_time, unit._issued,
             unit.counters)
    return out, state, _port_state(port)


@settings(max_examples=200, deadline=None)
@given(
    latency=st.integers(1, 4),
    lookahead=st.integers(1, 8),
    free=st.integers(0, 40),
    gen=st.integers(0, 40),
    indices=st.lists(st.integers(0, 63), min_size=1, max_size=40),
    pops=st.lists(st.tuples(st.integers(1, 8), st.integers(0, 12),
                            st.integers(0, 3)), max_size=20),
)
def test_closed_form_equals_per_element_chain(latency, lookahead, free, gen,
                                              indices, pops):
    args = (latency, lookahead, free, gen, indices, pops)
    assert _run(*args, probed=False) == _run(*args, probed=True)


def test_faulting_index_raises_at_the_same_element():
    """An out-of-range index falls back to the chain, which faults at
    the exact element with the same partial port state."""

    def attempt(probed):
        unit, port = _unit(2, 1, 0, 0, [1, 2, 5000, 3], probed)
        with pytest.raises(MemoryAccessError) as err:
            unit.pop(0, 4, 0)
        return str(err.value), _port_state(port)

    assert attempt(False) == attempt(True)
