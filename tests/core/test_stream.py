"""BufferedStream tests: slot accounting, FIFO order, capacity gating."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BufferedStream


def pop(stream, count):
    """``pop_available`` with the slices joined into a plain list."""
    slices, ready = stream.pop_available(count)
    return ready, np.concatenate(slices).tolist() if slices else []


class TestBasics:
    def test_fifo_order(self):
        s = BufferedStream("s", n_buffers=2, buffer_elems=4)
        s.push_group(10, [1, 2, 3])
        assert pop(s, 1) == (10, [1])
        assert pop(s, 2) == (10, [2, 3])
        assert s.pop_available(1) == ([], None)

    def test_pop_spans_groups(self):
        s = BufferedStream("s", n_buffers=4, buffer_elems=4)
        s.push_group(10, [1, 2])
        s.push_group(8, [3, 4, 5])
        slices, ready = s.pop_available(4)
        assert [x.tolist() for x in slices] == [[1, 2], [3, 4]]
        assert ready == 10  # the latest ready time among the fills
        assert pop(s, 9) == (8, [5])  # only what is staged
        assert s.unconsumed == 0

    def test_push_single_element(self):
        s = BufferedStream("s", n_buffers=2, buffer_elems=1)
        s.push(5, 42)
        assert s.occupied_slots == 1
        assert pop(s, 1) == (5, [42])
        assert s.occupied_slots == 0

    def test_empty_group_is_noop(self):
        s = BufferedStream("s", n_buffers=1, buffer_elems=4)
        s.push_group(0, [])
        assert s.occupied_slots == 0
        assert s.has_room


class TestSlotAccounting:
    def test_group_occupies_one_slot_when_small(self):
        s = BufferedStream("s", n_buffers=2, buffer_elems=8)
        s.push_group(0, range(8))
        assert s.occupied_slots == 1

    def test_large_group_occupies_multiple_slots(self):
        s = BufferedStream("s", n_buffers=2, buffer_elems=4)
        s.push_group(0, range(10))  # 4 + 4 + 2
        assert s.occupied_slots == 3
        assert not s.has_room  # overshoot allowed, gate closed

    def test_slot_recycled_only_when_fully_drained(self):
        s = BufferedStream("s", n_buffers=1, buffer_elems=4)
        s.push_group(0, range(4))
        for _ in range(3):
            s.pop_available(1)
            assert s.occupied_slots == 1
        s.pop_available(1)
        assert s.occupied_slots == 0
        assert s.has_room

    def test_partial_tail_slot(self):
        s = BufferedStream("s", n_buffers=2, buffer_elems=4)
        s.push_group(0, range(6))  # slots of 4 and 2
        s.pop_available(4)
        assert s.occupied_slots == 1
        s.pop_available(1)
        s.pop_available(1)
        assert s.occupied_slots == 0

    def test_has_room_respects_n_buffers(self):
        s = BufferedStream("s", n_buffers=2, buffer_elems=4)
        s.push_group(0, range(4))
        assert s.has_room
        s.push_group(0, range(4))
        assert not s.has_room

    def test_unconsumed_counts_elements(self):
        s = BufferedStream("s", n_buffers=4, buffer_elems=4)
        s.push_group(0, range(3))
        s.push_group(0, range(2))
        assert s.unconsumed == 5


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            BufferedStream("s", n_buffers=0, buffer_elems=4)
        with pytest.raises(ValueError):
            BufferedStream("s", n_buffers=1, buffer_elems=0)

    def test_ready_times_preserved(self):
        s = BufferedStream("s", n_buffers=3, buffer_elems=2)
        s.push_group(7, [1])
        s.push_group(9, [2])
        assert pop(s, 1)[0] == 7
        assert pop(s, 1)[0] == 9


class _PerElementStream:
    """Reference model: one ``(ready_at, bits)`` entry per element and
    one remaining-count entry per buffer slot."""

    def __init__(self, n_buffers, buffer_elems):
        self.n_buffers, self.blen = n_buffers, buffer_elems
        self.elements, self.slots = deque(), deque()

    def push_group(self, ready_at, values):
        for v in values:
            self.elements.append((ready_at, v))
        full, rem = divmod(len(values), self.blen)
        self.slots.extend([self.blen] * full + ([rem] if rem else []))

    def push(self, ready_at, value):
        self.elements.append((ready_at, value))
        self.slots.append(1)

    def pop(self, count):
        values, latest = [], None
        while len(values) < count and self.elements:
            ready, v = self.elements.popleft()
            values.append(v)
            latest = ready if latest is None else max(latest, ready)
            self.slots[0] -= 1
            if self.slots[0] == 0:
                self.slots.popleft()
        return latest, values


_ops = st.one_of(
    st.tuples(st.just("push"), st.integers(0, 50), st.integers(0, 2**32 - 1)),
    st.tuples(st.just("push_group"), st.integers(0, 50),
              st.lists(st.integers(0, 2**32 - 1), max_size=20)),
    st.tuples(st.just("pop"), st.integers(1, 25)),
)


@settings(max_examples=300, deadline=None)
@given(
    n_buffers=st.integers(1, 4),
    buffer_elems=st.integers(1, 8),
    ops=st.lists(_ops, max_size=40),
)
def test_matches_per_element_model(n_buffers, buffer_elems, ops):
    s = BufferedStream("s", n_buffers, buffer_elems)
    ref = _PerElementStream(n_buffers, buffer_elems)
    for op in ops:
        if op[0] == "pop":
            assert pop(s, op[1]) == ref.pop(op[1])
        else:
            getattr(s, op[0])(op[1], op[2])
            getattr(ref, op[0])(op[1], op[2])
        assert s.unconsumed == len(ref.elements)
        assert s.occupied_slots == len(ref.slots)
        assert s.has_room == (len(ref.slots) < n_buffers)
