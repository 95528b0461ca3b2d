"""The engines' fill plans against a per-step reference.

Each HHT engine builds its plan once at START and only walks the timing
in ``step()``.  The reference engines below recompute every fill from
the operand arrays at each step, with one ``MemorySystem.read`` per
gathered word, the way the engines worked before they had plans.  Both
must stage the same values with the same ready times, end on the same
clock and leave the same counters on the memory system, whatever the
matrix, vector, buffer geometry and memory system.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HHTConfig
from repro.core.engines import (
    BackEndEngine,
    SpMSpVAlignedEngine,
    SpMSpVValueEngine,
    SpMVGatherEngine,
)
from repro.formats import CSRMatrix, SparseVector
from repro.memory import MemoryPort, Ram
from repro.memory.cache import CacheConfig, L1Cache
from repro.memory.hierarchy import MemorySystem

MEMORIES = ("flat", "banked", "l1d", "probed")


class _NullSink:
    def port_issue(self, *event):
        pass


def make_mem(kind):
    port = MemoryPort(banks=4 if kind == "banked" else 1)
    if kind == "probed":
        port.probe_sink = _NullSink()
    cache = L1Cache(CacheConfig(), port) if kind == "l1d" else None
    return MemorySystem(port, cache)


def per_word(mem, addrs, first, spacing=1):
    """One read per word, word i presented at first + spacing*i."""
    latest = t = first
    for addr in addrs:
        latest = max(latest, mem.read(int(addr), t, "hht"))
        t += spacing
    return latest


def row_chunks(rows, blen):
    chunks = []
    for n in np.diff(rows):
        n = int(n)
        while n > 0:
            chunks.append(min(blen, n))
            n -= chunks[-1]
    return chunks


class RefEngine(BackEndEngine):
    """Shared set-up of the reference engines: raw operand arrays."""

    def __init__(self, config, mem, ram, regs):
        super().__init__(config, mem, 0)
        self.regs = regs
        nrows = regs["m_num_rows"]
        rows = ram.read_array(regs["m_rows_base"], nrows + 1, np.int32)
        self.rows = rows - rows[0]
        self.nnz = int(self.rows[-1])
        self.cols = self._read(ram, "m_cols_base", self.nnz, np.int32)
        self.mvals = self._read(ram, "m_vals_base", self.nnz, np.uint32)
        self.ram = ram
        self.cursor = 0

    def _read(self, ram, key, n, dtype):
        if not n:
            return np.empty(0, dtype)
        return ram.read_array(self.regs[key], n, dtype)

    def _cols_ready(self, start, count):
        cfg = self.config
        t_cols = self._seq_read(self.time, self.regs["m_cols_base"] + 4 * start,
                                count)
        return t_cols - (count - 1) // cfg.seq_words_per_slot


class RefSpMV(RefEngine):
    def __init__(self, config, mem, ram, regs):
        super().__init__(config, mem, ram, regs)
        self.v_bits = self._read(ram, "v_base", regs["m_num_cols"], np.uint32)
        self.chunks = row_chunks(self.rows, config.buffer_elems)
        self.vval = self._make_stream("vval", config.n_buffers,
                                      config.buffer_elems)
        self.exhausted = self.nnz == 0

    def step(self):
        count = self.chunks.pop(0)
        start = self.cursor
        self.cursor += count
        chunk = self.cols[start:self.cursor]
        t = self.time
        first = self._cols_ready(start, count)
        t_v = per_word(self.mem, self.regs["v_base"] + 4 * chunk.astype(np.int64),
                       first + 1)
        self.vval.push_group(t_v + self.config.fill_overhead, self.v_bits[chunk])
        self.buffers_filled += 1
        self.time = max(t + 1, t_v - self.port.latency + 1)
        self.exhausted = self.cursor >= self.nnz


class RefValue(RefEngine):
    def __init__(self, config, mem, ram, regs):
        super().__init__(config, mem, ram, regs)
        self.posmap = self._read(ram, "v_map_base", regs["m_num_cols"], np.int32)
        self.vpad = ram.read_array(regs["v_vals_base"], regs["v_nnz"] + 1,
                                   np.uint32)
        self.chunks = row_chunks(self.rows, config.buffer_elems)
        self.vval = self._make_stream("vval", config.n_buffers,
                                      config.buffer_elems)
        self.exhausted = self.nnz == 0

    def step(self):
        regs = self.regs
        count = self.chunks.pop(0)
        start = self.cursor
        self.cursor += count
        chunk = self.cols[start:self.cursor]
        positions = self.posmap[chunk]
        hits = positions[positions > 0]
        t = self.time
        first = self._cols_ready(start, count)
        t_map = per_word(self.mem,
                         regs["v_map_base"] + 4 * chunk.astype(np.int64),
                         first + 1)
        t_val = t_map
        if hits.size:
            t_val = per_word(self.mem,
                             regs["v_vals_base"] + 4 * hits.astype(np.int64),
                             t_map - (hits.size - 1) + 1)
        self.vval.push_group(t_val + self.config.fill_overhead,
                             self.vpad[positions])
        self.buffers_filled += 1
        self.time = max(t + 1, t_val - self.port.latency + 1)
        self.exhausted = self.cursor >= self.nnz


class RefAligned(RefEngine):
    def __init__(self, config, mem, ram, regs):
        super().__init__(config, mem, ram, regs)
        self.v_idx = self._read(ram, "v_idx_base", regs["v_nnz"], np.int32)
        self.vpad = ram.read_array(regs["v_vals_base"], regs["v_nnz"] + 1,
                                   np.uint32)
        self.row = 0
        self.count = self._make_stream("count", config.n_buffers, 1)
        self.mval = self._make_stream("mval", config.n_buffers,
                                      config.buffer_elems)
        self.vval = self._make_stream("vval", config.n_buffers,
                                      config.buffer_elems)
        self.exhausted = regs["m_num_rows"] == 0

    def step(self):
        cfg, regs = self.config, self.regs
        lo, hi = int(self.rows[self.row]), int(self.rows[self.row + 1])
        self.row += 1
        row_cols = self.cols[lo:hi]
        nc = hi - lo
        v_idx = self.v_idx
        # Two-pointer merge of the row against the vector's indices.
        matched_k, matched_vpos = [], []
        i = j = 0
        while i < nc and j < v_idx.size:
            if row_cols[i] == v_idx[j]:
                matched_k.append(i)
                matched_vpos.append(j)
                i += 1
                j += 1
            elif row_cols[i] < v_idx[j]:
                i += 1
            else:
                j += 1
        v_used = 0
        if nc and v_idx.size:
            v_used = int(np.searchsorted(v_idx, row_cols[-1], side="right"))
        nm = len(matched_k)
        matched_k = np.array(matched_k, np.int64)
        matched_vpos = np.array(matched_vpos, np.int64)
        t = self.time
        t_meta = self._seq_read(t, regs["m_cols_base"] + 4 * lo, nc)
        t_meta = self._seq_read((t_meta - self.port.latency + 1) if nc else t,
                                regs["v_idx_base"], v_used)
        merge_done = max(t_meta, t + (nc + v_used) * cfg.merge_cycles_per_step)
        t_pairs = merge_done
        if nm:
            t_mval = per_word(self.mem,
                              regs["m_vals_base"] + 4 * (lo + matched_k),
                              merge_done + 1, spacing=2)
            t_vval = per_word(self.mem,
                              regs["v_vals_base"] + 4 * (matched_vpos + 1),
                              merge_done + 2, spacing=2)
            t_pairs = max(t_mval, t_vval)
        ready = t_pairs + cfg.fill_overhead
        self.count.push(merge_done + cfg.fill_overhead, nm)
        if nm:
            self.mval.push_group(ready, self.mvals[lo + matched_k])
            self.vval.push_group(ready, self.vpad[matched_vpos + 1])
        self.buffers_filled += 1
        self.time = max(t + 1, t_pairs - self.port.latency + 1)
        self.exhausted = self.row >= regs["m_num_rows"]


@st.composite
def problems(draw, max_dim=24):
    """A matrix (with empty rows, rows longer than BLEN), a dense and a
    sparse vector (possibly all zero), a buffer geometry, a memory
    system and an optional tile view of the matrix."""
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    dense = rng.uniform(0.1, 1.0, (nrows, ncols)).astype(np.float32)
    dense[rng.random((nrows, ncols)) >= draw(st.floats(0.0, 1.0))] = 0.0
    dense[rng.random(nrows) < draw(st.floats(0.0, 0.5))] = 0.0  # empty rows
    sv = rng.uniform(0.1, 1.0, ncols).astype(np.float32)
    sv[rng.random(ncols) >= draw(st.floats(0.0, 1.0))] = 0.0
    tile = draw(st.tuples(st.integers(0, nrows - 1), st.integers(1, nrows)))
    return dict(
        matrix=CSRMatrix.from_dense(dense),
        v=rng.uniform(0.1, 1.0, ncols).astype(np.float32),
        sv=SparseVector.from_dense(sv),
        config=HHTConfig(n_buffers=draw(st.sampled_from([1, 2, 4])),
                         buffer_elems=draw(st.sampled_from([1, 2, 4, 8]))),
        memory=draw(st.sampled_from(MEMORIES)),
        tile=tile if draw(st.booleans()) else None,
    )


def load(problem):
    """Operands in RAM and the engine registers.  A tile view keeps the
    whole matrix's absolute row pointers (Section 5.5's tiling)."""
    matrix, sv = problem["matrix"], problem["sv"]
    ram = Ram(1 << 16)
    regs = {"m_num_rows": matrix.nrows, "m_num_cols": matrix.ncols,
            "v_nnz": sv.nnz}
    addr = 0x100
    for key, arr in (("m_rows_base", matrix.rows), ("m_cols_base", matrix.cols),
                     ("m_vals_base", matrix.vals), ("v_base", problem["v"]),
                     ("v_idx_base", sv.indices),
                     ("v_vals_base", sv.padded_values()),
                     ("v_map_base", sv.position_map())):
        arr = np.ascontiguousarray(arr)
        regs[key] = addr
        if arr.size:
            ram.write_array(addr, arr)
        addr += max(arr.size * 4, 4)
    if problem["tile"] is not None:
        start, length = problem["tile"]
        nr = min(length, matrix.nrows - start)
        first_nz = int(matrix.rows[start])
        regs["m_num_rows"] = nr
        regs["m_rows_base"] += 4 * start
        regs["m_cols_base"] += 4 * first_nz
        regs["m_vals_base"] += 4 * first_nz
    return ram, regs


def drained(stream):
    """Every staged element as (ready_at, bits), oldest first."""
    out = []
    for ready, values, done in stream._groups:
        out += [(ready, int(b)) for b in values[done:]]
    return out


def outcome(engine, streams):
    guard = 0
    while not engine.exhausted:
        engine.step()
        guard += 1
        assert guard < 10_000
    return ([drained(engine.streams[name]) for name in streams],
            engine.time, engine.buffers_filled, engine.mem.stats())


def check(engine_cls, ref_cls, problem, streams):
    ram, regs = load(problem)
    cfg = problem["config"]
    got = outcome(engine_cls(cfg, make_mem(problem["memory"]), 0, ram, regs),
                  streams)
    want = outcome(ref_cls(cfg, make_mem(problem["memory"]), ram, regs),
                   streams)
    assert got == want


@settings(max_examples=120, deadline=None)
@given(problem=problems())
def test_spmv_plan_equals_per_step_reference(problem):
    check(SpMVGatherEngine, RefSpMV, problem, ["vval"])


@settings(max_examples=120, deadline=None)
@given(problem=problems())
def test_value_plan_equals_per_step_reference(problem):
    check(SpMSpVValueEngine, RefValue, problem, ["vval"])


@settings(max_examples=120, deadline=None)
@given(problem=problems())
def test_aligned_plan_equals_per_step_reference(problem):
    check(SpMSpVAlignedEngine, RefAligned, problem, ["count", "mval", "vval"])


def test_named_edge_cases():
    """No hits (v2), an empty vector (v1), an empty row and a row
    longer than BLEN, on every memory system."""
    dense = np.zeros((3, 12), np.float32)
    dense[0, :11] = 1.0      # row 0: 11 > BLEN non-zeros
    dense[2, [1, 5]] = 2.0   # row 1 is empty
    for memory in MEMORIES:
        for sv in (np.zeros(12, np.float32), np.eye(12, dtype=np.float32)[5]):
            problem = dict(
                matrix=CSRMatrix.from_dense(dense),
                v=np.arange(12, dtype=np.float32),
                sv=SparseVector.from_dense(sv),
                config=HHTConfig(n_buffers=2, buffer_elems=4),
                memory=memory, tile=None,
            )
            check(SpMVGatherEngine, RefSpMV, problem, ["vval"])
            check(SpMSpVValueEngine, RefValue, problem, ["vval"])
            check(SpMSpVAlignedEngine, RefAligned, problem,
                  ["count", "mval", "vval"])
