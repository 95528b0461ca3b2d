"""HHT back-end engines (Section 3.2 + the SpMSpV variants of Section 5.1).

Each engine walks the sparse metadata, charging every memory access —
with its real address — against the shared :class:`MemorySystem` (the
flat Table-1 SRAM, or the Section 3.2 L1D-cached hierarchy), and stages
result elements with their ready times into the front-end's buffered
streams.

The engines are *event-driven*: one ``step()`` call processes one unit of
work (one BLEN-sized buffer fill for SpMV/variant-2, one matrix row for
variant-1) and advances the engine clock to when its pipeline can accept
the next unit.  Functional values are read from RAM snapshots taken at
START — the kernels never modify the operand arrays during a run.

Each engine is split in two.  At START it builds a *fill plan* with
vectorised numpy: every value a fill will stage and every address it
will gather, in fill order, plus one offset per fill (or per row).  A
``step()`` then only walks the timing: it slices the plan's arrays and
does scalar arithmetic on the clock.
"""

from __future__ import annotations

import numpy as np

from ..memory.hierarchy import MemorySystem
from ..memory.port import MemoryPort
from ..memory.ram import Ram
from .config import HHTConfig
from .stream import BufferedStream


class EngineError(Exception):
    """Raised when the programmed configuration is unusable."""


def _as_mem(mem: MemorySystem | MemoryPort) -> MemorySystem:
    if isinstance(mem, MemorySystem):
        return mem
    return MemorySystem(mem)


class BackEndEngine:
    """Common machinery: streams, clock, capacity gating, wait accounting."""

    def __init__(self, config: HHTConfig, mem: MemorySystem | MemoryPort,
                 start_cycle: int, requester: str = "hht"):
        self.config = config
        self.mem = _as_mem(mem)
        self.port = self.mem.port
        #: Label charged on the shared port for this engine's traffic
        #: (the owning HHT's component name).
        self.requester = requester
        self.time = start_cycle
        self.exhausted = False
        self.blocked_since: int | None = None
        self.wait_for_buffer_cycles = 0
        self.buffers_filled = 0
        self.streams: dict[str, BufferedStream] = {}
        self._gate: tuple[BufferedStream, ...] = ()
        # Event sink for buffer_fill events; installed by the owning HHT
        # at START when a SimSession probe subscribed (None otherwise).
        self.probe_sink = None

    def _make_stream(self, name: str, n_buffers: int, buffer_elems: int) -> BufferedStream:
        stream = BufferedStream(name, n_buffers, buffer_elems)
        self.streams[name] = stream
        self._gate += (stream,)
        return stream

    def _seq_read(self, cycle: int, addr: int, words: int) -> int:
        """Sequential metadata read through the BE's wide interface."""
        return self.mem.read_seq(
            addr, words, cycle, self.requester,
            words_per_slot=self.config.seq_words_per_slot,
        )

    def pump(self, now: int) -> None:
        """Run the back-end as far ahead as buffering allows.

        *now* is the CPU-visible cycle at which space may have been freed;
        if the engine had been blocked on full buffers, the idle interval
        is charged to ``wait_for_buffer_cycles`` (the paper's "HHT waiting
        for CPU to release free buffers" counter).
        """
        if self.exhausted:
            return
        sink = self.probe_sink
        gate = self._gate
        while not self.exhausted:
            for stream in gate:
                if stream._occupied >= stream.n_buffers:
                    break  # no free slot on this stream: the gate is shut
            else:
                if self.blocked_since is not None:
                    resume = max(self.blocked_since, now)
                    self.wait_for_buffer_cycles += resume - self.blocked_since
                    self.time = max(self.time, resume)
                    self.blocked_since = None
                self.step()
                if sink is not None:
                    sink.buffer_fill(self)
                continue
            break
        if not self.exhausted and self.blocked_since is None:
            self.blocked_since = self.time

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def drained(self) -> bool:
        """True when all input is processed and all streams are empty."""
        return self.exhausted and all(not s.unconsumed for s in self.streams.values())

    @staticmethod
    def _row_chunks(rows: np.ndarray, blen: int) -> np.ndarray:
        """Buffer-fill sizes aligned to the CPU's row-chunked vector loop.

        The CPU consumes ``min(blen, remaining_in_row)`` elements per
        vector load (``vsetvli``), so the BE emits groups on exactly those
        boundaries — a fill never straddles a row (the control unit knows
        the row structure from ``M_Rows_Base``): a row of ``n`` non-zeros
        is ``ceil(n/blen)`` fills, all full but the last.
        """
        lengths = np.diff(rows).astype(np.int64)
        lengths = lengths[lengths > 0]
        fills = -(-lengths // blen)
        sizes = np.full(int(fills.sum()), blen, np.int64)
        sizes[np.cumsum(fills) - 1] = lengths - blen * (fills - 1)
        return sizes


def _words(ram: Ram, addr: int, count: int, dtype) -> np.ndarray:
    """*count* words at *addr* (no access at all when *count* is 0)."""
    if count:
        return ram.read_array(addr, count, dtype)
    return np.empty(0, dtype)


def _csr_operands(ram: Ram, regs: dict[str, int]):
    """The row pointers and column indices the engines walk.

    Row pointers may be absolute (a tile aliasing a larger matrix's
    arrays, Section 5.5's 16x16 tiling): only differences matter, with
    M_COLS_BASE/M_VALS_BASE pre-offset to the tile's first non-zero, so
    they are rebased to start at 0.
    """
    nrows = regs["m_num_rows"]
    rows = ram.read_array(regs["m_rows_base"], nrows + 1, np.int32)
    rows = (rows - rows[0]).astype(np.int64)
    nnz = int(rows[-1]) if nrows else 0
    return rows, _words(ram, regs["m_cols_base"], nnz, np.int32)


class SpMVGatherEngine(BackEndEngine):
    """Indexed-gather engine for SpMV (the Fig. 3 pipeline).

    Stage 1 issues reads of the next BLEN ``M_cols`` elements; responses
    land in the column-indices buffer; stage 3 computes the element
    addresses ``V_Base + s*k``; stage 4 issues the ``V`` reads whose
    responses fill the CPU-side buffer.  The V requests for a chunk start
    streaming as soon as the first column response arrives.

    Plan: the gathered values ``v[cols]`` and their stage-3 addresses,
    one per non-zero.
    """

    def __init__(self, config, mem, start_cycle, ram: Ram, regs: dict[str, int],
                 requester: str = "hht"):
        super().__init__(config, mem, start_cycle, requester)
        rows, cols = _csr_operands(ram, regs)
        self.nnz = cols.size
        self.cols_base = regs["m_cols_base"]
        v_bits = _words(ram, regs["v_base"], regs["m_num_cols"], np.uint32)
        self.vals = v_bits[cols]
        self.v_addrs = regs["v_base"] + 4 * cols.astype(np.int64)
        self.cursor = 0
        self.chunks = self._row_chunks(rows, config.buffer_elems).tolist()
        self.chunk_idx = 0
        self.vval = self._make_stream("vval", config.n_buffers, config.buffer_elems)
        if self.nnz == 0:
            self.exhausted = True

    def step(self) -> None:
        cfg = self.config
        count = self.chunks[self.chunk_idx]
        self.chunk_idx += 1
        start = self.cursor
        end = self.cursor = start + count

        t = self.time
        # Stage 1/2: stream the column indices (wide sequential read).
        t_cols = self._seq_read(t, self.cols_base + 4 * start, count)
        # Stage 3/4: V gathers start once the first column index arrives,
        # one request per cycle thereafter.
        first_col_ready = t_cols - (count - 1) // cfg.seq_words_per_slot
        t_v = self.mem.gather(
            self.v_addrs[start:end], first_col_ready + 1, self.requester
        )
        ready = t_v + cfg.fill_overhead

        self.vval.push_group(ready, self.vals[start:end])
        self.vval.stats.elements_supplied += count
        self.buffers_filled += 1
        # The pipeline can begin the next chunk once this chunk's requests
        # have all been issued (responses drain in the background).
        self.time = max(t + 1, t_v - self.port.latency + 1)
        if self.cursor >= self.nnz:
            self.exhausted = True


class SpMSpVValueEngine(BackEndEngine):
    """Variant-2: one vector value (or zero) per matrix non-zero.

    Per element the BE reads the column index, gathers the position map
    entry ``map[col]`` and — only on a hit — gathers the vector value.
    Misses cost no value fetch (``vpad[0]`` is architecturally zero), so
    the BE gets *faster* at high vector sparsity while the CPU keeps doing
    one multiply-accumulate per matrix non-zero: the paper's "wasted
    computations on zeros".

    Plan: per non-zero the map address and the output value
    ``vpad[map[col]]``; per hit its value address; per fill the number
    of hits up to its end.
    """

    def __init__(self, config, mem, start_cycle, ram: Ram, regs: dict[str, int],
                 requester: str = "hht"):
        super().__init__(config, mem, start_cycle, requester)
        rows, cols = _csr_operands(ram, regs)
        self.nnz = cols.size
        self.cols_base = regs["m_cols_base"]
        posmap = _words(ram, regs["v_map_base"], regs["m_num_cols"], np.int32)
        vpad_bits = ram.read_array(
            regs["v_vals_base"], regs["v_nnz"] + 1, np.uint32
        )
        positions = posmap[cols]
        hit = positions > 0
        self.vals = vpad_bits[positions]
        self.map_addrs = regs["v_map_base"] + 4 * cols.astype(np.int64)
        self.hit_addrs = (
            regs["v_vals_base"] + 4 * positions[hit].astype(np.int64)
        )
        sizes = self._row_chunks(rows, config.buffer_elems)
        self.chunks = sizes.tolist()
        self.hit_ends = np.cumsum(hit)[np.cumsum(sizes) - 1].tolist()
        self.chunk_idx = 0
        self.cursor = 0
        self.hit_cursor = 0
        self.vval = self._make_stream("vval", config.n_buffers, config.buffer_elems)
        if self.nnz == 0:
            self.exhausted = True

    def step(self) -> None:
        cfg = self.config
        i = self.chunk_idx
        self.chunk_idx += 1
        count = self.chunks[i]
        start = self.cursor
        end = self.cursor = start + count
        h0 = self.hit_cursor
        h1 = self.hit_cursor = self.hit_ends[i]

        t = self.time
        t_cols = self._seq_read(t, self.cols_base + 4 * start, count)
        first_col_ready = t_cols - (count - 1) // cfg.seq_words_per_slot
        gather = self.mem.gather
        t_map = gather(self.map_addrs[start:end], first_col_ready + 1,
                       self.requester)
        if h1 > h0:
            first_map_ready = t_map - (h1 - h0 - 1)
            t_val = gather(self.hit_addrs[h0:h1], first_map_ready + 1,
                           self.requester)
        else:
            t_val = t_map
        ready = t_val + cfg.fill_overhead

        self.vval.push_group(ready, self.vals[start:end])
        self.vval.stats.elements_supplied += count
        self.buffers_filled += 1
        self.time = max(t + 1, t_val - self.port.latency + 1)
        if self.cursor >= self.nnz:
            self.exhausted = True


class SpMSpVAlignedEngine(BackEndEngine):
    """Variant-1: aligned non-zero (matrix, vector) pairs plus row counts.

    Per row the BE two-pointer merges the row's column indices against the
    sparse vector's index list (re-streaming vector indices every row —
    this is why "HHT is performing more work than the CPU"), then fetches
    the matched matrix and vector values.  The CPU reads the match count
    from the COUNT FIFO, then streams the pairs.

    Plan: one sorted-index intersection over every non-zero at once (a
    row's merge is its slice of it).  Per match the matrix/vector value
    addresses and values; per row its pointer, its first match, and the
    vector-index entries its merge consumes.
    """

    def __init__(self, config, mem, start_cycle, ram: Ram, regs: dict[str, int],
                 requester: str = "hht"):
        super().__init__(config, mem, start_cycle, requester)
        self.nrows = regs["m_num_rows"]
        rows, cols = _csr_operands(ram, regs)
        nnz = cols.size
        self.cols_base = regs["m_cols_base"]
        self.v_idx_base = regs["v_idx_base"]
        mvals_bits = _words(ram, regs["m_vals_base"], nnz, np.uint32)
        v_nnz = regs["v_nnz"]
        v_idx = _words(ram, self.v_idx_base, v_nnz, np.int32)
        vpad_bits = ram.read_array(regs["v_vals_base"], v_nnz + 1, np.uint32)

        # Functional merge (sorted-index intersection) of every row.
        v_used = np.zeros(self.nrows, np.int64)
        if nnz and v_nnz:
            pos = np.searchsorted(v_idx, cols)
            valid = pos < v_nnz
            valid[valid] &= v_idx[pos[valid]] == cols[valid]
            matched = np.flatnonzero(valid)
            vpos = pos[valid] + 1
            # Vector-index stream entries consumed before a row's merge
            # ends: those up to its last column.
            nonempty = rows[1:] > rows[:-1]
            v_used[nonempty] = np.searchsorted(
                v_idx, cols[rows[1:][nonempty] - 1], side="right"
            )
        else:
            matched = vpos = np.empty(0, np.int64)
        self.mval_addrs = regs["m_vals_base"] + 4 * matched
        self.vval_addrs = regs["v_vals_base"] + 4 * vpos
        self.mvals = mvals_bits[matched]
        self.vvals = vpad_bits[vpos]
        self.row_ptr = rows.tolist()
        self.match_ptr = np.searchsorted(matched, rows).tolist()
        self.v_used = v_used.tolist()
        self.row = 0
        self.count = self._make_stream("count", config.n_buffers, 1)
        self.mval = self._make_stream("mval", config.n_buffers, config.buffer_elems)
        self.vval = self._make_stream("vval", config.n_buffers, config.buffer_elems)
        if self.nrows == 0:
            self.exhausted = True

    def step(self) -> None:
        cfg = self.config
        i = self.row
        self.row += 1
        lo = self.row_ptr[i]
        nc = self.row_ptr[i + 1] - lo
        m0 = self.match_ptr[i]
        m1 = self.match_ptr[i + 1]
        nm = m1 - m0
        v_used = self.v_used[i]

        # Timing: stream both index lists, merge at one comparison per
        # merge_cycles_per_step, then gather the matched value pairs.
        t = self.time
        t_meta = self._seq_read(t, self.cols_base + 4 * lo, nc)
        t_meta = self._seq_read(
            (t_meta - self.port.latency + 1) if nc else t,
            self.v_idx_base,
            v_used,
        )
        steps = (nc + v_used) * cfg.merge_cycles_per_step
        merge_done = max(t_meta, t + steps)
        if nm:
            # Matrix and vector values interleave, one pair every two
            # cycles; every matrix-value request is issued first.
            gather = self.mem.gather
            t_mval = gather(self.mval_addrs[m0:m1], merge_done + 1,
                            self.requester, spacing=2)
            t_vval = gather(self.vval_addrs[m0:m1], merge_done + 2,
                            self.requester, spacing=2)
            t_pairs = max(t_mval, t_vval)
        else:
            t_pairs = merge_done
        ready = t_pairs + cfg.fill_overhead

        self.count.push(merge_done + cfg.fill_overhead, nm)
        self.count.stats.elements_supplied += 1
        if nm:
            self.mval.push_group(ready, self.mvals[m0:m1])
            self.vval.push_group(ready, self.vvals[m0:m1])
            self.mval.stats.elements_supplied += nm
            self.vval.stats.elements_supplied += nm
        self.buffers_filled += 1
        self.time = max(t + 1, t_pairs - self.port.latency + 1)
        if self.row >= self.nrows:
            self.exhausted = True
