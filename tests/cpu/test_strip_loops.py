"""Strip-mined vector loops: the compiled bulk path against the reference.

The CPU baselines strip-mine each CSR row with ``vsetvli``/``vle32.v``/
``vluxei32.v``/``vfmacc.vv``.  The compiled backend runs such a loop in
bulk (one numpy pass per loop entry, timing in closed form) and falls
back to its per-strip loop whenever a strip would fault or the budget
could run out inside the loop.  These tests run SpMV- and SpMSpV-shaped
loops on both backends and require every observable to match: cycles,
instructions, the registry in order, every register and lane, ``vl``
and RAM.
"""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cpu import Cpu, CpuConfig, SimulationError
from repro.cpu.timing import LatencyTable
from repro.isa import assemble
from repro.memory import Bus, MemoryAccessError, MemoryPort, Ram

# inf - inf and NaN operands are part of the data: numpy's "invalid
# value" warnings from both backends are expected here.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

RAM_BYTES = 1 << 16
LENGTHS, COLS, VALS, VEC, MAP, VPAD = (0x100, 0x1000, 0x2000, 0x3000,
                                       0x4000, 0x5000)
VEC_WORDS = 64

# One row per outer iteration: t4 = the row's length, then the strip
# loop.  ``beqz t4, chunk`` ends the block either way, so ``chunk`` is a
# block entry (a self-loop) and a zero-length row still enters it.  With
# a zero-cycle ``sw``, the stores before it leave the port busy past the
# clock, so the loop's first access waits.
_ROW = """\
row:
    lw   t4, 0(s1)
    addi s1, s1, 4
{{stores}}
    beqz t4, chunk
chunk:
    vsetvli t5, t4, e32, m1
{gather}
    vle32.v v3, (a3)
    vfmacc.vv v0, {value}, v3
    slli t6, t5, 2
    add  a2, a2, t6
    add  a3, a3, t6
    sub  t4, t4, t5
    bnez t4, chunk
    addi t0, t0, -1
    bnez t0, row
    halt
"""
SHAPES = {
    "spmv": _ROW.format(value="v2", gather="""\
    vle32.v v1, (a2)
    vsll.vi v1, v1, 2
    vluxei32.v v2, (s4), v1"""),
    # A lane-wise float32 op between the gather and the accumulator.
    "scaled": _ROW.format(value="v4", gather="""\
    vle32.v v1, (a2)
    vsll.vi v1, v1, 2
    vluxei32.v v2, (s4), v1
    vle32.v v5, (a3)
    vfmul.vv v4, v2, v5"""),
    "spmspv": _ROW.format(value="v7", gather="""\
    vle32.v v1, (a2)
    vsll.vi v1, v1, 2
    vluxei32.v v6, (s8), v1
    vsll.vi v6, v6, 2
    vluxei32.v v7, (s9), v6"""),
}

#: Accumulator seeds: signed zeros, quiet/signalling NaNs, infinities,
#: subnormals and ordinary values, as float32 bit patterns.
SPECIAL_BITS = [0x00000000, 0x80000000, 0x7FC00000, 0xFFC00001,
                0x7F800001, 0x7F800000, 0xFF800000, 0x00000001,
                0x807FFFFF, 0x00400000, 0x3F800000, 0xC2F60000]


def _f32_bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float32).view(np.uint32)


@st.composite
def strip_cases(draw):
    vlmax = draw(st.sampled_from([1, 2, 4, 8]))
    shape = draw(st.sampled_from(sorted(SHAPES)))
    length = st.sampled_from(
        sorted({0, 1, max(vlmax - 1, 0), vlmax, vlmax + 1}))
    longer = st.integers(vlmax + 2, 5 * vlmax + 3)
    rows = draw(st.lists(st.one_of(length, longer), min_size=1,
                         max_size=5))
    total = sum(rows)
    cols = draw(st.lists(st.integers(0, VEC_WORDS - 1), min_size=total,
                         max_size=total))
    vals = draw(st.lists(st.one_of(
        st.floats(-4.0, 4.0, width=32),
        st.sampled_from([0.0, -0.0, float("inf"), 1e-40])),
        min_size=total, max_size=total))
    acc = draw(st.lists(st.sampled_from(SPECIAL_BITS), min_size=vlmax,
                        max_size=vlmax))
    fault = draw(st.sampled_from(["none", "none", "past_ram", "misaligned",
                                  "stream_end"]))
    at = draw(st.integers(0, max(total - 1, 0)))
    budget = draw(st.one_of(st.none(), st.integers(5, 40 + 3 * total)))
    return dict(vlmax=vlmax, shape=shape, rows=rows, cols=cols, vals=vals,
                acc=acc, fault=fault, at=at, budget=budget,
                stores=draw(st.sampled_from([0, 0, 1, 3, 6])),
                seed=draw(st.integers(0, 2**16)))


def _machine(case, backend):
    kwargs = {"vlmax": case["vlmax"], "backend": backend,
              "latencies": LatencyTable(scalar_store=0)}
    if case["budget"] is not None:
        kwargs["max_instructions"] = case["budget"]
    ram = Ram(RAM_BYTES)
    bus = Bus(ram, MemoryPort(latency=2))
    cpu = Cpu(bus, CpuConfig(**kwargs))
    rng = np.random.default_rng(case["seed"])
    rows = case["rows"]
    words = ram._u32
    words[LENGTHS >> 2:(LENGTHS >> 2) + len(rows)] = rows
    cols = np.asarray(case["cols"], dtype=np.uint32)
    gather_base = VPAD if case["shape"] == "spmspv" else VEC
    if case["shape"] == "spmspv":
        # map[col] -> a slot of vpad, itself a permutation.
        words[MAP >> 2:(MAP >> 2) + VEC_WORDS] = rng.permutation(VEC_WORDS)
    if case["fault"] == "past_ram" and len(cols):
        cols[case["at"]] = (RAM_BYTES >> 2) + int(rng.integers(0, 64))
    words[COLS >> 2:(COLS >> 2) + len(cols)] = cols
    # "stream_end": the values stream runs off the end of RAM at element
    # ``at``.
    vals_at = (RAM_BYTES - 4 * case["at"] if case["fault"] == "stream_end"
               else VALS)
    fit = min(len(cols), (RAM_BYTES - vals_at) >> 2)
    words[vals_at >> 2:(vals_at >> 2) + fit] = _f32_bits(
        case["vals"][:fit])
    words[gather_base >> 2:(gather_base >> 2) + VEC_WORDS] = _f32_bits(
        rng.uniform(-2.0, 2.0, VEC_WORDS))
    misaligned = 2 if case["fault"] == "misaligned" else 0
    x = cpu.x
    x[5] = len(rows)                        # t0
    x[9] = LENGTHS                          # s1
    x[12] = COLS                            # a2
    x[13] = vals_at                         # a3
    x[20] = VEC + misaligned                # s4
    x[24] = MAP                             # s8
    x[25] = VPAD + misaligned               # s9
    # Every vector register starts with distinct lanes, so lanes a short
    # last strip leaves undisturbed show where they came from.
    for reg in cpu.v:
        reg[:] = rng.integers(0, 2**32, case["vlmax"], dtype=np.uint32)
    cpu.v[0][:] = case["acc"]
    return cpu, bus, ram


def _run(case, backend):
    cpu, bus, ram = _machine(case, backend)
    program = assemble(SHAPES[case["shape"]].format(
        stores="    sw zero, 0x80(zero)\n" * case["stores"]))
    error = None
    try:
        cpu.run(program)
    except (SimulationError, MemoryAccessError) as exc:
        error = (type(exc).__name__, str(exc))
    state = (
        list(cpu.x),
        struct.pack(f"{len(cpu.f)}d", *cpu.f),
        [reg.tobytes() for reg in cpu.v],
        cpu.vl,
        ram._u32.tobytes(),
    )
    timing = (cpu.cycle, cpu.counters.instructions,
              list(cpu.stats().items()), list(bus.stats().items()),
              list(bus.port._bank_free))
    return error, state, timing, cpu


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(strip_cases())
def test_strip_loops_match_reference(case):
    ref_error, ref_state, ref_timing, _ = _run(case, "reference")
    error, state, timing, cpu = _run(case, "compiled")
    assert error == ref_error
    assert state == ref_state
    if error is None or error[0] == "SimulationError":
        # A memory fault aborts its block mid-way (partial charges of
        # that block are not published); every other ending is exact.
        assert timing == ref_timing
    if error is None and any(case["rows"]):
        assert cpu._compiled_backend.describe()["bulk_loops"] > 0


def _case(**overrides):
    case = dict(vlmax=8, shape="spmv", rows=[19, 8, 0, 1, 30],
                cols=[(7 * i) % VEC_WORDS for i in range(58)],
                vals=[0.5 + i for i in range(58)],
                acc=SPECIAL_BITS[:8], fault="none", at=0, budget=None,
                stores=0, seed=1)
    case.update(overrides)
    return case


class TestDirected:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_rows_run_in_bulk(self, shape):
        case = _case(shape=shape)
        ref = _run(case, "reference")
        got = _run(case, "compiled")
        assert got[:3] == ref[:3]
        info = got[3]._compiled_backend.describe()
        # Rows 19, 8, 1 and 30 enter with strips to run; the empty row
        # (avl 0) takes the per-strip path.
        assert info["bulk_loops"] == 4
        assert info["bulk_declined"] == 1

    def test_port_busy_at_loop_entry(self):
        case = _case(stores=5)
        ref = _run(case, "reference")
        got = _run(case, "compiled")
        assert got[:3] == ref[:3]
        assert got[3]._compiled_backend.describe()["bulk_loops"] == 4

    @pytest.mark.parametrize("fault", ["past_ram", "misaligned",
                                       "stream_end"])
    def test_faulting_row_declines_and_faults_at_the_same_strip(self, fault):
        case = _case(fault=fault, at=40)
        ref = _run(case, "reference")
        got = _run(case, "compiled")
        assert got[0] == ref[0] and got[0][0] == "MemoryAccessError"
        assert got[1] == ref[1]
        assert got[3]._compiled_backend.describe()["bulk_declined"] >= 1

    def test_budget_inside_a_loop_declines_and_stops_exactly(self):
        # Row 0 (3 strips) enters its loop with room for only 2.
        case = _case(budget=30)
        ref = _run(case, "reference")
        got = _run(case, "compiled")
        assert ref[0][0] == "SimulationError"
        assert got[:3] == ref[:3]
        assert got[3]._compiled_backend.describe()["bulk_declined"] >= 1

    @pytest.mark.parametrize("vlmax", [1, 8])
    def test_accumulation_order_matches_strip_by_strip_adds(self, vlmax):
        # Cancellation makes the float32 sum order-sensitive: a sum in
        # any other order (pairwise, say) gives a different lane value.
        vals = [v for v in (1e8, 1.0, -1e8, 1.0) for _ in range(vlmax)] * 16
        case = _case(vlmax=vlmax, rows=[len(vals)], cols=[3] * len(vals),
                     vals=vals, acc=[0] * vlmax)
        ref = _run(case, "reference")
        got = _run(case, "compiled")
        assert got[:3] == ref[:3]
        assert got[3]._compiled_backend.describe()["bulk_loops"] == 1
