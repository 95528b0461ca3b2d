"""Multi-core SoC: construction, correctness, contention, bit-identity.

The tentpole contract: ``n_cores`` is a config point.  ``n_cores=1``
builds literally the same tree as before the refactor (covered by the
pinned goldens in tests/instrument/test_determinism.py staying green);
``n_cores>1`` builds indexed ``soc.cpu0..cpuN-1`` subtrees sharing one
RAM port, runs the row-partitioned kernels correctly and bit-identically
on both backends (cycles, registry, outputs and error messages), and
shows shared-port contention in the registry and probes.
"""

import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.runners import run_spmspv, run_spmv
from repro.cpu.core import SimulationError
from repro.instrument import ContentionProbe
from repro.kernels import partition_rows, spmv_multicore_kernel
from repro.memory import MemoryAccessError, MmuConfig
from repro.system import Soc, SystemConfig
from repro.workloads import random_csr, random_dense_vector, random_sparse_vector


def multicore_config(n_cores, **overrides):
    cfg = SystemConfig.paper_table1(**overrides)
    cfg.n_cores = n_cores
    return cfg


class TestPartitionRows:
    def test_even_split(self):
        syms = partition_rows(8, 2)
        assert syms == {"core0_row_start": 0, "core0_row_end": 4,
                        "core1_row_start": 4, "core1_row_end": 8}

    def test_remainder_goes_to_early_cores(self):
        syms = partition_rows(7, 3)
        ranges = [(syms[f"core{k}_row_start"], syms[f"core{k}_row_end"])
                  for k in range(3)]
        assert ranges == [(0, 3), (3, 6), (6, 7)]

    def test_more_cores_than_rows_leaves_empty_tails(self):
        syms = partition_rows(2, 4)
        assert syms["core3_row_start"] == syms["core3_row_end"] == 2

    def test_blocks_cover_all_rows_exactly_once(self):
        for rows, cores in ((1, 2), (13, 4), (128, 3)):
            syms = partition_rows(rows, cores)
            covered = []
            for k in range(cores):
                covered.extend(range(syms[f"core{k}_row_start"],
                                     syms[f"core{k}_row_end"]))
            assert covered == list(range(rows))


class TestConstruction:
    def test_single_core_tree_is_unchanged(self):
        soc = Soc(multicore_config(1))
        assert soc.cpu.name == "cpu"
        assert soc.cpus == [soc.cpu]
        assert "soc.cpu.cycles" in soc.stats()
        assert "soc.cpu0.cycles" not in soc.stats()

    def test_two_cores_register_indexed_subtrees(self):
        soc = Soc(multicore_config(2))
        stats = soc.stats()
        assert "soc.cpu0.cycles" in stats
        assert "soc.cpu1.cycles" in stats
        assert "soc.cpu.cycles" not in stats

    def test_cores_share_one_ram_port(self):
        soc = Soc(multicore_config(2))
        assert soc.cpus[0].bus.port is soc.cpus[1].bus.port
        assert soc.cpus[0].bus.ram is soc.cpus[1].bus.ram

    def test_per_core_requesters(self):
        soc = Soc(multicore_config(3))
        assert [cpu.bus.default_requester for cpu in soc.cpus] == \
            ["cpu0", "cpu1", "cpu2"]

    def test_secondary_buses_share_the_mmio_map(self):
        soc = Soc(multicore_config(2))
        assert soc.cpus[1].bus._devices is soc.bus._devices

    def test_n_cores_validation(self):
        with pytest.raises(ValueError, match="n_cores"):
            SystemConfig(n_cores=0)


def observables(run):
    """What a run must reproduce exactly on every backend: cycles,
    instructions, the flat registry (its keys in order) and ``y``."""
    result = run.result
    return (result.cycles, result.instructions,
            list(result.stats.items()), run.y.tobytes())


def on_backend(backend, config):
    """*config* (a fresh copy) pinned to *backend*."""
    config = copy.deepcopy(config)
    config.cpu.backend = backend
    return config


@pytest.mark.parametrize("backend", ["reference", "compiled"])
class TestCorrectness:
    """Each kernel computes the product on *backend*, and reproduces
    the reference run exactly (the interleave is backend-independent)."""

    @pytest.mark.parametrize("n_cores", [2, 3, 4])
    def test_spmv_matches_reference_product(self, backend, n_cores):
        matrix = random_csr((29, 29), 0.4, seed=21)
        v = random_dense_vector(29, seed=22)
        cfg = multicore_config(n_cores)
        run = run_spmv(matrix, v, config=on_backend(backend, cfg))
        ref = matrix.to_dense().astype(np.float64) @ v.astype(np.float64)
        assert np.allclose(run.y, ref, rtol=1e-3, atol=1e-4)
        golden = run_spmv(matrix, v, config=on_backend("reference", cfg))
        assert observables(run) == observables(golden)

    def test_spmspv_matches_reference_product(self, backend):
        matrix = random_csr((25, 25), 0.5, seed=23)
        sv = random_sparse_vector(25, 0.5, seed=24)
        cfg = multicore_config(2)
        run = run_spmspv(matrix, sv, mode="baseline",
                         config=on_backend(backend, cfg))
        ref = matrix.to_dense().astype(np.float64) @ \
            sv.to_dense().astype(np.float64)
        assert np.allclose(run.y, ref, rtol=1e-3, atol=1e-4)
        golden = run_spmspv(matrix, sv, mode="baseline",
                            config=on_backend("reference", cfg))
        assert observables(run) == observables(golden)

    def test_scalar_kernel_too(self, backend):
        matrix = random_csr((19, 19), 0.5, seed=25)
        v = random_dense_vector(19, seed=26)
        cfg = multicore_config(2, vlmax=1)
        run = run_spmv(matrix, v, vlmax=1, config=on_backend(backend, cfg))
        ref = matrix.to_dense().astype(np.float64) @ v.astype(np.float64)
        assert np.allclose(run.y, ref, rtol=1e-3, atol=1e-4)
        golden = run_spmv(matrix, v, vlmax=1,
                          config=on_backend("reference", cfg))
        assert observables(run) == observables(golden)


class TestCrossBackendProperty:
    """Generated points: every backend reproduces the reference run."""

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        size=st.integers(4, 48),
        sparsity=st.floats(0.0, 0.95),
        n_cores=st.integers(2, 4),
        banks=st.sampled_from([1, 2]),
        vlmax=st.sampled_from([1, 8]),
        kernel=st.sampled_from(["spmv", "spmspv"]),
        mmu=st.one_of(st.none(), st.builds(
            MmuConfig,
            page_bytes=st.sampled_from([64, 128, 256]),
            tlb_entries=st.integers(1, 4),
        )),
        seed=st.integers(0, 2**16),
    )
    def test_backends_agree(self, size, sparsity, n_cores, banks, vlmax,
                            kernel, mmu, seed):
        # Small pages and TLBs make bursts straddle pages and gathers
        # miss mid-chain.
        cfg = multicore_config(n_cores, vlmax=vlmax)
        cfg.banks = banks
        cfg.mmu = mmu
        matrix = random_csr((size, size), sparsity, seed=seed)
        runs = []
        for backend in ("reference", "compiled"):
            if kernel == "spmv":
                v = random_dense_vector(size, seed=seed + 1)
                run = run_spmv(matrix, v, vlmax=vlmax,
                               config=on_backend(backend, cfg))
            else:
                sv = random_sparse_vector(size, sparsity, seed=seed + 1)
                run = run_spmspv(matrix, sv, mode="baseline", vlmax=vlmax,
                                 config=on_backend(backend, cfg))
            runs.append(observables(run))
        assert runs[0] == runs[1]


def _run_text(backend, text):
    """Run assembly *text* (``core0``/``core1`` sections) on two cores."""
    soc = Soc(on_backend(backend, multicore_config(2)))
    return soc.run(soc.assemble(text))


class TestInterleaveOrder:
    """Directed cases of the shared-op order (smallest clock first,
    ties to the lower core index) and of which error fires first."""

    def test_clock_tie_goes_to_the_lower_index(self):
        # Core 0 reaches its load after int_div single-cycle ops, core 1
        # after one div: the same clock, so core 0's load goes first and
        # core 1's waits one cycle behind it on the shared port.  Core
        # 0's second load then waits for core 1's, mid-block, with its
        # first request not yet in the port's counters.
        int_div = multicore_config(2).cpu.latencies.int_div
        text = ("core0:\n" + "    addi t0, t0, 1\n" * int_div
                + "    lw a0, 0x100(zero)\n    lw a1, 0x108(zero)\n"
                + "    halt\n"
                + "core1:\n    div t0, t0, t1\n"
                + "    lw a0, 0x104(zero)\n    halt\n")
        results = {b: _run_text(b, text) for b in ("reference", "compiled")}
        ref = results["reference"]
        assert [k for k in ref.stats if k.startswith("soc.ram.requester")] \
            == ["soc.ram.requester.cpu0", "soc.ram.requester.cpu1"]
        assert ref.stats["soc.ram.queue_cycles"] == 1
        com = results["compiled"]
        assert (com.cycles, list(com.stats.items())) == \
            (ref.cycles, list(ref.stats.items()))

    @pytest.mark.parametrize("late", [0, 1])
    def test_first_fault_in_the_interleave_is_raised(self, late):
        # Both cores load from an unmapped address; the *late* core gets
        # there after 20 more cycles, so the other core's fault is the
        # one the reference interleave meets first.
        def section(k):
            pad = "    addi t1, t1, 1\n" * (20 if k == late else 0)
            return (f"core{k}:\n    li t0, {0x50000000 + 0x1000 * k}\n"
                    f"{pad}    lw a0, 0(t0)\n    halt\n")

        text = section(0) + section(1)
        messages = {}
        for backend in ("reference", "compiled"):
            with pytest.raises(MemoryAccessError) as exc:
                _run_text(backend, text)
            messages[backend] = str(exc.value)
        early = 1 - late
        assert f"0x{0x50000000 + 0x1000 * early:08x}" in messages["reference"]
        assert messages["compiled"] == messages["reference"]

    @pytest.mark.parametrize("budget", [1, 50, 333])
    def test_budget_error_identical(self, budget):
        # Near its budget a core steps one instruction at a time, only
        # while it is the scheduler's pick.
        matrix = random_csr((24, 24), 0.5, seed=29)
        v = random_dense_vector(24, seed=30)
        cfg = multicore_config(2)
        cfg.cpu.max_instructions = budget
        messages = {}
        for backend in ("reference", "compiled"):
            with pytest.raises(SimulationError) as exc:
                run_spmv(matrix, v, config=on_backend(backend, cfg))
            messages[backend] = str(exc.value)
        assert f"instruction budget of {budget}" in messages["reference"]
        assert messages["compiled"] == messages["reference"]

    @pytest.mark.parametrize("divs,first", [(5, MemoryAccessError),
                                            (30, SimulationError)])
    def test_budget_error_waits_for_its_turn(self, divs, first):
        # Core 0 spins on private ops into its budget (around clock
        # 260); core 1 faults on a load after *divs* 16-cycle divides.
        # Whichever comes first in clock order is the error raised.
        text = ("core0:\n    li t0, 1000\nloop0:\n    addi t1, t1, 1\n"
                "    addi t0, t0, -1\n    bnez t0, loop0\n    halt\n"
                "core1:\n" + "    div t1, t1, t2\n" * divs
                + "    li t0, 0x50000000\n    lw a0, 0(t0)\n    halt\n")
        cfg = multicore_config(2)
        cfg.cpu.max_instructions = 200
        messages = {}
        for backend in ("reference", "compiled"):
            soc = Soc(on_backend(backend, cfg))
            with pytest.raises((MemoryAccessError, SimulationError)) as exc:
                soc.run(soc.assemble(text))
            messages[backend] = (type(exc.value), str(exc.value))
        assert messages["reference"][0] is first
        assert messages["compiled"] == messages["reference"]

    def test_pc_error_waits_for_its_turn(self):
        # Core 0 jumps out of the program at once; core 1 faults on a
        # load first in clock order only if errors wait for their turn.
        text = ("core0:\n    li t0, 4000\n    div t2, t2, t3\n"
                "    jalr zero, 0(t0)\n"
                "core1:\n    li t0, 0x50000000\n    lw a0, 0(t0)\n"
                "    halt\n")
        messages = {}
        for backend in ("reference", "compiled"):
            with pytest.raises((MemoryAccessError, SimulationError)) as exc:
                _run_text(backend, text)
            messages[backend] = (type(exc.value), str(exc.value))
        assert messages["reference"][0] is MemoryAccessError
        assert messages["compiled"] == messages["reference"]


class TestAccounting:
    def _two_core_run(self):
        matrix = random_csr((31, 31), 0.5, seed=27)
        v = random_dense_vector(31, seed=28)
        return run_spmv(matrix, v, config=multicore_config(2))

    def test_per_core_stats_and_requesters(self):
        stats = self._two_core_run().result.stats
        assert stats["soc.cpu0.instructions"] > 0
        assert stats["soc.cpu1.instructions"] > 0
        assert stats["soc.ram.requester.cpu0"] > 0
        assert stats["soc.ram.requester.cpu1"] > 0

    def test_contention_appears_in_queue_cycles(self):
        matrix = random_csr((31, 31), 0.5, seed=27)
        v = random_dense_vector(31, seed=28)
        one = run_spmv(matrix, v, config=multicore_config(1))
        two = run_spmv(matrix, v, config=multicore_config(2))
        assert one.result.stats.get("soc.ram.queue_cycles", 0) == 0
        assert two.result.stats["soc.ram.queue_cycles"] > 0
        # Parallel rows beat serial rows despite the queueing.
        assert two.cycles < one.cycles

    def test_contention_probe_sees_both_cores(self):
        matrix = random_csr((31, 31), 0.5, seed=27)
        v = random_dense_vector(31, seed=28)
        soc = Soc(multicore_config(2))
        soc.load_csr(matrix)
        soc.load_dense_vector(v)
        soc.allocate_output(matrix.nrows)
        for name, value in partition_rows(matrix.nrows, 2).items():
            soc.define_symbol(name, value)
        probe = ContentionProbe()
        result = soc.run(soc.assemble(spmv_multicore_kernel(2, vector=True)),
                         probes=(probe,))
        payload = result.probe_payloads["contention"]
        assert {"cpu0", "cpu1"} <= set(payload["requests"])

    def test_run_result_instructions_are_summed(self):
        run = self._two_core_run()
        stats = run.result.stats
        assert run.result.instructions == (stats["soc.cpu0.instructions"]
                                           + stats["soc.cpu1.instructions"])
        assert run.result.cycles == max(stats["soc.cpu0.cycles"],
                                        stats["soc.cpu1.cycles"])


class TestGuards:
    def test_accelerated_spmv_rejects_multicore(self):
        matrix = random_csr((16, 16), 0.5, seed=1)
        v = random_dense_vector(16, seed=2)
        with pytest.raises(ValueError, match="single-core"):
            run_spmv(matrix, v, hht=True, config=multicore_config(2))

    def test_accelerated_spmspv_rejects_multicore(self):
        matrix = random_csr((16, 16), 0.5, seed=1)
        sv = random_sparse_vector(16, 0.5, seed=2)
        with pytest.raises(ValueError, match="single-core"):
            run_spmspv(matrix, sv, mode="hht_v2",
                       config=multicore_config(2))

    def test_multicore_kernel_builder_needs_two_cores(self):
        with pytest.raises(ValueError, match="n_cores >= 2"):
            spmv_multicore_kernel(1, vector=True)
