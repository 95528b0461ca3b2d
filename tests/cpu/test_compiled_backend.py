"""Unit tests for the compiled (basic-block translation) backend.

Cross-backend *equivalence* is proven by the determinism suite and
``tests/instrument/test_cross_backend.py``; this file tests the
backend's own machinery — block caching, invalidation, translation
telemetry, self-loop closures and the budget/PC error paths.
"""

import pytest

from repro.cpu import CompiledBackend, Cpu, CpuConfig, SimulationError
from repro.isa import assemble
from repro.memory import Bus, MemoryPort, Ram


def make_cpu(backend: str = "compiled", *, max_instructions: int | None = None,
             ram_bytes: int = 1 << 16):
    ram = Ram(ram_bytes)
    bus = Bus(ram, MemoryPort(latency=2))
    kwargs: dict = {"backend": backend}
    if max_instructions is not None:
        kwargs["max_instructions"] = max_instructions
    cpu = Cpu(bus, CpuConfig(**kwargs))
    return cpu, ram


COUNT_LOOP = """\
    li t0, 0
    li t1, 50
loop:
    addi t0, t0, 1
    blt t0, t1, loop
    halt
"""


class TestBlockCache:
    def test_backend_attached_and_blocks_compiled(self):
        cpu, _ = make_cpu()
        cpu.run(assemble("li a0, 5\nli a1, 7\nadd a2, a0, a1\nhalt"))
        backend = cpu._compiled_backend
        assert isinstance(backend, CompiledBackend)
        assert backend.blocks_compiled >= 1
        assert backend.instructions_translated >= 4
        assert cpu.x[12] == 12

    def test_blocks_reused_across_runs(self):
        cpu, _ = make_cpu()
        program = assemble(COUNT_LOOP)
        cpu.run(program)
        compiled_once = cpu._compiled_backend.blocks_compiled
        cpu.run(program)
        assert cpu._compiled_backend.blocks_compiled == compiled_once

    def test_distinct_programs_cached_by_digest(self):
        cpu, _ = make_cpu()
        cpu.run(assemble("li a0, 1\nhalt"))
        cpu.run(assemble("li a0, 2\nhalt"))
        assert len(cpu._compiled_backend._programs) == 2

    def test_latency_change_invalidates_cache(self):
        cpu, _ = make_cpu()
        program = assemble(COUNT_LOOP)
        cpu.run(program)
        backend = cpu._compiled_backend
        compiled_once = backend.blocks_compiled
        cpu.lat.int_alu += 1  # cycle charges are baked into closures
        cpu.run(program)
        assert backend.blocks_compiled > compiled_once

    def test_program_cache_is_bounded(self):
        cpu, _ = make_cpu()
        backend = CompiledBackend(cpu)
        cpu._compiled_backend = backend
        backend.MAX_PROGRAMS = 2
        for k in range(4):
            cpu.run(assemble(f"li a0, {k}\nhalt"))
        assert len(backend._programs) <= 2


class TestTranslationTelemetry:
    def test_describe_keys(self):
        cpu, _ = make_cpu()
        cpu.run(assemble(COUNT_LOOP))
        info = cpu._compiled_backend.describe()
        assert set(info) == {
            "blocks_compiled", "instructions_translated",
            "forwarded_reads", "folded_constants", "fused_pairs",
            "loop_blocks", "code_reused", "yields", "tlb_fallbacks",
        }
        assert all(v >= 0 for v in info.values())
        # Single core, no MMU: no hand-offs and no TLB checks.
        assert info["yields"] == info["tlb_fallbacks"] == 0

    def test_code_objects_shared_across_cpus(self):
        """A second CPU running the same program reuses every compiled
        code object, while each block still binds its own CPU: the
        escape-hatch sub-word ops act on the CPU that runs them."""
        program = assemble(
            "li a0, 300\nsb a0, 0x100(zero)\nlb a1, 0x100(zero)\nhalt"
        )
        first, ram0 = make_cpu()
        first.run(program)
        second, ram1 = make_cpu()
        second.run(program)
        info = second._compiled_backend.describe()
        assert info["blocks_compiled"] >= 1
        assert info["code_reused"] == info["blocks_compiled"]
        for cpu, ram in ((first, ram0), (second, ram1)):
            assert cpu.x[11] == 44
            assert ram.read_u8(0x100) == 44

    def test_constants_fold_and_reads_forward(self):
        cpu, _ = make_cpu()
        # li feeds add feeds sw: indices and immediates are closure
        # constants, and a2 is forwarded into the store without an
        # x[] read-back.
        cpu.run(assemble(
            "li a0, 5\nli a1, 7\nadd a2, a0, a1\nsw a2, 0x100(zero)\nhalt"
        ))
        backend = cpu._compiled_backend
        assert backend.folded_constants >= 1
        assert backend.forwarded_reads >= 1

    def test_self_loop_compiles_to_loop_block(self):
        cpu, _ = make_cpu()
        cpu.run(assemble(COUNT_LOOP))
        backend = cpu._compiled_backend
        assert backend.loop_blocks == 1
        assert cpu.x[5] == 50

    def test_block_source_is_kept(self):
        cpu, _ = make_cpu()
        program = assemble(COUNT_LOOP)
        cpu.run(program)
        blocks = cpu._compiled_backend.blocks_for(program)
        assert blocks, "block cache unexpectedly empty"
        for block in blocks.values():
            assert f"def _block_{block.entry}(" in block.source


class TestErrorPaths:
    """Budget and PC errors must match the reference path bit-exactly
    (message text and the state at the raise)."""

    def _run_err(self, backend, source, *, max_instructions=None):
        cpu, _ = make_cpu(backend, max_instructions=max_instructions)
        with pytest.raises(SimulationError) as exc:
            cpu.run(assemble(source))
        return str(exc.value), cpu.counters.instructions, cpu.cycle

    @pytest.mark.parametrize("budget", [1, 7, 16, 100, 101, 102, 103])
    def test_budget_exhaustion_identical(self, budget):
        # The loop body re-enters the self-loop closure; the budget may
        # land mid-burst, so every alignment of budget vs block length
        # must fall back to the per-instruction reference tail.
        ref = self._run_err("reference", COUNT_LOOP,
                            max_instructions=budget)
        com = self._run_err("compiled", COUNT_LOOP,
                            max_instructions=budget)
        assert com == ref
        assert f"instruction budget of {budget}" in ref[0]

    def test_pc_out_of_range_identical(self):
        # Falls off the end of the program (no halt).
        ref = self._run_err("reference", "li a0, 1\nli a1, 2")
        com = self._run_err("compiled", "li a0, 1\nli a1, 2")
        assert com == ref
        assert "PC out of range: 2" in ref[0]

    def test_jump_out_of_range_identical(self):
        src = "li a0, 1\nli t0, 40\njalr zero, 0(t0)"
        ref = self._run_err("reference", src)
        com = self._run_err("compiled", src)
        assert com == ref
        assert "PC out of range" in ref[0]


class TestBankedAndCachedDeference:
    """On non-Table-1 memory systems the backend must not inline RAM
    accesses (timing goes through the real bus), yet stays compiled."""

    def test_banked_port_not_inlined(self):
        ram = Ram(1 << 16)
        bus = Bus(ram, MemoryPort(latency=2, banks=4))
        cpu = Cpu(bus, CpuConfig(backend="compiled"))
        cpu.run(assemble(
            "li a0, 0x100\nsw a0, 0(a0)\nlw a1, 0(a0)\nhalt"
        ))
        assert cpu._compiled_backend.inline_ram is False
        assert cpu.x[11] == 0x100
