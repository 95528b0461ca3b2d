"""Compiled execution backend: basic-block translation to closures.

The reference interpreter in :mod:`repro.cpu.core` pays, per simulated
instruction, one dispatch-tuple load, one bound-method call, a handful of
attribute loads (``self.x``, ``self.lat``, ``ins.rd`` ...) and one
``_charge`` call.  This module removes that tax the way Spike and other
fast functional simulators do: discover *basic blocks* at first
execution, translate each decoded block into one specialized Python
closure, and thereafter run whole blocks per dispatch.

Specialization folds everything static into the generated source:

* register indices, immediates and branch targets become literals;
* per-instruction cycle charges are summed at translation time, so a run
  of K single-cycle ALU ops costs one ``cycle += K`` at runtime;
* class counts are batched into one dict update per class per block;
* values written earlier in a block are *forwarded* to later reads
  through local temporaries — the adjacent pairs the ISA makes common
  (``lw``+``add``, ``bne``+``addi``) fuse into superinstructions that
  never touch the architectural register file between the two halves;
* constants propagate: ``li``/``la``/``lui`` results fold into later
  address computations and ALU results at translation time;
* on the paper's Table-1 memory system (single bank, no L1D) the whole
  RAM load/store accounting chain (``Bus.load_word`` → ``MemorySystem``
  → ``MemoryPort.issue`` → ``PortStats.record``) inlines to a few local
  operations, guarded by an address-range test so MMIO (HHT FIFOs,
  configuration registers) still takes the real bus path; scalar word
  traffic and gathers go through buffer-protocol ``memoryview`` handles
  of the same RAM array (identical bytes, no numpy scalar boxing), and
  an all-in-RAM indexed gather collapses the element-serialized port
  chain to its closed form (slots at ``latency + 1`` steps, queue wait
  only on the first element).  An MMU does not decline the inline
  path: behind a ``TranslatingBus`` the block checks the core's TLB
  itself (a hit on the youngest entry only counts a hit, any other hit
  is an exact LRU touch) and a miss calls the translating bus, whose
  ``Tlb.translate`` walks the page table exactly as the reference;
* a *self-loop* block — terminal branch targeting its own entry, the
  shape of every hot inner loop — compiles to a closure that iterates
  internally: register/counter prologue, exit epilogue and dispatch are
  paid once per burst of iterations, and per-class counts are applied
  once, multiplied by the iteration count.  The dispatcher caps each
  burst so the instruction budget still fires at the exact reference
  instruction;
* a *strip-mined* self-loop — ``vsetvli`` on the remaining count,
  unit-stride loads on induction pointers, gathers, lane-wise float32
  ops and accumulators, pointer and count updates, ``bnez`` — runs each
  entry in bulk: one numpy pass over the whole row does every strip's
  data work (:class:`_StripLoop`) and the timing follows in closed
  form; a strip that would fault, a budget cap inside the loop, another
  core or an MMU leave it to the per-strip loop;
* a multi-core session runs *generator* blocks under
  :func:`run_compiled_cores`: before each shared op (memory, MMIO,
  escape hatch) a block compares its clock with a bound the driver
  sets, and yields to the other cores when it must wait, so shared ops
  happen in the reference interleave's exact order.

Compiled blocks are cached per ``(code_digest, multi, entry_pc)`` — a new
``Program`` object with identical instructions reuses the cache, while
reloading a different program invalidates nothing but simply resolves to
its own block set.

**Bit-identity contract.**  With no probes attached, a compiled run
produces exactly the reference interpreter's cycles, instruction counts,
flat stats registry, architectural state and ``SimulationError``
messages.  Every generated operation mirrors the corresponding
``Cpu._op_*`` handler's arithmetic (including numpy float32 rounding in
the vector unit and the exact port-slot accounting).  Two deliberate
boundaries:

* probes/samplers force deference — :meth:`SimSession.run` only enters
  :func:`run_compiled` when *no* probe is attached, because compiled
  blocks skip the per-instruction hooks and ``probe_sink`` events;
* a ``MemoryAccessError`` aborts mid-block, so the *partial* charges of
  the faulting block (and, multi-core, the private progress of the other
  cores) may differ from the reference abort state (the exception type,
  message and memory-system side effects are identical; no test or
  figure depends on post-fault timing).

The instruction budget stays bit-exact: when a block could cross the
budget limit the dispatcher falls back to per-instruction reference
stepping for the tail, reproducing the reference error at the exact
instruction.
"""

from __future__ import annotations

import hashlib
import math
import sys
import weakref

import numpy as np

from ..isa.encoding import s32
from ..isa.program import Program
from .core import HANDLERS

_U32 = 0xFFFFFFFF

#: Ops that end a basic block (control transfer or machine stop).
CONTROL_OPS = frozenset(
    "beq bne blt bge bltu bgeu jal jalr halt ecall ebreak".split()
)

#: Translation stops after this many instructions even without a
#: control op; the dispatcher simply chains into the next block.
MAX_BLOCK_LEN = 64

_BRANCH_COND = {
    "beq": ("==", False), "bne": ("!=", False),
    "blt": ("<", False), "bge": (">=", False),
    "bltu": ("<", True), "bgeu": (">=", True),
}

_BRANCH_FOLD = {
    "beq": lambda a, b: a == b, "bne": lambda a, b: a != b,
    "blt": lambda a, b: a < b, "bge": lambda a, b: a >= b,
    "bltu": lambda a, b: (a & _U32) < (b & _U32),
    "bgeu": lambda a, b: (a & _U32) >= (b & _U32),
}


def _w(expr: str) -> str:
    """Source text of ``s32(expr)`` (wrap to signed 32-bit)."""
    return f"((({expr}) + 0x80000000) & 0xFFFFFFFF) - 0x80000000"


# op -> (expr builder over two operand atoms, constant folder).  The
# builders mirror Cpu._op_* arithmetic exactly; the folders are the same
# formulas evaluated at translation time.
_ALU3 = {
    "add": (lambda a, b: _w(f"{a} + {b}"), lambda a, b: s32(a + b)),
    "sub": (lambda a, b: _w(f"{a} - {b}"), lambda a, b: s32(a - b)),
    "and": (lambda a, b: _w(f"{a} & {b}"), lambda a, b: s32(a & b)),
    "or": (lambda a, b: _w(f"{a} | {b}"), lambda a, b: s32(a | b)),
    "xor": (lambda a, b: _w(f"{a} ^ {b}"), lambda a, b: s32(a ^ b)),
    "sll": (lambda a, b: _w(f"{a} << ({b} & 31)"),
            lambda a, b: s32(a << (b & 31))),
    "srl": (lambda a, b: _w(f"({a} & 0xFFFFFFFF) >> ({b} & 31)"),
            lambda a, b: s32((a & _U32) >> (b & 31))),
    "sra": (lambda a, b: f"{a} >> ({b} & 31)", lambda a, b: a >> (b & 31)),
    "slt": (lambda a, b: f"int({a} < {b})", lambda a, b: int(a < b)),
    "sltu": (lambda a, b: f"int(({a} & 0xFFFFFFFF) < ({b} & 0xFFFFFFFF))",
             lambda a, b: int((a & _U32) < (b & _U32))),
    "mul": (lambda a, b: _w(f"{a} * {b}"), lambda a, b: s32(a * b)),
    "mulh": (lambda a, b: _w(f"({a} * {b}) >> 32"),
             lambda a, b: s32((a * b) >> 32)),
    "mulhu": (lambda a, b:
              _w(f"(({a} & 0xFFFFFFFF) * ({b} & 0xFFFFFFFF)) >> 32"),
              lambda a, b: s32(((a & _U32) * (b & _U32)) >> 32)),
    "mulhsu": (lambda a, b: _w(f"({a} * ({b} & 0xFFFFFFFF)) >> 32"),
               lambda a, b: s32((a * (b & _U32)) >> 32)),
    # Immediate shifts take the immediate unmasked, like the handlers.
    "slli": (lambda a, b: _w(f"{a} << {b}"), lambda a, b: s32(a << b)),
    "srli": (lambda a, b: _w(f"({a} & 0xFFFFFFFF) >> {b}"),
             lambda a, b: s32((a & _U32) >> b)),
    "srai": (lambda a, b: f"{a} >> {b}", lambda a, b: a >> b),
}

#: Immediate ALU ops sharing a 3-register builder's semantics.
_ALU_IMM = {
    "addi": "add", "andi": "and", "ori": "or", "xori": "xor",
    "slti": "slt", "sltiu": "sltu",
    "slli": "slli", "srli": "srli", "srai": "srai",
}

_FP2 = {
    "fadd.s": lambda a, b: f"{a} + {b}",
    "fsub.s": lambda a, b: f"{a} - {b}",
    "fmul.s": lambda a, b: f"{a} * {b}",
    "fmin.s": lambda a, b: f"min({a}, {b})",
    "fmax.s": lambda a, b: f"max({a}, {b})",
    "fsgnj.s": lambda a, b: f"_math.copysign(abs({a}), {b})",
    "fsgnjn.s": lambda a, b:
        f"_math.copysign(abs({a}), -_math.copysign(1.0, {b}))",
}

_FMA = {
    "fmadd.s": lambda a, b, c: f"{a} * {b} + {c}",
    "fmsub.s": lambda a, b, c: f"{a} * {b} - {c}",
    "fnmadd.s": lambda a, b, c: f"-({a} * {b}) - {c}",
    "fnmsub.s": lambda a, b, c: f"-({a} * {b}) + {c}",
}

_VF_BINARY = {"vfadd.vv": "add", "vfsub.vv": "subtract",
              "vfmul.vv": "multiply"}
_VI_BINARY = {"vadd.vv": "add", "vsub.vv": "subtract",
              "vmul.vv": "multiply", "vand.vv": "bitwise_and",
              "vor.vv": "bitwise_or", "vxor.vv": "bitwise_xor"}
_VX_BINARY = {"vadd.vx": "add", "vmul.vx": "multiply",
              "vand.vx": "bitwise_and", "vor.vx": "bitwise_or"}

#: Lane-wise vector ops a strip-mined loop may run in bulk (besides its
#: leading ``vsetvli``): each has a whole-row form of one numpy call.
_STRIP_OPS = frozenset(("vle32.v", "vluxei32.v", "vsll.vi", "vfmacc.vv",
                        *_VF_BINARY))


def _strip_plan(span) -> tuple | None:
    """``(avl, vl, shift, pointers, ops)`` when *span* (a self-loop
    block) is a strip-mined loop, the shape of the CPU baselines'
    ``chunk_loop``; else None.

    The shape: ``vsetvli vl, avl`` first; then lane-wise vector ops
    (:data:`_STRIP_OPS`) whose sources were written earlier in the same
    strip, except a ``vfmacc.vv`` accumulator no other op touches;
    ``vle32.v`` only on induction pointers, ``vluxei32.v`` only on
    loop-invariant bases; then scalar ``slli shift, vl, 2``, one ``add
    p, p, shift`` per induction pointer and ``sub avl, avl, vl``; and
    ``bnez avl`` back to the entry.  Each strip then covers the next
    ``vl`` elements of every stream, so all strips together cover
    ``avl`` consecutive elements.
    """
    first, last = span[0][1], span[-1][1]
    avl, vl = first.rs1, first.rd
    if (first.op != "vsetvli" or not avl or not vl or avl == vl
            or last.op != "bne" or {last.rs1, last.rs2} != {avl, 0}):
        return None
    body = [ins for _, ins in span[1:-1]]
    k = 0
    while k < len(body) and body[k].op in _STRIP_OPS:
        k += 1
    shift = None
    pointers: list[int] = []
    counted = False
    for ins in body[k:]:
        if (ins.op == "slli" and shift is None and ins.rs1 == vl
                and ins.imm == 2 and ins.rd not in (0, vl, avl)):
            shift = ins.rd
        elif (ins.op == "add" and shift is not None
              and ins.rd not in (0, vl, avl, shift, *pointers)
              and {ins.rs1, ins.rs2} == {ins.rd, shift}):
            pointers.append(ins.rd)
        elif (ins.op == "sub" and not counted and ins.rd == ins.rs1 == avl
              and ins.rs2 == vl):
            counted = True
        else:
            return None
    written = {avl, vl, shift, *pointers}
    defined: set[int] = set()
    accumulators: set[int] = set()
    loaded: set[int] = set()
    for ins in body[:k]:
        op = ins.op
        if op == "vle32.v":
            sources = ()
            if ins.rs1 not in pointers:
                return None
            loaded.add(ins.rs1)
        elif op == "vluxei32.v":
            sources = (ins.rs2,)
            if ins.rs1 in written:
                return None
        elif op == "vsll.vi":
            sources = (ins.rs1,)
        else:
            sources = (ins.rs1, ins.rs2)
        if not defined.issuperset(sources) or ins.rd in accumulators:
            return None
        if op == "vfmacc.vv":
            if ins.rd in defined:
                return None
            accumulators.add(ins.rd)
        else:
            defined.add(ins.rd)
    if not counted or not pointers or loaded != set(pointers):
        return None
    return avl, vl, shift, tuple(pointers), tuple(body[:k])


class _StripLoop:
    """Bulk data path of one strip-mined loop (see :func:`_strip_plan`).

    Called once per entry of the loop block: it works out the trip
    count, runs every strip's data work as whole-row numpy operations
    and writes the loop's final architectural state, leaving only the
    timing to the block.  The row form is exact: slices and gathers
    read the same words, the lane-wise ops round the same float32
    operands, and an accumulator sums its lane's products in strip
    order (``np.add.accumulate`` over the full strips, then the partial
    last strip into its first lanes), as the strip-by-strip adds do.
    It declines (returns None, changing nothing) when a strip would
    leave RAM or misalign, or the trips would pass the budget cap, so
    the block's per-strip loop runs and faults or stops exactly there.
    """

    __slots__ = ("avl", "vl", "shift", "pointers", "ops", "vlmax",
                 "ram_size", "ram_u32", "counters")

    def __init__(self, plan: tuple, vlmax: int, ram, counters: list):
        self.avl, self.vl, self.shift, self.pointers, ops = plan
        self.ops = tuple((ins.op, ins.rd, ins.rs1, ins.rs2, ins.imm)
                         for ins in ops)
        self.vlmax = vlmax
        self.ram_size = ram.size
        self.ram_u32 = ram._u32
        self.counters = counters

    def __call__(self, cpu, cap: int) -> tuple[int, int, int] | None:
        """``(trips, elements, last vl)`` once done, else None."""
        done = self._run(cpu, cap)
        self.counters[done is None] += 1
        return done

    def _run(self, cpu, cap: int) -> tuple[int, int, int] | None:
        x = cpu.x
        n = x[self.avl] & _U32
        vlmax = self.vlmax
        trips = -(-n // vlmax)
        if not n or trips > cap:
            return None
        ram_size = self.ram_size
        for p in self.pointers:
            addr = x[p] & _U32
            if addr & 3 or addr + (n << 2) > ram_size:
                return None
        ram = self.ram_u32
        rows: dict[int, np.ndarray] = {}
        products = []
        for op, rd, rs1, rs2, imm in self.ops:
            if op == "vle32.v":
                w = (x[rs1] & _U32) >> 2
                rows[rd] = ram[w:w + n]
            elif op == "vluxei32.v":
                eas = rows[rs2] + np.uint32(x[rs1] & _U32)
                if int(eas.max()) >= ram_size or (eas & 3).any():
                    return None
                rows[rd] = ram[eas >> 2]
            elif op == "vsll.vi":
                rows[rd] = np.left_shift(rows[rs1], imm)
            elif op == "vfmacc.vv":
                products.append((rd, np.multiply(
                    rows[rs1].view(np.float32), rows[rs2].view(np.float32))))
            else:
                rows[rd] = getattr(np, _VF_BINARY[op])(
                    rows[rs1].view(np.float32),
                    rows[rs2].view(np.float32)).view(np.uint32)
        # Final lanes: the last strip's first ``last`` lanes, and the
        # strip before it in the lanes the last one leaves undisturbed.
        last = n - (trips - 1) * vlmax
        lo = n - last
        v = cpu.v
        for r, row in rows.items():
            if trips > 1:
                v[r][last:] = row[lo - vlmax + last:lo]
            v[r][:last] = row[lo:]
        full = n - n % vlmax
        for r, prod in products:
            acc = v[r].view(np.float32)
            sums = np.empty((full // vlmax + 1, vlmax), np.float32)
            sums[0] = acc
            sums[1:] = prod[:full].reshape(-1, vlmax)
            total = np.add.accumulate(sums)[-1]
            if full < n:
                total[:n - full] += prod[full:]
            acc[:] = total
        x[self.vl] = last
        x[self.shift] = last << 2
        for p in self.pointers:
            x[p] += n << 2
        x[self.avl] = 0
        cpu.vl = last
        return trips, n, last


#: Generated block source -> its compiled code object, shared by every
#: backend in the process.  Sweep points of one kernel emit the same
#: block sources, so codegen still runs per CPU but ``compile()`` runs
#: once per source; the code is ``exec``'d into each block's own scope,
#: which binds that CPU's bus, port and RAM.  Code objects are
#: immutable, so sharing them changes nothing a block does.
_CODE_CACHE: dict[str, object] = {}
_CODE_CACHE_MAX = 512


def _program_digest(program: Program) -> str:
    """Content digest of a program's semantic instruction fields.

    Cached on the program object: equal instruction streams share one
    digest (and therefore one compiled-block set), and reassembling or
    reloading a program resolves to a fresh, correct entry.
    """
    digest = getattr(program, "_compiled_digest", None)
    if digest is None:
        h = hashlib.sha256()
        for ins in program.instructions:
            h.update(repr((ins.op, ins.rd, ins.rs1, ins.rs2, ins.rs3,
                           ins.imm, ins.target)).encode())
        digest = h.hexdigest()[:16]
        program._compiled_digest = digest
    return digest


class CompiledBlock:
    """One translated basic block: a closure plus its instruction count.

    A *looping* block (terminal branch targeting its own entry) has the
    signature ``fn(cpu, max_execs) -> (next_pc, execs)`` and iterates
    internally; a plain block is ``fn(cpu) -> next_pc``.  A *gen* block
    (multi-core mode, at least one shared op) is a generator function
    with the same arguments that returns the same value and yields
    whenever a shared op must wait for another core.
    """

    __slots__ = ("fn", "n", "entry", "source", "looping", "gen")

    def __init__(self, fn, n: int, entry: int, source: str,
                 looping: bool = False, gen: bool = False):
        self.fn = fn
        self.n = n
        self.entry = entry
        self.source = source
        self.looping = looping
        self.gen = gen


class _ConstLoopBranch(Exception):
    """Raised during loop translation when the backward branch folds to
    a constant; the caller recompiles the block straight-line."""


class _Codegen:
    """Accumulates the source of one block closure."""

    def __init__(self, backend, multi: bool = False):
        self.backend = backend
        self.multi = multi
        self.gen = False                 # emitted a yield (multi only)
        self.lines: list[str] = []
        self.ind = 0
        self.pending = 0                 # static cycles not yet applied
        self.counts: dict[str, int] = {}         # class -> exec count
        self.static_cycles: dict[str, int] = {}  # class -> static cycles
        self.dyn_vars: dict[str, str] = {}       # class -> accumulator var
        self.xval: dict[int, tuple[str, object]] = {}  # forwarding map
        self.fval: dict[int, str] = {}
        self.needs: set[str] = set()
        self.ntemp = 0
        self.last_written: int | None = None
        self.hit_prev = False
        # Dead-store blanking: reg -> index of its last architectural
        # store line, eligible for removal if overwritten before the
        # next barrier (escape / branch / block exit).
        self.xstore_lines: dict[int, int] = {}
        self.keyed: set[str] = set()     # classes given registry keys
        self.bulk: list[str] = []        # a strip loop's bulk arm

    # -- emission ------------------------------------------------------
    def emit(self, line: str) -> None:
        self.lines.append("    " * (1 + self.ind) + line)

    def temp(self) -> str:
        self.ntemp += 1
        return f"_t{self.ntemp}"

    def need(self, *names: str) -> None:
        self.needs.update(names)

    # -- register access with value forwarding -------------------------
    def xref(self, i: int) -> tuple[str, int | None]:
        """(source atom, constant value or None) for a read of x[i]."""
        if i == 0:
            return "0", 0
        entry = self.xval.get(i)
        if entry is None:
            self.need("x")
            return f"x[{i}]", None
        self.backend.forwarded_reads += 1
        if i == self.last_written:
            self.hit_prev = True
        kind, payload = entry
        if kind == "const":
            return (f"({payload})" if payload < 0 else str(payload)), payload
        return payload, None

    def xwrite(self, i: int, expr: str, const: int | None = None) -> None:
        """Write x[i]; the architectural file is updated at the latest
        by the next barrier (a store made dead by a later same-block
        store to the same register is blanked — no emitted code between
        them can observe x[] directly)."""
        if not i:
            return
        self.need("x")
        stale = self.xstore_lines.get(i)
        if stale is not None:
            self.lines[stale] = None
        if const is not None:
            self.emit(f"x[{i}] = {expr}")
            self.xval[i] = ("const", const)
            self.backend.folded_constants += 1
        else:
            t = self.temp()
            self.emit(f"{t} = {expr}")
            self.emit(f"x[{i}] = {t}")
            self.xval[i] = ("name", t)
        self.xstore_lines[i] = len(self.lines) - 1
        self.last_written = i

    def store_barrier(self) -> None:
        """Every prior architectural store is now observable — stop
        blanking across this point."""
        self.xstore_lines.clear()

    def fref(self, i: int) -> str:
        name = self.fval.get(i)
        if name is None:
            self.need("f")
            return f"f[{i}]"
        self.backend.forwarded_reads += 1
        return name

    def fwrite(self, i: int, expr: str) -> None:
        self.need("f")
        t = self.temp()
        self.emit(f"{t} = {expr}")
        self.emit(f"f[{i}] = {t}")
        self.fval[i] = t

    def invalidate(self) -> None:
        self.xval.clear()
        self.fval.clear()
        self.last_written = None
        self.store_barrier()

    # -- batched port accounting ---------------------------------------
    def port_flush(self) -> None:
        """Flush the block-local port counter deltas, if any.

        Emitted before every real bus call and at block exits, so the
        port's counters (and the first-touch insertion order of
        ``by_requester``) are exactly the reference's at every point
        where another requester — or the caller — can observe them.
        """
        if "port" not in self.needs:
            return
        req = repr(self.backend.requester)
        self.emit("if _pc_req:")
        self.ind += 1
        self.emit("_pcnt.requests += _pc_req")
        self.emit("_pcnt.busy_cycles += _pc_req")
        self.emit("_pcnt.queue_cycles += _pc_q")
        self.emit(f"_pbr[{req}] = _pbr.get({req}, 0) + _pc_req")
        self.emit("_pc_req = 0")
        self.emit("_pc_q = 0")
        self.ind -= 1

    def shared_op(self) -> None:
        """Multi-core gate before an op that touches shared state.

        Emitted after the pending cycles are flushed, so ``cycle`` is
        the op's start clock.  The op may go only while ``cycle <=
        _bound`` (see :func:`run_compiled_cores`); otherwise the block
        publishes its clock and port deltas and yields until the driver
        resumes it with a new bound.
        """
        if not self.multi:
            return
        self.gen = True
        self.emit("if cycle > _bound:")
        self.ind += 1
        self.port_flush()
        self.emit("cpu.cycle = cycle")
        self.emit("yield")
        self.emit("_bound = cpu._bound")
        self.ind -= 1

    # -- inline TLB hits -------------------------------------------------
    def tlb_hit(self, addr: str, last: str | None = None) -> str:
        """Condition that *addr*'s page hits the TLB (binding ``_vpn``);
        with *last*, also that ``[addr, last]`` lies in that one page.
        Changes nothing: pair it with :meth:`tlb_touch`."""
        self.need("tlb")
        shift = self.backend.page_shift
        vpn = f"(_vpn := {addr} >> {shift})"
        if last is not None:
            return (f"{vpn} == ({last}) >> {shift} "
                    "and (_vpn == _ty or _vpn in _te)")
        return f"({vpn} == _ty or _vpn in _te)"

    def tlb_touch(self) -> None:
        """``Tlb.translate``'s hit on ``_vpn``: the LRU touch (skipped
        when ``_vpn`` already is the youngest entry) and a batched
        ``hits`` increment."""
        self.emit("if _vpn != _ty:")
        self.emit("    del _te[_vpn]")
        self.emit("    _te[_vpn] = True")
        self.emit("    _ty = _vpn")
        self.emit("_th += 1")

    def tlb_fallback(self) -> None:
        """Counted at the head of a fallback arm of an inline check."""
        if self.backend.tlb is not None:
            self.emit("_fb[0] += 1")

    def tlb_forget(self) -> None:
        """After a call that may have translated: the youngest entry is
        no longer known."""
        if self.backend.tlb is not None:
            self.emit("_ty = -1")

    def tlb_flush(self) -> None:
        if "tlb" in self.needs:
            self.emit("_tc.hits += _th")

    # -- cycle / class accounting --------------------------------------
    def charge_static(self, klass: str, cycles: int) -> None:
        self.counts[klass] = self.counts.get(klass, 0) + 1
        self.static_cycles[klass] = self.static_cycles.get(klass, 0) + cycles
        self.pending += cycles

    def dyn_var(self, klass: str) -> str:
        var = self.dyn_vars.get(klass)
        if var is None:
            var = f"_dc_{klass}"
            self.dyn_vars[klass] = var
        return var

    def charge_dyn(self, klass: str, cost_atom: str) -> None:
        """Count one instruction of *klass* whose cycle cost is the
        runtime value already held in *cost_atom*; advances ``cycle``."""
        self.counts[klass] = self.counts.get(klass, 0) + 1
        self.emit(f"cycle += {cost_atom}")
        self.emit(f"{self.dyn_var(klass)} += {cost_atom}")

    def class_keys(self) -> None:
        """Before an escape-hatch call, which charges its own class at
        once: give each class batched so far its registry keys (at 0
        when new), so the keys keep the reference's first-charge order."""
        for klass in self.counts:
            if klass not in self.keyed:
                self.keyed.add(klass)
                self.need("cc")
                self.emit(f"if {klass!r} not in _cc:")
                self.emit(f"    _cc[{klass!r}] = _ccy[{klass!r}] = 0")

    def flush_pending(self) -> None:
        if self.pending:
            self.emit(f"cycle += {self.pending}")
            self.pending = 0

    def epilogue(self, extra_counts: dict[str, int] | None = None,
                 extra_cycles: dict[str, int] | None = None) -> None:
        """Flush cycle and batched class counters back to the cpu.

        Emitted once per block exit arm (branch taken / fallthrough /
        straight-line end), so each arm can carry its own branch cost.
        """
        self.port_flush()
        self.tlb_flush()
        self.emit("cpu.cycle = cycle")
        counts = dict(self.counts)
        for klass, n in (extra_counts or {}).items():
            counts[klass] = counts.get(klass, 0) + n
        if counts:
            self.need("cc")
        for klass, n in counts.items():
            parts = []
            static = (self.static_cycles.get(klass, 0)
                      + (extra_cycles or {}).get(klass, 0))
            if static:
                parts.append(str(static))
            if klass in self.dyn_vars:
                parts.append(self.dyn_vars[klass])
            self.emit(f"_cc[{klass!r}] = _cc.get({klass!r}, 0) + {n}")
            # A class that costs 0 cycles still gets its key, as
            # ``Cpu._charge`` gives it one.
            self.emit(f"_ccy[{klass!r}] = _ccy.get({klass!r}, 0) + "
                      + " + ".join(parts or ["0"]))


class CompiledBackend:
    """Per-CPU translation cache and block compiler.

    Blocks are keyed ``(code_digest, entry_pc)`` (a two-level dict) and
    survive :meth:`Cpu.reset` — registers, counters and port state are
    re-fetched in every closure's prologue precisely so the cache can.

    Nothing the backend holds points back to its CPU strongly (the CPU
    is a weak reference, escape handlers are unbound and take ``cpu``
    as an argument), so a finished CPU and its backend are freed by
    reference counting alone.
    """

    MAX_PROGRAMS = 32

    def __init__(self, cpu):
        self._cpu = weakref.ref(cpu)
        bus = cpu.bus
        self.port = bus.port
        self.ram = bus.ram
        # The whole-chain memory inline is only valid on the Table-1
        # memory system: one bank, no L1D.  Otherwise every memory op
        # goes through the real bus call (still compiled, just not
        # inlined) so banked/cached timing stays bit-identical.  Behind
        # an MMU (a TranslatingBus) the inline path first checks that
        # the page hits the core's TLB; a miss takes the bus call, whose
        # translate walks the page table exactly as the reference does.
        self.inline_ram = self.port.banks == 1 and bus.mem.cache is None
        self.tlb = getattr(bus, "tlb", None)
        self.page_shift = (self.tlb._page_shift if self.tlb is not None
                           else 0)
        self.requester = bus.default_requester
        self._programs: dict[tuple, dict[int, CompiledBlock]] = {}
        self._lat_snapshot: tuple | None = None
        # Backend-internal telemetry (deliberately NOT in the stats
        # registry: the registry is part of the bit-identity contract).
        self.blocks_compiled = 0
        self.instructions_translated = 0
        self.forwarded_reads = 0
        self.folded_constants = 0
        self.fused_pairs = 0
        self.loop_blocks = 0
        self.code_reused = 0
        self.yields = 0
        # Bumped by generated code on the fallback arm of an inline TLB
        # check; a one-element list so blocks share it through globals.
        self._fallbacks = [0]
        # Strip-mined loop entries run in bulk / declined, bumped by
        # each block's :class:`_StripLoop` (or, where the bulk path
        # cannot apply at all, by the block itself).
        self._bulk = [0, 0]
        self._base_globals = {
            "_np": np,
            "_f32": np.float32,
            "_i32": np.int32,
            "_u32": np.uint32,
            "_math": math,
            "_bus_load": bus.load_word,
            "_bus_store": bus.store_word,
            "_bus_burst": bus.load_burst,
            "_bus_store_burst": bus.store_burst,
            "_port": self.port,
            "_bulkn": self._bulk,
            "_ram_u32": self.ram._u32,
            "_ram_f32": self.ram._f32,
            # Same RAM words through the buffer protocol: a memoryview
            # index returns a plain int with no numpy-scalar boxing, and
            # a write stores the same four bytes np.uint32 would.
            "_ram_mv": memoryview(self.ram._u32),
            # Scratch for vfmacc's product (avoids a temp allocation);
            # never escapes a single emitted statement pair.
            "_scr": np.empty(64, dtype=np.float32),
        }
        from .core import (
            _PACK_F, _PACK_I, _UNPACK_F, _UNPACK_I, _bits_f32, _f32bits,
        )
        self._base_globals.update(
            _pkf=_PACK_F, _pki=_PACK_I, _upf=_UNPACK_F, _upi=_UNPACK_I,
            _bits_f32=_bits_f32, _f32bits=_f32bits,
        )
        if self.tlb is not None:
            self._base_globals.update(_tlb=self.tlb, _fb=self._fallbacks)

    @property
    def cpu(self):
        return self._cpu()

    # ------------------------------------------------------------------
    def describe(self) -> dict[str, int]:
        return {
            "blocks_compiled": self.blocks_compiled,
            "code_reused": self.code_reused,
            "instructions_translated": self.instructions_translated,
            "forwarded_reads": self.forwarded_reads,
            "folded_constants": self.folded_constants,
            "fused_pairs": self.fused_pairs,
            "loop_blocks": self.loop_blocks,
            "yields": self.yields,
            "tlb_fallbacks": self._fallbacks[0],
            "bulk_loops": self._bulk[0],
            "bulk_declined": self._bulk[1],
        }

    def blocks_for(self, program: Program,
                   multi: bool = False) -> dict[int, CompiledBlock]:
        """The block cache for *program* (single- or multi-core blocks),
        invalidated if latencies moved."""
        snap = tuple(sorted(vars(self.cpu.lat).items()))
        if snap != self._lat_snapshot:
            self._programs.clear()
            self._lat_snapshot = snap
        key = (_program_digest(program), multi)
        blocks = self._programs.get(key)
        if blocks is None:
            if len(self._programs) >= self.MAX_PROGRAMS:
                self._programs.pop(next(iter(self._programs)))
            blocks = {}
            self._programs[key] = blocks
        return blocks

    # ------------------------------------------------------------------
    # Translation
    # ------------------------------------------------------------------
    def compile_block(self, program: Program, entry: int,
                      multi: bool = False) -> CompiledBlock:
        """Translate the block at *entry*; *multi* emits the multi-core
        form, whose shared ops wait on :func:`run_compiled_cores`'s
        bound."""
        instructions = program.instructions
        end = min(len(instructions), entry + MAX_BLOCK_LEN)
        span = []
        for pc in range(entry, end):
            ins = instructions[pc]
            span.append((pc, ins))
            if ins.op in CONTROL_OPS:
                break

        # A block whose terminal branch targets its own entry is a
        # *self-loop*: compile it as a closure that iterates internally,
        # paying prologue/epilogue/dispatch once per burst of
        # iterations instead of once per iteration.
        last_pc, last_ins = span[-1]
        looping = (len(span) >= 2 and last_ins.op in _BRANCH_COND
                   and last_ins.target == entry)
        if looping:
            snap = (self.forwarded_reads, self.folded_constants,
                    self.fused_pairs)
            try:
                return self._assemble(program, entry, span, True, multi)
            except _ConstLoopBranch:
                (self.forwarded_reads, self.folded_constants,
                 self.fused_pairs) = snap
        return self._assemble(program, entry, span, False, multi)

    def _assemble(self, program: Program, entry: int, span,
                  looping: bool, multi: bool) -> CompiledBlock:
        cg = _Codegen(self, multi)
        escapes: list[tuple[str, object, object]] = []
        if looping:
            cg.ind = 1                      # body inside ``while True:``
        body = span[:-1] if looping else span
        plan = _strip_plan(span) if looping else None
        static = []                     # static cycles of each body op
        for pc, ins in body:
            cg.hit_prev = False
            before = sum(cg.static_cycles.values())
            self._emit_instruction(cg, ins, pc, escapes)
            static.append(sum(cg.static_cycles.values()) - before)
            if cg.hit_prev:
                self.fused_pairs += 1

        strip = None
        if looping:
            pc, ins = span[-1]
            self._emit_loop_branch(cg, ins, pc)
            self.loop_blocks += 1
            if plan is not None:
                strip = self._emit_strip_bulk(cg, plan, body, static, pc)
        else:
            last_pc, last_ins = span[-1]
            if last_ins.op not in CONTROL_OPS:
                # Straight-line block (length cap or end of program):
                # fall through to the next pc; an out-of-range
                # fallthrough is raised by the dispatcher, exactly like
                # the reference.
                cg.flush_pending()
                cg.epilogue()
                cg.emit(f"return {last_pc + 1}")

        source = self._render(cg, entry, looping)
        scope = dict(self._base_globals)
        if strip is not None:
            scope["_bulk"] = strip
        for name_h, name_i, handler, ins in (
            (f"_h{k}", f"_i{k}", h, i)
            for k, (op, h, i) in enumerate(escapes)
        ):
            scope[name_h] = handler
            scope[name_i] = ins
        code = _CODE_CACHE.get(source)
        if code is None:
            if len(_CODE_CACHE) >= _CODE_CACHE_MAX:
                _CODE_CACHE.pop(next(iter(_CODE_CACHE)))
            code = _CODE_CACHE[source] = compile(
                source, f"<block@{entry}>", "exec")
        else:
            self.code_reused += 1
        exec(code, scope)
        # Popped so the function is not in a cycle with its own globals.
        fn = scope.pop(f"_block_{entry}")
        self.blocks_compiled += 1
        self.instructions_translated += len(span)
        return CompiledBlock(fn, len(span), entry, source, looping, cg.gen)

    def _render(self, cg: _Codegen, entry: int, looping: bool) -> str:
        arg = "cpu, _max" if looping else "cpu"
        head = [f"def _block_{entry}({arg}):"]
        if "x" in cg.needs:
            head.append("    x = cpu.x")
        if "f" in cg.needs:
            head.append("    f = cpu.f")
        if "v" in cg.needs:
            head.append("    v = cpu.v")
        if "vf" in cg.needs:
            head.append("    _vf = cpu._compiled_vf32")
        if "vi" in cg.needs:
            head.append("    _vi = cpu._compiled_vi32")
        if "vm" in cg.needs:
            head.append("    _vm = cpu._compiled_vmv")
        if "vl" in cg.needs:
            head.append("    vl_ = cpu.vl")
        head.append("    cycle = cpu.cycle")
        if "cc" in cg.needs:
            head.append("    _cc = cpu._class_counts")
            head.append("    _ccy = cpu._class_cycles")
        if "port" in cg.needs:
            head.append("    _pf = _port._bank_free")
            head.append("    _pcnt = _port.counters")
            head.append("    _pbr = _pcnt.by_requester")
            head.append("    _pc_req = 0")
            head.append("    _pc_q = 0")
        if "tlb" in cg.needs:
            # Fetched per call: Tlb.reset replaces both objects.
            head.append("    _te = _tlb._entries")
            head.append("    _tc = _tlb.counters")
            head.append("    _th = 0")
            head.append("    _ty = -1")
        if cg.gen:
            head.append("    _bound = cpu._bound")
        for var in cg.dyn_vars.values():
            head.append(f"    {var} = 0")
        if looping:
            head.append("    _ex = 0")
            head.extend(cg.bulk)
            head.append("    while True:")
        lines = [ln for ln in cg.lines if ln is not None]
        return "\n".join(head + lines) + "\n"

    def _emit_loop_branch(self, cg: _Codegen, ins, pc: int) -> None:
        """Terminal backward branch of a self-loop block.

        Each iteration charges its own cycles (memory ops inside the
        body read the live clock), while class counts multiply by the
        iteration count ``_ex`` once at exit.  All but the last
        iteration take the branch; the closure also exits when the
        dispatcher's budget cap ``_max`` is reached with the branch
        still taken, returning to the dispatcher for the tail.
        """
        lat = self.cpu.lat
        a, ac = cg.xref(ins.rs1)
        b, bc = cg.xref(ins.rs2)
        if ac is not None and bc is not None:
            raise _ConstLoopBranch()
        cmp_op, unsigned = _BRANCH_COND[ins.op]
        if unsigned:
            cond = f"({a} & 0xFFFFFFFF) {cmp_op} ({b} & 0xFFFFFFFF)"
        else:
            cond = f"{a} {cmp_op} {b}"
        taken_cost = lat.branch + lat.branch_taken_penalty
        pending = cg.pending
        cg.pending = 0
        cg.emit("_ex += 1")
        cg.emit(f"if {cond}:")
        cg.ind += 1
        if pending + taken_cost:
            cg.emit(f"cycle += {pending + taken_cost}")
        cg.emit("if _ex < _max:")
        cg.emit("    continue")
        cg.emit("cpu.counters.taken_branches += _ex")
        self._loop_epilogue(cg, f"{taken_cost} * _ex")
        cg.emit(f"return {ins.target}, _ex")
        cg.ind -= 1
        if pending + lat.branch:
            cg.emit(f"cycle += {pending + lat.branch}")
        self._loop_exit(cg, pc)

    def _loop_exit(self, cg: _Codegen, pc: int) -> None:
        """Fallthrough exit arm of a self-loop block after ``_ex``
        iterations, the last one not taken."""
        lat = self.cpu.lat
        taken_cost = lat.branch + lat.branch_taken_penalty
        cg.emit("cpu.counters.taken_branches += _ex - 1")
        self._loop_epilogue(cg, f"{taken_cost} * (_ex - 1) + {lat.branch}")
        cg.emit(f"return {pc + 1}, _ex")

    def _emit_strip_bulk(self, cg: _Codegen, plan: tuple, body,
                         static: list[int], pc: int) -> _StripLoop | None:
        """The bulk arm of a strip-mined loop block (see
        :func:`_strip_plan`), rendered ahead of its per-strip loop.

        :class:`_StripLoop` does the data work; the arm then applies
        the whole loop's timing in closed form.  With every access an
        aligned RAM word on the single-bank port, a strip's clock
        advance is ``a + b * vl`` (static charges, ``port_latency +
        load_use - 1 + vl`` per burst, ``load_use + (port_latency + 1)
        * vl`` per gather) plus its branch.  Only the first access can
        wait for the port: after each access the clock is at least
        ``port_latency + load_use - 1 >= 0`` cycles past the port's
        next free slot.  Multi-core blocks (whose accesses interleave
        with other cores), the banked or cached port and an MMU get no
        bulk arm and count every entry as declined; so does a latency
        set where that wait-free argument fails.  Returns the block's
        :class:`_StripLoop`, if it has one.
        """
        lat = self.cpu.lat
        port_lat = self.port.latency
        loop_lines, loop_ind = cg.lines, cg.ind
        cg.lines, cg.ind = [], 0
        strip = None
        if (cg.multi or not self.inline_ram or self.tlb is not None
                or port_lat + lat.load_use < 1):
            cg.emit("_bulkn[1] += 1")
        else:
            strip = _StripLoop(plan, self.cpu.vlmax, self.ram, self._bulk)
            step = port_lat + 1
            burst = port_lat + lat.load_use - 1
            a = b = 0              # clock offset within a strip: a + b*vl
            accesses = []          # (offset a, offset b, class)
            per_class = {}         # class -> [cycles per trip, per element]
            for (_, ins), cycles in zip(body, static):
                if ins.op == "vle32.v":
                    klass, trip, elem = "vector_load", burst, 1
                elif ins.op == "vluxei32.v":
                    klass, trip, elem = "vector_gather", lat.load_use, step
                else:
                    a += cycles
                    continue
                accesses.append((a, b, klass))
                a += trip
                b += elem
                acc = per_class.setdefault(klass, [0, 0])
                acc[0] += trip
                acc[1] += elem
            first_a, _, first_class = accesses[0]
            last_a, last_b, last_class = accesses[-1]
            # The last access issues at its strip offset, its port free
            # again after ``vl`` slots (a burst) or a gather's chain.
            if last_class == "vector_load":
                free_a, free_b = last_a, last_b + 1
            else:
                free_a, free_b = last_a + 1 - step, last_b + step
            taken = lat.branch + lat.branch_taken_penalty
            cg.emit("_r = _bulk(cpu, _max)")
            cg.emit("if _r is not None:")
            cg.ind += 1
            cg.emit("_ex, _n, _vz = _r")
            cg.emit(f"_slot = cycle + {first_a}")
            cg.emit("_w = _pf[0] - _slot if _pf[0] > _slot else 0")
            cg.emit(f"_pc_req = {len(accesses)} * _n")
            cg.emit(f"_pc_q = _w * min(_n, {self.cpu.vlmax})"
                    if first_class == "vector_load" else "_pc_q = _w")
            for klass, (trip, elem) in per_class.items():
                wait = " + _w" if klass == first_class else ""
                cg.emit(f"{cg.dyn_var(klass)} = "
                        f"{trip} * _ex + {elem} * _n{wait}")
            # ``_t``: the clock at the start of the last strip.
            cg.emit(f"_t = cycle + _w + {a + taken} * (_ex - 1) "
                    f"+ {b} * (_n - _vz)")
            cg.emit(f"_pf[0] = _t + {free_a} + {free_b} * _vz")
            cg.emit(f"cycle = _t + {b} * _vz + {a + lat.branch}")
            self._loop_exit(cg, pc)
        cg.bulk = cg.lines
        cg.lines, cg.ind = loop_lines, loop_ind
        return strip

    def _loop_epilogue(self, cg: _Codegen, branch_cycles: str) -> None:
        """Exit-arm accounting for a self-loop block: per-iteration
        class counts and static cycles multiply by ``_ex``; dynamic
        accumulators already summed across iterations.  The branch
        class lands last, matching the reference's first-charge order
        (the terminal branch charges after the body on iteration 1).
        """
        cg.port_flush()
        cg.tlb_flush()
        cg.emit("cpu.cycle = cycle")
        cg.need("cc")
        for klass, n in cg.counts.items():
            parts = []
            static = cg.static_cycles.get(klass, 0)
            if static:
                parts.append(f"{static} * _ex")
            if klass in cg.dyn_vars:
                parts.append(cg.dyn_vars[klass])
            cg.emit(f"_cc[{klass!r}] = _cc.get({klass!r}, 0) + {n} * _ex")
            cg.emit(f"_ccy[{klass!r}] = _ccy.get({klass!r}, 0) + "
                    + " + ".join(parts or ["0"]))
        cg.emit("_cc['branch'] = _cc.get('branch', 0) + _ex")
        cg.emit(f"_ccy['branch'] = _ccy.get('branch', 0) + {branch_cycles}")

    # ------------------------------------------------------------------
    def _address(self, cg: _Codegen, ins) -> tuple[str, int | None]:
        """Atom holding ``s32(x[rs1] + imm) & 0xFFFFFFFF``."""
        base, const = cg.xref(ins.rs1)
        imm = ins.imm or 0
        if const is not None:
            addr = s32(const + imm) & _U32
            return str(addr), addr
        t = cg.temp()
        # s32(v) & 0xFFFFFFFF == v & 0xFFFFFFFF for any int: the s32
        # re-centering is a no-op under the final 32-bit mask.
        expr = f"{base} + {imm}" if imm else base
        cg.emit(f"{t} = ({expr}) & 0xFFFFFFFF")
        return t, None

    def _inline_port_issue(self, cg: _Codegen, clock: str = "cycle",
                           count: str = "1") -> None:
        """Single-bank ``MemoryPort.issue``/``issue_burst`` accounting.

        Leaves ``_slot`` holding the issue slot.  Counter deltas batch
        into block locals (``_pc_req``, ``_pc_q``) — every inline op
        adds the same amount to requests, busy_cycles and the
        requester's bucket, so one pair of accumulators carries all
        four counters until :meth:`_Codegen.port_flush`.
        """
        cg.need("port")
        cg.emit(f"_slot = {clock} if {clock} >= _pf[0] else _pf[0]")
        if count == "1":
            cg.emit("_pf[0] = _slot + 1")
            cg.emit("_pc_req += 1")
            cg.emit(f"_pc_q += _slot - {clock}")
        else:
            cg.emit(f"_pf[0] = _slot + {count}")
            cg.emit(f"_pc_req += {count}")
            cg.emit(f"_pc_q += (_slot - {clock}) * {count}")

    def _emit_gather_slow(self, cg: _Codegen, ram_size: int,
                          port_lat: int, inline: bool = True) -> None:
        """Per-element gather chain over the precomputed ``_eas`` list:
        exact reference order for mixed RAM/MMIO/faulting elements.
        With *inline* false every element goes through the bus (behind
        an MMU, where each element must be translated)."""
        if not inline:
            cg.port_flush()
        cg.emit("_t = cycle")
        cg.emit("_i = 0")
        cg.emit("for _ea in _eas:")
        cg.ind += 1
        if inline:
            cg.emit(f"if _ea < {ram_size} and not _ea & 3:")
            cg.ind += 1
            self._inline_port_issue(cg, clock="_t")
            cg.emit("_vm_d[_i] = _ram_mv[_ea >> 2]")
            cg.emit(f"_t = _slot + {port_lat + 1}")
            cg.ind -= 1
            cg.emit("else:")
            cg.ind += 1
            cg.port_flush()
        cg.emit("_val, _comp = _bus_load(_ea, _t)")
        cg.emit("_vm_d[_i] = _val")
        cg.emit("_t = _comp + 1")
        if inline:
            cg.ind -= 1
        cg.emit("_i += 1")
        cg.ind -= 1

    def _open_inline_burst(self, cg: _Codegen, addr: str,
                           ram_size: int) -> None:
        """Open the inline arm of a unit-stride burst of ``vl_`` words:
        non-empty, aligned, in RAM and, behind an MMU, inside one page
        that hits the TLB.  A burst straddling two pages falls back to
        the translating bus, which looks up each page in turn."""
        cond = (f"vl_ >= 1 and {addr} + (vl_ << 2) <= {ram_size}"
                f" and not {addr} & 3")
        if self.tlb is not None:
            cond += " and " + cg.tlb_hit(addr, f"{addr} + (vl_ << 2) - 1")
        cg.emit(f"if {cond}:")
        cg.ind += 1
        if self.tlb is not None:
            cg.tlb_touch()

    def _emit_bus_burst(self, cg: _Codegen, ins, addr: str, lat) -> None:
        cg.port_flush()
        cg.emit(f"_vals, _comp = _bus_burst({addr}, vl_, cycle)")
        cg.tlb_forget()
        cg.emit(f"v[{ins.rd}][:vl_] = _vals")
        cg.emit(f"_cost = _comp - cycle + {lat.load_use}")

    def _emit_bus_store_burst(self, cg: _Codegen, ins, addr: str) -> None:
        cg.port_flush()
        cg.emit(f"_bus_store_burst({addr}, "
                f"[int(_b) for _b in v[{ins.rs2}][:vl_]], cycle)")
        cg.tlb_forget()

    def _emit_gather_tlb_hit(self, cg: _Codegen, ram_size: int) -> None:
        """Behind an MMU: set ``_hit`` when every element of ``_eas`` is
        an aligned RAM word whose page hits the TLB, and only then apply
        the elements' LRU touches in element order (a check that changes
        nothing, then the touches, so a miss anywhere leaves the TLB as
        the per-element bus chain expects to find it)."""
        shift = self.page_shift
        cg.need("tlb")
        cg.emit("_hit = False")
        cg.emit(f"if _eas and max(_eas) < {ram_size} and not _orb & 3:")
        cg.ind += 1
        cg.emit("for _ea in _eas:")
        cg.emit(f"    if _ea >> {shift} not in _te:")
        cg.emit("        break")
        cg.emit("else:")
        cg.emit("    _hit = True")
        cg.emit("    for _ea in _eas:")
        cg.emit(f"        _vpn = _ea >> {shift}")
        cg.emit("        if _vpn != _ty:")
        cg.emit("            del _te[_vpn]")
        cg.emit("            _te[_vpn] = True")
        cg.emit("            _ty = _vpn")
        cg.ind -= 1

    # ------------------------------------------------------------------
    def _emit_instruction(self, cg: _Codegen, ins, pc: int,
                          escapes: list) -> None:
        op = ins.op
        lat = self.cpu.lat
        ram_size = self.ram.size
        port_lat = self.port.latency

        # ---- integer ALU ------------------------------------------------
        if op in ("li", "la"):
            cg.xwrite(ins.rd, str(s32(ins.imm)), const=s32(ins.imm))
            cg.charge_static("int_alu", lat.int_alu)
            return
        if op == "lui":
            value = s32(ins.imm << 12)
            cg.xwrite(ins.rd, str(value), const=value)
            cg.charge_static("int_alu", lat.int_alu)
            return
        if op == "auipc":
            value = s32((ins.imm << 12) + pc * 4)
            cg.xwrite(ins.rd, str(value), const=value)
            cg.charge_static("int_alu", lat.int_alu)
            return
        if op in _ALU_IMM:
            build, fold = _ALU3[_ALU_IMM[op]]
            a, ac = cg.xref(ins.rs1)
            imm = ins.imm
            if ac is not None:
                value = fold(ac, imm)
                cg.xwrite(ins.rd, str(value), const=value)
            else:
                b = f"({imm})" if imm < 0 else str(imm)
                cg.xwrite(ins.rd, build(a, b))
            cg.charge_static("int_alu", lat.int_alu)
            return
        if op in _ALU3 and ins.rs2 is not None:
            build, fold = _ALU3[op]
            a, ac = cg.xref(ins.rs1)
            b, bc = cg.xref(ins.rs2)
            klass = ("int_mul" if op.startswith("mul") else "int_alu")
            cost = lat.int_mul if klass == "int_mul" else lat.int_alu
            if ac is not None and bc is not None:
                value = fold(ac, bc)
                cg.xwrite(ins.rd, str(value), const=value)
            else:
                cg.xwrite(ins.rd, build(a, b))
            cg.charge_static(klass, cost)
            return
        if op in ("div", "divu", "rem", "remu"):
            self._emit_divrem(cg, ins, op, lat)
            return

        # ---- loads / stores --------------------------------------------
        if op == "lw":
            addr, const = self._address(cg, ins)
            self._emit_word_load(cg, addr, const, ram_size, port_lat,
                                 lat.load_use, "scalar_load")
            if ins.rd:
                cg.xwrite(ins.rd, _w("_val"))
            return
        if op == "flw":
            addr, const = self._address(cg, ins)
            self._emit_word_load(cg, addr, const, ram_size, port_lat,
                                 lat.load_use, "scalar_load",
                                 float_dest=True)
            cg.fwrite(ins.rd, "_fv")
            return
        if op == "sw":
            addr, const = self._address(cg, ins)
            val, vc = cg.xref(ins.rs2)
            store = (str(vc & _U32) if vc is not None
                     else f"{val} & 0xFFFFFFFF")
            self._emit_word_store(cg, addr, const, store, ram_size)
            cg.charge_static("scalar_store", lat.scalar_store)
            return
        if op == "fsw":
            addr, const = self._address(cg, ins)
            src = cg.fref(ins.rs2)
            self._emit_word_store(cg, addr, const, src, ram_size,
                                  float_src=True)
            cg.charge_static("scalar_store", lat.scalar_store)
            return

        # ---- branches / jumps / system ---------------------------------
        if op in _BRANCH_COND:
            self._emit_branch(cg, ins, op, pc, lat)
            return
        if op == "jal":
            if ins.rd:
                cg.xwrite(ins.rd, str((pc + 1) * 4), const=(pc + 1) * 4)
            self._exit_arm(cg, lat.jump, "jump", lat.jump, str(ins.target))
            return
        if op == "jalr":
            a, ac = cg.xref(ins.rs1)
            imm = ins.imm or 0
            if ac is not None:
                dest = str((s32(ac + imm) & ~1) // 4)
            else:
                cg.emit(f"_dest = (({_w(f'{a} + {imm}')}) & -2) // 4")
                dest = "_dest"
            if ins.rd:
                cg.xwrite(ins.rd, str((pc + 1) * 4), const=(pc + 1) * 4)
            self._exit_arm(cg, lat.jump, "jump", lat.jump, dest)
            return
        if op in ("halt", "ecall", "ebreak"):
            cg.emit("cpu.halted = True")
            self._exit_arm(cg, lat.system, "system", lat.system, str(pc))
            return
        if op == "nopseudo":
            cg.charge_static("system", lat.system)
            return

        # ---- scalar FP --------------------------------------------------
        if self._emit_scalar_fp(cg, ins, op, lat):
            return

        # ---- vector -----------------------------------------------------
        if self._emit_vector(cg, ins, op, lat, ram_size, port_lat):
            return

        # ---- escape hatch ----------------------------------------------
        # Rare ops (sub-word loads/stores, anything future) call the
        # reference handler with the decoded Instr folded in as a
        # constant.  The handler charges through cpu._charge itself, so
        # sync the batched cycle counter around the call.
        cg.flush_pending()
        cg.shared_op()
        cg.port_flush()
        cg.class_keys()
        cg.emit("cpu.cycle = cycle")
        k = len(escapes)
        escapes.append((op, getattr(type(self.cpu), HANDLERS[op]), ins))
        cg.emit(f"_h{k}(cpu, _i{k}, {pc})")
        cg.emit("cycle = cpu.cycle")
        cg.tlb_forget()
        cg.invalidate()

    # ------------------------------------------------------------------
    def _emit_divrem(self, cg: _Codegen, ins, op: str, lat) -> None:
        a, _ = cg.xref(ins.rs1)
        b, _ = cg.xref(ins.rs2)
        if op == "div":
            cg.emit(f"_a = {a}; _b = {b}")
            cg.emit("if _b == 0:")
            cg.emit("    _q = -1")
            cg.emit("elif _a == -2147483648 and _b == -1:")
            cg.emit("    _q = _a")
            cg.emit("else:")
            cg.emit("    _q = int(_a / _b)")
        elif op == "divu":
            cg.emit(f"_a = {a} & 0xFFFFFFFF; _b = {b} & 0xFFFFFFFF")
            cg.emit("_q = 0xFFFFFFFF if _b == 0 else _a // _b")
        elif op == "rem":
            cg.emit(f"_a = {a}; _b = {b}")
            cg.emit("if _b == 0:")
            cg.emit("    _q = _a")
            cg.emit("elif _a == -2147483648 and _b == -1:")
            cg.emit("    _q = 0")
            cg.emit("else:")
            cg.emit("    _q = _a - int(_a / _b) * _b")
        else:  # remu
            cg.emit(f"_a = {a} & 0xFFFFFFFF; _b = {b} & 0xFFFFFFFF")
            cg.emit("_q = _a if _b == 0 else _a % _b")
        if ins.rd:
            cg.xwrite(ins.rd, _w("_q"))
        cg.charge_static("int_div", lat.int_div)

    def _emit_word_load(self, cg: _Codegen, addr: str, const: int | None,
                        ram_size: int, port_lat: int, load_use: int,
                        klass: str, float_dest: bool = False) -> None:
        """``Bus.load_word`` with the single-bank RAM chain inlined.

        Leaves ``_val`` (int) or ``_fv`` (float) and charges *klass*.
        """
        cg.flush_pending()
        cg.shared_op()
        if self._open_inline_word(cg, addr, const, ram_size):
            self._inline_port_issue(cg)
            cg.emit(f"_cost = _slot + {port_lat + load_use} - cycle")
            if float_dest:
                cg.emit(f"_fv = float(_ram_f32[{addr} >> 2])")
            else:
                cg.emit(f"_val = _ram_mv[{addr} >> 2]")
            if self._else_inline(cg, const):
                self._emit_generic_load(cg, addr, load_use, float_dest)
                cg.ind -= 1
        else:
            self._emit_generic_load(cg, addr, load_use, float_dest)
        cg.charge_dyn(klass, "_cost")

    def _open_inline_word(self, cg: _Codegen, addr: str,
                          const: int | None, ram_size: int) -> bool:
        """Open the inline arm of a word access at *addr*, if it may
        have one: the ``if`` of the runtime checks (a RAM-range and
        alignment test unless *const* settles it, and the TLB hit) with
        the hit's LRU touch.  :meth:`_else_inline` opens the fallback."""
        if const is not None and (const >= ram_size or const & 3):
            return False
        if not self.inline_ram:
            return False
        conds = []
        if const is None:
            conds.append(f"{addr} < {ram_size} and not {addr} & 3")
        if self.tlb is not None:
            conds.append(cg.tlb_hit(addr))
        if conds:
            cg.emit(f"if {' and '.join(conds)}:")
            cg.ind += 1
        if self.tlb is not None:
            cg.tlb_touch()
        return True

    def _else_inline(self, cg: _Codegen, const: int | None = None) -> bool:
        """Close an open inline arm and open its fallback arm (returns
        False when an access at the known address *const* has none)."""
        if const is not None and self.tlb is None:
            return False
        cg.ind -= 1
        cg.emit("else:")
        cg.ind += 1
        cg.tlb_fallback()
        return True

    def _emit_generic_load(self, cg: _Codegen, addr: str, load_use: int,
                           float_dest: bool) -> None:
        cg.port_flush()
        cg.emit(f"_val, _comp = _bus_load({addr}, cycle)")
        cg.tlb_forget()
        cg.emit(f"_cost = _comp - cycle + {load_use}")
        if float_dest:
            cg.emit("_fv = _bits_f32(_val)")

    def _emit_generic_store(self, cg: _Codegen, addr: str,
                            value: str) -> None:
        cg.port_flush()
        cg.emit(f"_bus_store({addr}, {value}, cycle)")
        cg.tlb_forget()

    def _emit_word_store(self, cg: _Codegen, addr: str, const: int | None,
                         value: str, ram_size: int,
                         float_src: bool = False) -> None:
        cg.flush_pending()
        cg.shared_op()
        generic_value = (f"_f32bits({value})" if float_src else value)
        if self._open_inline_word(cg, addr, const, ram_size):
            self._inline_port_issue(cg)
            if float_src:
                cg.emit(f"_ram_f32[{addr} >> 2] = {value}")
            else:
                cg.emit(f"_ram_mv[{addr} >> 2] = {value}")
            if self._else_inline(cg, const):
                self._emit_generic_store(cg, addr, generic_value)
                cg.ind -= 1
        else:
            self._emit_generic_store(cg, addr, generic_value)

    def _exit_arm(self, cg: _Codegen, cost: int, klass: str,
                  klass_cycles: int, dest: str) -> None:
        """Terminal instruction: flush everything and return *dest*."""
        total = cg.pending + cost
        if total:
            cg.emit(f"cycle += {total}")
        cg.pending = 0
        cg.epilogue(extra_counts={klass: 1},
                    extra_cycles={klass: klass_cycles})
        cg.emit(f"return {dest}")

    def _emit_branch(self, cg: _Codegen, ins, op: str, pc: int,
                     lat) -> None:
        a, ac = cg.xref(ins.rs1)
        b, bc = cg.xref(ins.rs2)
        taken_cost = lat.branch + lat.branch_taken_penalty
        if ac is not None and bc is not None:
            taken = _BRANCH_FOLD[op](ac, bc)
            if taken:
                cg.emit("cpu.counters.taken_branches += 1")
                self._exit_arm(cg, taken_cost, "branch", taken_cost,
                               str(ins.target))
            else:
                self._exit_arm(cg, lat.branch, "branch", lat.branch,
                               str(pc + 1))
            return
        cmp_op, unsigned = _BRANCH_COND[op]
        if unsigned:
            cond = f"({a} & 0xFFFFFFFF) {cmp_op} ({b} & 0xFFFFFFFF)"
        else:
            cond = f"{a} {cmp_op} {b}"
        pending = cg.pending
        cg.pending = 0
        cg.emit(f"if {cond}:")
        cg.ind += 1
        cg.emit("cpu.counters.taken_branches += 1")
        cg.pending = pending
        self._exit_arm(cg, taken_cost, "branch", taken_cost,
                       str(ins.target))
        cg.ind -= 1
        cg.pending = pending
        self._exit_arm(cg, lat.branch, "branch", lat.branch, str(pc + 1))

    # ------------------------------------------------------------------
    def _emit_scalar_fp(self, cg: _Codegen, ins, op: str, lat) -> bool:
        if op in _FP2:
            cg.fwrite(ins.rd, _FP2[op](cg.fref(ins.rs1), cg.fref(ins.rs2)))
            cg.charge_static("fp_alu", lat.fp_alu)
            return True
        if op == "fsgnjx.s":
            a, b = cg.fref(ins.rs1), cg.fref(ins.rs2)
            cg.emit(f"_sgn = _math.copysign(1.0, {a}) * "
                    f"_math.copysign(1.0, {b})")
            cg.fwrite(ins.rd, f"_math.copysign(abs({a}), _sgn)")
            cg.charge_static("fp_alu", lat.fp_alu)
            return True
        if op == "fdiv.s":
            a, b = cg.fref(ins.rs1), cg.fref(ins.rs2)
            cg.emit(f"_fa = {a}; _fb = {b}")
            cg.fwrite(ins.rd,
                      "float('nan') if _fb == 0.0 and _fa == 0.0 else "
                      "(float('inf') if _fb == 0.0 else _fa / _fb)")
            cg.charge_static("fp_div", lat.fp_div)
            return True
        if op in _FMA:
            expr = _FMA[op](cg.fref(ins.rs1), cg.fref(ins.rs2),
                            cg.fref(ins.rs3))
            cg.fwrite(ins.rd, expr)
            cg.charge_static("fp_fma", lat.fp_fma)
            return True
        if op in ("feq.s", "flt.s", "fle.s"):
            cmp_op = {"feq.s": "==", "flt.s": "<", "fle.s": "<="}[op]
            if ins.rd:
                cg.xwrite(ins.rd,
                          f"int({cg.fref(ins.rs1)} {cmp_op} "
                          f"{cg.fref(ins.rs2)})")
            cg.charge_static("fp_alu", lat.fp_alu)
            return True
        if op == "fmv.x.w":
            if ins.rd:
                cg.xwrite(ins.rd, f"_upi(_pkf({cg.fref(ins.rs1)}))[0]")
            cg.charge_static("fp_alu", lat.fp_alu)
            return True
        if op == "fmv.w.x":
            a, ac = cg.xref(ins.rs1)
            atom = str(s32(ac)) if ac is not None else _w(a)
            cg.fwrite(ins.rd, f"_upf(_pki({atom}))[0]")
            cg.charge_static("fp_alu", lat.fp_alu)
            return True
        if op == "fcvt.w.s":
            if ins.rd:
                cg.xwrite(ins.rd, _w(f"int({cg.fref(ins.rs1)})"))
            cg.charge_static("fp_alu", lat.fp_alu)
            return True
        if op == "fcvt.wu.s":
            if ins.rd:
                cg.xwrite(
                    ins.rd,
                    _w(f"max(0, int({cg.fref(ins.rs1)})) & 0xFFFFFFFF"))
            cg.charge_static("fp_alu", lat.fp_alu)
            return True
        if op == "fcvt.s.w":
            a, ac = cg.xref(ins.rs1)
            cg.fwrite(ins.rd,
                      f"float({ac})" if ac is not None else f"float({a})")
            cg.charge_static("fp_alu", lat.fp_alu)
            return True
        if op == "fcvt.s.wu":
            a, ac = cg.xref(ins.rs1)
            atom = str(ac & _U32) if ac is not None else f"{a} & 0xFFFFFFFF"
            cg.fwrite(ins.rd, f"float({atom})")
            cg.charge_static("fp_alu", lat.fp_alu)
            return True
        return False

    # ------------------------------------------------------------------
    def _emit_vector(self, cg: _Codegen, ins, op: str, lat,
                     ram_size: int, port_lat: int) -> bool:
        if op == "vsetvli":
            cg.need("vl")
            if ins.rs1 == 0:
                cg.emit(f"vl_ = {self.cpu.vlmax}")
            else:
                a, _ = cg.xref(ins.rs1)
                cg.emit(f"_req = {a} & 0xFFFFFFFF")
                cg.emit(f"vl_ = _req if _req < {self.cpu.vlmax} "
                        f"else {self.cpu.vlmax}")
            cg.emit("cpu.vl = vl_")
            if ins.rd:
                cg.xwrite(ins.rd, "vl_")
            cg.charge_static("vector_config", lat.vector_config)
            return True
        if op == "vle32.v":
            cg.need("v", "vl")
            a, ac = cg.xref(ins.rs1)
            addr = str(ac & _U32) if ac is not None else None
            if addr is None:
                addr = cg.temp()
                cg.emit(f"{addr} = {a} & 0xFFFFFFFF")
            cg.flush_pending()
            cg.shared_op()
            if self.inline_ram:
                self._open_inline_burst(cg, addr, ram_size)
                self._inline_port_issue(cg, count="vl_")
                cg.emit(f"_cost = _slot + vl_ + "
                        f"{port_lat + lat.load_use - 1} - cycle")
                cg.emit(f"_wi = {addr} >> 2")
                cg.emit(f"v[{ins.rd}][:vl_] = _ram_u32[_wi:_wi + vl_]")
                self._else_inline(cg)
                self._emit_bus_burst(cg, ins, addr, lat)
                cg.ind -= 1
            else:
                self._emit_bus_burst(cg, ins, addr, lat)
            cg.charge_dyn("vector_load", "_cost")
            return True
        if op == "vse32.v":
            cg.need("v", "vl")
            a, ac = cg.xref(ins.rs1)
            addr = str(ac & _U32) if ac is not None else None
            if addr is None:
                addr = cg.temp()
                cg.emit(f"{addr} = {a} & 0xFFFFFFFF")
            cg.flush_pending()
            cg.shared_op()
            if self.inline_ram:
                self._open_inline_burst(cg, addr, ram_size)
                self._inline_port_issue(cg, count="vl_")
                cg.emit(f"_wi = {addr} >> 2")
                cg.emit(f"_ram_u32[_wi:_wi + vl_] = v[{ins.rs2}][:vl_]")
                self._else_inline(cg)
                self._emit_bus_store_burst(cg, ins, addr)
                cg.ind -= 1
            else:
                self._emit_bus_store_burst(cg, ins, addr)
            per = lat.vector_store_per_elem
            cg.emit(f"_cost = {per} * vl_")
            cg.emit("if _cost < 1: _cost = 1")
            cg.charge_dyn("vector_store", "_cost")
            return True
        if op == "vluxei32.v":
            cg.need("vl")
            a, ac = cg.xref(ins.rs1)
            base = str(ac & _U32) if ac is not None else None
            if base is None:
                base = cg.temp()
                cg.emit(f"{base} = {a} & 0xFFFFFFFF")
            cg.flush_pending()
            cg.shared_op()
            if self.inline_ram:
                # Fast path: all effective addresses in RAM and aligned.
                # With the single-bank port, element i's request issues
                # exactly when element i-1's response is consumed, so
                # the whole serialized chain has a closed form: slots at
                # step = latency + 1, queue wait only on the first
                # element.  Checked element-wise over plain ints first;
                # any MMIO/unaligned/out-of-range element falls back to
                # the per-element chain (which raises like the
                # reference on a bad address).  Behind an MMU every
                # element's page must also hit (a hit adds no cycles);
                # otherwise the chain goes through the translating bus.
                step = port_lat + 1
                cg.need("vm", "port")
                cg.emit(f"_eas = [({base} + _o) & 0xFFFFFFFF "
                        f"for _o in _vm[{ins.rs2}][:vl_].tolist()]")
                cg.emit(f"_vm_d = _vm[{ins.rd}]")
                cg.emit("_orb = 0")
                cg.emit("for _ea in _eas:")
                cg.emit("    _orb |= _ea")
                if self.tlb is not None:
                    self._emit_gather_tlb_hit(cg, ram_size)
                    cg.emit("if _hit:")
                    cg.ind += 1
                    cg.emit("_th += vl_")
                else:
                    cg.emit(f"if _eas and max(_eas) < {ram_size} "
                            "and not _orb & 3:")
                    cg.ind += 1
                cg.emit("_slot = cycle if cycle >= _pf[0] else _pf[0]")
                cg.emit(f"_pf[0] = _slot + {step} * (vl_ - 1) + 1")
                cg.emit("_pc_req += vl_")
                cg.emit("_pc_q += _slot - cycle")
                cg.emit("_i = 0")
                cg.emit("for _ea in _eas:")
                cg.emit("    _vm_d[_i] = _ram_mv[_ea >> 2]; _i += 1")
                cg.emit(f"_t = _slot + {step} * vl_")
                cg.ind -= 1
                cg.emit("else:")
                cg.ind += 1
                if self.tlb is not None:
                    cg.tlb_fallback()
                    self._emit_gather_slow(cg, ram_size, port_lat,
                                           inline=False)
                    cg.tlb_forget()
                else:
                    self._emit_gather_slow(cg, ram_size, port_lat)
                cg.ind -= 1
            else:
                cg.need("v")
                cg.emit(f"_off = v[{ins.rs2}]")
                cg.emit(f"_dst = v[{ins.rd}]")
                cg.emit("_t = cycle")
                cg.emit("for _i in range(vl_):")
                cg.ind += 1
                cg.emit(f"_ea = ({base} + int(_off[_i])) & 0xFFFFFFFF")
                cg.emit("_val, _comp = _bus_load(_ea, _t)")
                cg.emit("_dst[_i] = _val")
                cg.emit("_t = _comp + 1")
                cg.ind -= 1
            cg.emit(f"_cost = _t - cycle + {lat.load_use}")
            cg.charge_dyn("vector_gather", "_cost")
            return True
        if op in _VF_BINARY:
            cg.need("vf", "vl")
            fn = _VF_BINARY[op]
            cg.emit(f"_np.{fn}(_vf[{ins.rs1}][:vl_], "
                    f"_vf[{ins.rs2}][:vl_], out=_vf[{ins.rd}][:vl_])")
            cg.charge_static("vector_fp", lat.vector_fp)
            return True
        if op == "vfmacc.vv":
            cg.need("vf", "vl")
            cg.emit("_sc = _scr[:vl_]")
            cg.emit(f"_np.multiply(_vf[{ins.rs1}][:vl_], "
                    f"_vf[{ins.rs2}][:vl_], out=_sc)")
            cg.emit(f"_acc = _vf[{ins.rd}][:vl_]")
            cg.emit("_np.add(_acc, _sc, out=_acc)")
            cg.charge_static("vector_fp", lat.vector_fp)
            return True
        if op == "vfredosum.vs":
            cg.need("vf", "vl")
            cg.emit(f"_vec = _vf[{ins.rs1}][:vl_]")
            cg.emit(f"_acc = _f32(_vf[{ins.rs2}][0])")
            cg.emit("for _i in range(vl_):")
            cg.emit("    _acc = _f32(_acc + _vec[_i])")
            cg.emit(f"_vf[{ins.rd}][0] = _acc")
            cg.emit(f"_cost = {lat.vector_fp} + "
                    f"{lat.vector_reduction_per_elem} * vl_")
            cg.charge_dyn("vector_fp", "_cost")
            return True
        if op == "vfredusum.vs":
            cg.need("vf", "vl")
            cg.emit(f"_vec = _vf[{ins.rs1}][:vl_]")
            cg.emit(f"_acc = _f32(_vf[{ins.rs2}][0])")
            cg.emit("_tot = _f32(_acc + _vec.sum(dtype=_f32))")
            cg.emit(f"_vf[{ins.rd}][0] = _tot")
            cg.emit(f"_cost = {lat.vector_fp} + max(1, vl_.bit_length())")
            cg.charge_dyn("vector_fp", "_cost")
            return True
        if op == "vredsum.vs":
            cg.need("vi", "vl")
            cg.emit(f"_vec = _vi[{ins.rs1}][:vl_]")
            cg.emit(f"_acc = int(_vi[{ins.rs2}][0])")
            cg.emit(f"_tot = {_w('_acc + int(_vec.sum())')}")
            cg.emit(f"_vi[{ins.rd}][0] = _tot")
            cg.emit(f"_cost = {lat.vector_int} + max(1, vl_.bit_length())")
            cg.charge_dyn("vector_int", "_cost")
            return True
        if op in _VI_BINARY:
            cg.need("vi", "vl")
            fn = _VI_BINARY[op]
            cg.emit(f"_np.{fn}(_vi[{ins.rs1}][:vl_], "
                    f"_vi[{ins.rs2}][:vl_], out=_vi[{ins.rd}][:vl_])")
            cg.charge_static("vector_int", lat.vector_int)
            return True
        if op in _VX_BINARY:
            cg.need("vi", "vl")
            fn = _VX_BINARY[op]
            a, ac = cg.xref(ins.rs2)
            atom = str(s32(ac)) if ac is not None else _w(a)
            cg.emit(f"_np.{fn}(_vi[{ins.rs1}][:vl_], "
                    f"_i32({atom}), out=_vi[{ins.rd}][:vl_])")
            cg.charge_static("vector_int", lat.vector_int)
            return True
        if op == "vsll.vi":
            # numpy's uint32 << drops shifted-out bits like C, so the
            # reference's ``& 0xFFFFFFFF`` is an identity — elided.
            cg.need("v", "vl")
            cg.emit(f"_np.left_shift(v[{ins.rs1}][:vl_], {ins.imm}, "
                    f"out=v[{ins.rd}][:vl_])")
            cg.charge_static("vector_int", lat.vector_int)
            return True
        if op == "vsrl.vi":
            cg.need("v", "vl")
            cg.emit(f"_np.right_shift(v[{ins.rs1}][:vl_], {ins.imm}, "
                    f"out=v[{ins.rd}][:vl_])")
            cg.charge_static("vector_int", lat.vector_int)
            return True
        if op in ("vadd.vi", "vand.vi"):
            fn = "add" if op == "vadd.vi" else "bitwise_and"
            cg.need("vi", "vl")
            cg.emit(f"_np.{fn}(_vi[{ins.rs1}][:vl_], _i32({ins.imm}), "
                    f"out=_vi[{ins.rd}][:vl_])")
            cg.charge_static("vector_int", lat.vector_int)
            return True
        if op == "vmv.v.i":
            cg.need("vi", "vl")
            cg.emit(f"_vi[{ins.rd}][:vl_] = {ins.imm}")
            cg.charge_static("vector_int", lat.vector_int)
            return True
        if op in ("vmv.v.x", "vmv.s.x"):
            cg.need("vi", "vl")
            a, ac = cg.xref(ins.rs1)
            atom = str(s32(ac)) if ac is not None else _w(a)
            if op == "vmv.v.x":
                cg.emit(f"_vi[{ins.rd}][:vl_] = {atom}")
            else:
                cg.emit(f"_vi[{ins.rd}][0] = {atom}")
            cg.charge_static("vector_int", lat.vector_int)
            return True
        if op == "vid.v":
            cg.need("v", "vl")
            cg.emit(f"v[{ins.rd}][:vl_] = _np.arange(vl_, dtype=_u32)")
            cg.charge_static("vector_int", lat.vector_int)
            return True
        if op == "vfmv.f.s":
            cg.need("vf")
            cg.fwrite(ins.rd, f"float(_vf[{ins.rs1}][0])")
            cg.charge_static("vector_fp", lat.vector_fp)
            return True
        if op == "vfmv.s.f":
            cg.need("vf")
            cg.emit(f"_vf[{ins.rd}][0] = {cg.fref(ins.rs1)}")
            cg.charge_static("vector_fp", lat.vector_fp)
            return True
        if op == "vfmv.v.f":
            cg.need("vf", "vl")
            cg.emit(f"_vf[{ins.rd}][:vl_] = {cg.fref(ins.rs1)}")
            cg.charge_static("vector_fp", lat.vector_fp)
            return True
        return False


def _backend_for_run(cpu) -> CompiledBackend:
    """The CPU's backend (made on first use), with the per-run
    register-file views block prologues fetch from the cpu."""
    backend = getattr(cpu, "_compiled_backend", None)
    if backend is None or backend.cpu is not cpu:
        backend = CompiledBackend(cpu)
        cpu._compiled_backend = backend
    # ``Cpu.reset`` replaces the vector arrays, so float/int views and
    # buffer-protocol handles are rebuilt at run entry (they stay valid
    # for the whole run).
    cpu._compiled_vf32 = [a.view(np.float32) for a in cpu.v]
    cpu._compiled_vi32 = [a.view(np.int32) for a in cpu.v]
    cpu._compiled_vmv = [memoryview(a) for a in cpu.v]
    return backend


#: The bound of a core with no live rival: every shared op may go.
_NO_RIVAL = sys.maxsize


def run_compiled(session) -> "CpuStats":  # noqa: F821 - doc type
    """Drive *session* to halt on the compiled backend.

    Mirrors :meth:`SimSession.run` for the no-probe case: same entry
    state, same budget semantics, same ``finally`` bookkeeping.  A lone
    core never waits, so its :func:`_core_runner` runs to the end in
    one step.
    """
    cpu = session.cpu
    cpu._bound = _NO_RIVAL
    for _ in _core_runner(session, _backend_for_run(cpu), multi=False):
        pass
    return cpu.counters


def run_compiled_cores(mcs) -> "CpuStats":  # noqa: F821 - doc type
    """Drive a :class:`~repro.instrument.session.MultiCoreSession` on
    the compiled backend, in the reference interleave's exact order.

    The reference loop retires one instruction of the live core with
    the smallest ``(clock, index)``; clocks only grow, so its retired
    instructions come out sorted by (start clock, core index).  Only
    *shared ops* (memory, MMIO, escape-hatch calls) can observe that
    order, so a core runs its private instructions freely and starts a
    shared op at clock ``s`` only while ``s <= bound``, where ``bound``
    is the largest clock that still sorts before every other live core
    B: ``clock_B`` if the core's index is below B's, else
    ``clock_B - 1``.  Each instruction stays atomic, so the closed
    forms inside one (the gather chain, ``issue_burst``) hold.

    Each core is a :func:`_core_runner` generator; multi-core blocks
    (``compile_block(..., multi=True)``) yield at a shared op past the
    bound.  The driver resumes the core with the smallest ``(clock,
    index)`` — which may always go — with its bound in ``cpu._bound``.
    """
    from .core import CpuStats

    cpus = mcs.cpus
    backends = [_backend_for_run(cpu) for cpu in cpus]
    runners = [_core_runner(s, b, multi=True)
               for s, b in zip(mcs._sessions, backends)]
    handoffs = [0] * len(cpus)
    live = list(range(len(cpus)))
    sel = -1
    try:
        while live:
            if sel < 0:
                # The smallest (clock, index) goes; the second smallest
                # sets its bound.  ``live`` is in index order, so strict
                # compares break clock ties towards the lower index.
                rival = -1
                sel_c = rival_c = 0
                for i in live:
                    c = cpus[i].cycle
                    if sel < 0 or c < sel_c:
                        rival, rival_c = sel, sel_c
                        sel, sel_c = i, c
                    elif rival < 0 or c < rival_c:
                        rival, rival_c = i, c
            cpu = cpus[sel]
            if rival < 0:
                cpu._bound = _NO_RIVAL
            else:
                cpu._bound = rival_c if sel < rival else rival_c - 1
            try:
                next(runners[sel])
            except StopIteration:
                live.remove(sel)
                sel = -1
                continue
            handoffs[sel] += 1
            # The core stopped past its bound, so it now sorts after its
            # rival, the new smallest; find the rival's own rival.
            sel = rival
            rival = -1
            for i in live:
                if i != sel:
                    c = cpus[i].cycle
                    if rival < 0 or c < rival_c:
                        rival, rival_c = i, c
    finally:
        # Closing a suspended runner records its pc and count, and
        # leaves no generator holding the cores.
        for runner in runners:
            runner.close()
        total = 0
        slowest = 0
        for cpu, backend, n in zip(cpus, backends, handoffs):
            backend.yields += n
            cpu.counters.cycles = cpu.cycle
            total += cpu.counters.instructions
            if cpu.cycle > slowest:
                slowest = cpu.cycle
    return CpuStats(instructions=total, cycles=slowest)


def _core_runner(session, backend: CompiledBackend, multi: bool):
    """The block loop of one core: a generator that yields whenever the
    core must wait for ``cpu._bound`` and returns when it halts.

    Blocks that could cross the instruction budget run on the reference
    per-instruction path, so the budget error fires at the exact
    instruction with the exact message.  Budget and PC errors wait for
    the bound like shared ops, so on several cores the first error in
    the reference order is the one raised.  The core's pc, retired
    count and clock are written back on exit.
    """
    cpu = session.cpu
    program = session.program
    blocks = backend.blocks_for(program, multi)
    blocks_get = blocks.get
    code = session._code
    n = len(code)
    budget = cpu.config.max_instructions
    stats = cpu.counters
    executed = stats.instructions
    limit = executed + budget
    pc = session._pc
    try:
        while not cpu.halted:
            block = blocks_get(pc)
            if block is None:
                if not 0 <= pc < n:
                    while cpu.cycle > cpu._bound:
                        yield
                    raise session._pc_error(pc)
                block = backend.compile_block(program, pc, multi)
                blocks[pc] = block
            bn = block.n
            if executed + bn >= limit:
                # Reference tail: one instruction at a time, each while
                # this core is the scheduler's pick.
                while not cpu.halted:
                    while cpu.cycle > cpu._bound:
                        yield
                    if not 0 <= pc < n:
                        raise session._pc_error(pc)
                    handler, ins = code[pc]
                    pc = handler(ins, pc)
                    executed += 1
                    if executed >= limit:
                        raise session._budget_error(budget)
                break
            if block.looping:
                # Iterate inside the closure, capped so a full burst
                # stays strictly under the budget; a capped burst falls
                # back here and ultimately into the reference tail.
                cap = (limit - executed - 1) // bn
                if block.gen:
                    pc, ex = yield from block.fn(cpu, cap)
                else:
                    pc, ex = block.fn(cpu, cap)
                executed += ex * bn
            elif block.gen:
                pc = yield from block.fn(cpu)
                executed += bn
            else:
                pc = block.fn(cpu)
                executed += bn
    finally:
        session._pc = pc
        stats.instructions = executed
        stats.cycles = cpu.cycle
