"""Source emission for compiled regions.

One region (see :mod:`repro.jit.superblock`) becomes one generated
factory, in one of two emission modes: record (the protected engine's
fill loop) or commit-only (the unprotected loop and checker replay).
In record mode, for
a region of three ALU instructions and a closing ``bne``::

    def __factory__(__ctx__):
        state = __ctx__['state']
        x = __ctx__['x']
        ...                        # only the names this region uses
        def __region__(rec, s, e, B):
            _b = state.instret - s
            while True:
                if s <= 0:
                    x[3] = (x[1] + x[2]) & M
                    _c = commit(12)
                    rec(0, True)
                    if e == 1 or _c >= B:
                        e = 1
                        break
                if s <= 1:
                    ...
                _g = regs.flags
                _k = (_g & 4) == 0
                _t = 9 if _k else 16
                commit(15, None, _k, _t)
                rec(8, False)
                state.pc = _t
                state.instret = _b + 4
                return 4
            state.pc = 12 + e
            state.instret = _b + e
            return e
        return __region__
    __block__ = __factory__

A commit-only region is the same without ``rec`` and ``B``:
``__region__(s, e)``.  Either runs the region's offsets ``s`` to
``e - 1`` and nothing else: each instruction is guarded by its offset,
the entry guards skip what lies before ``s``, and the exit check after
offset ``e - 1`` leaves the loop.  It returns the offset it reached,
``e`` unless the bound stopped it first.  So one compiled function
serves every entry PC of its region and every budget
:meth:`SuperblockJit.run_block <repro.jit.tier.SuperblockJit.run_block>`
cuts it to.

**The bound.**  Only record regions (the protected engine's fill loop,
the one loop with detections to watch) take a fourth argument ``B``, a
commit cycle: after an instruction's ``rec`` call the region also
leaves, at the next offset, once the cycle its timing ``commit``
returned is at or past ``B``.  The engine sets ``B`` just below the
cycle at which its wall clock reaches the earliest pending detection,
so a block never runs past the instruction where the interpreter would
handle it.  The unprotected loop and checker replay have nothing
pending, so commit-only regions emit no check.

**The branch tail.**  A region may end with a branch (its last
instruction only).  The tail needs no guard, since every entry offset
lies before it, and it is reached only when ``e`` is the region's
length.  It resolves the branch the way the executor's handlers do
(flag conditions from the NZCV nibble in ``regs.flags``, ``CBZ``/
``CBNZ`` from ``x[rs1]``, a ``JALR`` target read before the link
write, no link write to ``x0``), commits it as
``commit(pc, None, taken, next_pc)`` like the interpreted loops,
records it in record mode, and returns with ``state.pc`` at the
resolved target.  A wild ``JALR`` target is left in ``state.pc`` as
is: no block starts there, so the next ``step()`` traps exactly as the
interpreter does.

Register indices, immediates (pre-wrapped through ``to_unsigned`` where
the interpreter does it), FMOVI bit patterns and PC values are folded
into the source as literals, and so are the unit index and "writes a
register" flag each ``rec`` call passes, read from the program's
:class:`~repro.isa.decode.DecodeTable`, and the PC each ``commit`` call
passes (the timing model reads every other static fact from the same
table); everything dynamic is a ``LOAD_FAST`` of a factory local.  The
factory indirection is what lets runs share compiled code: the module
is ``compile()``d once per region per process, and each run only
re-runs ``__factory__`` against its own context (~µs), not the
compiler.  A factory holds no run state, so runs and threads share it
freely.

Equivalence contract (checked by the differential oracle and
``tests/test_jit.py``):

* The data port is the only thing inside a region that can raise.
  Before every ``load``/``store`` call the region flushes ``state.pc`` to
  that instruction's PC and ``state.instret`` to ``_b`` plus its offset
  — exactly the values the interpreter would hold at the same point,
  because ``Executor.step`` bumps ``pc``/``instret`` only *after* the
  handler returns.  The effective address is computed into a temporary
  first, so a raising port call leaves zero partial architectural
  effect, matching the port's own no-partial-effect property.
* Writes to ``x0`` are discarded exactly like ``RegisterFile.write_x``:
  pure ALU results to ``x0`` emit no architectural code at all (their
  bookkeeping still runs), while ``LDR`` to ``x0`` still issues the load
  for its log record and trap behaviour.
* Per-instruction bookkeeping replays the engine/oracle loop order:
  architectural effect, then the timing ``commit`` (which also counts
  the unit mix and, for the branch, drives the predictor), then, in
  record mode, ``segment.record_instruction`` and the bound check.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..isa.decode import DecodeTable
from ..isa.instructions import BRANCH_OPCODES, Instruction, Opcode
from ..isa.registers import float_to_bits, to_unsigned
from .superblock import COMPILABLE_OPCODES

# Two-source integer ops: x[rd] = fn(x[rs1], x[rs2]).  Each entry is
# (format string, extra hoist names).  Results that can leave the 64-bit
# range are masked inline; pure bitwise ops and LSR cannot.
_BIN_X: Dict[Opcode, Tuple[str, Tuple[str, ...]]] = {
    Opcode.ADD: ("x[{d}] = (x[{a}] + x[{b}]) & M", ("M",)),
    Opcode.SUB: ("x[{d}] = (x[{a}] - x[{b}]) & M", ("M",)),
    Opcode.AND: ("x[{d}] = x[{a}] & x[{b}]", ()),
    Opcode.ORR: ("x[{d}] = x[{a}] | x[{b}]", ()),
    Opcode.EOR: ("x[{d}] = x[{a}] ^ x[{b}]", ()),
    Opcode.LSL: ("x[{d}] = (x[{a}] << (x[{b}] & 63)) & M", ("M",)),
    Opcode.LSR: ("x[{d}] = x[{a}] >> (x[{b}] & 63)", ()),
    Opcode.MUL: ("x[{d}] = (x[{a}] * x[{b}]) & M", ("M",)),
    Opcode.DIV: ("x[{d}] = sdiv(x[{a}], x[{b}])", ("sdiv",)),
    Opcode.REM: ("x[{d}] = srem(x[{a}], x[{b}])", ("srem",)),
}

# Immediate integer ops: the immediate (or its unsigned wrap, matching
# the interpreter's per-op ``to_unsigned``) is folded at emit time.
_IMM_X = {
    Opcode.ADDI,
    Opcode.SUBI,
    Opcode.ANDI,
    Opcode.ORRI,
    Opcode.EORI,
    Opcode.LSLI,
    Opcode.LSRI,
}

_FBIN: Dict[Opcode, str] = {
    Opcode.FADD: "f[{d}] = ftb(btf(f[{a}]) + btf(f[{b}]))",
    Opcode.FSUB: "f[{d}] = ftb(btf(f[{a}]) - btf(f[{b}]))",
    Opcode.FMUL: "f[{d}] = ftb(btf(f[{a}]) * btf(f[{b}]))",
    Opcode.FDIV: "f[{d}] = ftb(fdiv(btf(f[{a}]), btf(f[{b}])))",
}

_MEMORY_OPCODES = frozenset({Opcode.LDR, Opcode.FLDR, Opcode.STR, Opcode.FSTR})

# Flag-branch conditions over ``_g``, the NZCV nibble (N at bit 3, Z at
# 2, C at 1, V at 0); each is a bool, like the executor's conditions.
_NV_DIFFER = "((_g >> 3) ^ _g) & 1"
_FLAG_CONDITIONS: Dict[Opcode, str] = {
    Opcode.BEQ: "(_g & 4) != 0",
    Opcode.BNE: "(_g & 4) == 0",
    Opcode.BLT: f"({_NV_DIFFER}) != 0",
    Opcode.BGE: f"({_NV_DIFFER}) == 0",
    Opcode.BGT: f"(_g & 4) == 0 and ({_NV_DIFFER}) == 0",
    Opcode.BLE: f"(_g & 4) != 0 or ({_NV_DIFFER}) != 0",
}


# Hoist lines in canonical order; only the ones a block needs are emitted.
_HOISTS: Dict[str, str] = {
    "state": "state = __ctx__['state']",
    "regs": "regs = __ctx__['regs']",
    "x": "x = __ctx__['x']",
    "f": "f = __ctx__['f']",
    "M": "M = 0xFFFFFFFFFFFFFFFF",
    "load": "load = __ctx__['load']",
    "store": "store = __ctx__['store']",
    "btf": "btf = __ctx__['btf']",
    "ftb": "ftb = __ctx__['ftb']",
    "sdiv": "sdiv = __ctx__['sdiv']",
    "srem": "srem = __ctx__['srem']",
    "fdiv": "fdiv = __ctx__['fdiv']",
    "fcvti": "fcvti = __ctx__['fcvti']",
    "flags_sub": "flags_sub = __ctx__['flags_sub']",
    "commit": "commit = __ctx__['commit']",
}


class _Emitter:
    def __init__(self, table: DecodeTable, record: bool) -> None:
        self.table = table
        self.record = record
        #: The current instruction's lines.
        self.body: List[str] = []
        self.needs: Dict[str, None] = {"state": None}

    def need(self, *names: str) -> None:
        for name in names:
            self.needs.setdefault(name)

    def _flush(self, i: int, pc: int) -> None:
        # At offset 0 the region was entered there, so both values are
        # still exactly the dispatch-time ones.
        if i:
            self.body.append(f"state.pc = {pc}")
            self.body.append(f"state.instret = _b + {i}")

    def _emit_arch(self, i: int, pc: int, instr: Instruction) -> bool:
        """Append the architectural effect; True if this was a memory op."""
        op = instr.opcode
        out = self.body.append
        d, a, b = instr.rd, instr.rs1, instr.rs2
        if op in _BIN_X:
            if d != 0:
                template, extra = _BIN_X[op]
                self.need("x", *extra)
                out(template.format(d=d, a=a, b=b))
            return False
        if op is Opcode.ASR:
            if d != 0:
                self.need("x", "M")
                out(f"_t = x[{a}]")
                out(
                    f"x[{d}] = ((_t - 0x10000000000000000 if _t >> 63 else _t)"
                    f" >> (x[{b}] & 63)) & M"
                )
            return False
        if op in _IMM_X:
            if d != 0:
                self.need("x")
                if op is Opcode.ADDI:
                    self.need("M")
                    out(f"x[{d}] = (x[{a}] + {instr.imm}) & M")
                elif op is Opcode.SUBI:
                    self.need("M")
                    out(f"x[{d}] = (x[{a}] - {instr.imm}) & M")
                elif op is Opcode.ANDI:
                    out(f"x[{d}] = x[{a}] & {to_unsigned(instr.imm)}")
                elif op is Opcode.ORRI:
                    out(f"x[{d}] = x[{a}] | {to_unsigned(instr.imm)}")
                elif op is Opcode.EORI:
                    out(f"x[{d}] = x[{a}] ^ {to_unsigned(instr.imm)}")
                elif op is Opcode.LSLI:
                    self.need("M")
                    out(f"x[{d}] = (x[{a}] << {instr.imm & 63}) & M")
                else:  # LSRI
                    out(f"x[{d}] = x[{a}] >> {instr.imm & 63}")
            return False
        if op is Opcode.ASRI:
            if d != 0:
                self.need("x", "M")
                out(f"_t = x[{a}]")
                out(
                    f"x[{d}] = ((_t - 0x10000000000000000 if _t >> 63 else _t)"
                    f" >> {instr.imm & 63}) & M"
                )
            return False
        if op is Opcode.MOV:
            if d != 0:
                self.need("x")
                out(f"x[{d}] = x[{a}]")
            return False
        if op is Opcode.MOVI:
            if d != 0:
                self.need("x")
                out(f"x[{d}] = {to_unsigned(instr.imm)}")
            return False
        if op is Opcode.CMP:
            self.need("x", "regs", "flags_sub")
            out(f"regs.flags = flags_sub(x[{a}], x[{b}])")
            return False
        if op is Opcode.CMPI:
            self.need("x", "regs", "flags_sub")
            out(f"regs.flags = flags_sub(x[{a}], {to_unsigned(instr.imm)})")
            return False
        if op is Opcode.FCMP:
            self.need("f", "regs", "btf")
            out(f"_fa = btf(f[{a}])")
            out(f"_fb = btf(f[{b}])")
            out("if _fa != _fa or _fb != _fb:")
            out("    regs.flags = 3")  # unordered: set_flags(F, F, T, T)
            out("else:")
            out(
                "    regs.flags = ((_fa < _fb) << 3) | ((_fa == _fb) << 2)"
                " | ((_fa >= _fb) << 1)"
            )
            return False
        if op in _FBIN:
            self.need("f", "btf", "ftb")
            if op is Opcode.FDIV:
                self.need("fdiv")
            out(_FBIN[op].format(d=d, a=a, b=b))
            return False
        if op is Opcode.FMOV:
            self.need("f")
            out(f"f[{d}] = f[{a}]")
            return False
        if op is Opcode.FMOVI:
            self.need("f")
            out(f"f[{d}] = {float_to_bits(instr.fimm)}")
            return False
        if op is Opcode.FCVT:
            self.need("x", "f", "ftb")
            out(f"_t = x[{a}]")
            out(f"f[{d}] = ftb(float(_t - 0x10000000000000000 if _t >> 63 else _t))")
            return False
        if op is Opcode.FCVTI:
            if d != 0:
                self.need("x", "f", "btf", "fcvti")
                out(f"x[{d}] = fcvti(btf(f[{a}]))")
            return False
        if op is Opcode.NOP:
            return False
        if op in _MEMORY_OPCODES:
            self._flush(i, pc)
            self.need("x", "M")
            out(f"_a = (x[{a}] + {instr.imm}) & M")
            if op is Opcode.LDR:
                self.need("load")
                out(f"x[{d}] = load(_a) & M" if d != 0 else "load(_a)")
            elif op is Opcode.FLDR:
                self.need("f", "load")
                out(f"f[{d}] = load(_a) & M")
            elif op is Opcode.STR:
                self.need("store")
                out(f"store(_a, x[{b}])")
            else:  # FSTR
                self.need("f", "store")
                out(f"store(_a, f[{b}])")
            return True
        raise ValueError(f"{op} is not compilable")

    def _emit_bookkeeping(self, pc: int, args: str, keep_cycle: bool) -> None:
        """Append the ``commit(pc, args)`` call and, in record mode, the
        ``rec`` call; ``keep_cycle`` stores the commit cycle in ``_c``."""
        out = self.body.append
        self.need("commit")
        call = f"commit({pc}{args})"
        out(f"_c = {call}" if keep_cycle else call)
        if self.record:
            table = self.table
            out(f"rec({table.unit_index[pc]}, {table.writes_register[pc]})")

    def _emit_branch(self, length: int, pc: int, instr: Instruction) -> None:
        """Append the closing branch at offset ``length - 1``: resolve it,
        keep its bookkeeping and leave the region at its target."""
        op = instr.opcode
        out = self.body.append
        if op is Opcode.JALR:
            self.need("x")
            out(f"_t = x[{instr.rs1}]")  # read before the link write
            taken, target = "True", "_t"
        elif op is Opcode.B or op is Opcode.JAL:
            taken, target = "True", str(instr.target)
        else:
            if op in _FLAG_CONDITIONS:
                self.need("regs")
                out("_g = regs.flags")
                out(f"_k = {_FLAG_CONDITIONS[op]}")
            else:
                self.need("x")
                test = "==" if op is Opcode.CBZ else "!="
                out(f"_k = x[{instr.rs1}] {test} 0")
            out(f"_t = {instr.target} if _k else {pc + 1}")
            taken, target = "_k", "_t"
        if (op is Opcode.JAL or op is Opcode.JALR) and instr.rd != 0:
            self.need("x")
            out(f"x[{instr.rd}] = {pc + 1}")
        self._emit_bookkeeping(pc, f", None, {taken}, {target}", False)
        out(f"state.pc = {target}")
        out(f"state.instret = _b + {length}")
        out(f"return {length}")


def emit_factory_source(
    table: DecodeTable,
    start: int,
    length: int,
    *,
    record: bool,
) -> str:
    """Render the factory module source for the region at ``start``.

    Every instruction calls the timing model's ``commit(pc)``, or
    ``commit(pc, _a)`` for a memory operation and
    ``commit(pc, None, taken, next_pc)`` for the closing branch, with
    the PC folded in as a literal.  ``record`` adds per-instruction
    ``rec(unit_index, writes_register)`` calls, both folded from the
    program's decode table (the region takes the current segment's
    ``record_instruction`` as its first argument, so segment turnover
    never invalidates code), and the bound ``B`` with its exit check.
    The protected engine and the differential oracle record; the
    unprotected engine and checker replay commit only.
    """
    em = _Emitter(table, record)
    body: List[str] = []
    last = length - 1
    branch = table.instructions[start + last]
    straight = last if branch.opcode in BRANCH_OPCODES else length
    for i in range(straight):
        pc = start + i
        instr = table.instructions[pc]
        if instr.opcode not in COMPILABLE_OPCODES:
            raise ValueError(f"pc {pc}: {instr.opcode} inside a region")
        em.body = []
        is_memory = em._emit_arch(i, pc, instr)
        em._emit_bookkeeping(pc, ", _a" if is_memory else "", record and i < last)
        body.append(f"if s <= {i}:")
        body.extend(f"    {line}" for line in em.body)
        if record and i < last:
            body.append(f"    if e == {i + 1} or _c >= B:")
            body.append(f"        e = {i + 1}")
            body.append("        break")
        elif i < last:
            body.append(f"    if e == {i + 1}: break")
    if straight == length:
        body.append("break")
    else:
        em.body = []
        em._emit_branch(length, start + last, branch)
        body.extend(em.body)

    signature = "rec, s, e, B" if record else "s, e"
    lines = ["def __factory__(__ctx__):"]
    for name, hoist in _HOISTS.items():
        if name in em.needs:
            lines.append(f"    {hoist}")
    lines.append(f"    def __region__({signature}):")
    lines.append("        _b = state.instret - s")
    lines.append("        while True:")
    lines.extend(f"            {line}" for line in body)
    lines.append(f"        state.pc = {start} + e")
    lines.append("        state.instret = _b + e")
    lines.append("        return e")
    lines.append("    return __region__")
    lines.append("__block__ = __factory__")
    return "\n".join(lines) + "\n"
