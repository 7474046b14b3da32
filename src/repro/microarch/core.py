"""The CPU core: fetch, decode, execute, exceptions, interrupts, timing.

An in-order core with cycle accounting.  Every instruction is fetched
through the ITLB and L1 instruction cache as real bytes, decoded (with a
module-level memoization table, since decoding is a pure function of the
word), and executed by a handler function.  Handlers return the extra cycle
cost beyond the base CPI of 1.

Exception model (ARM-flavoured, simplified):

- architectural faults in **user** mode vector into the kernel at
  ``EXC_VECTOR`` with the cause/EPC/faulting address latched in CSRs and the
  stack pointer banked (``r13`` <-> ``CSR_KSP``/``CSR_USP``);
- architectural faults in **kernel** mode are double faults: the machine
  dies with :class:`~repro.errors.KernelPanic` (a *System Crash*);
- the timer interrupt fires every ``timer_interval`` cycles and is taken
  only in user mode (the kernel is not reentrant).
"""

from __future__ import annotations

import enum
import struct

from repro.errors import (
    AlignmentFault,
    ArchitecturalFault,
    ArithmeticFault,
    IllegalInstruction,
    KernelPanic,
    PrivilegeFault,
    ProgramExit,
    SegmentationFault,
    WatchdogTimeout,
)
from repro.isa.encoding import decode
from repro.isa.opcodes import Op
from repro.kernel.layout import (
    CAUSE_SYSCALL,
    CAUSE_TIMER,
    CSR_CAUSE,
    CSR_CYCLES,
    CSR_EPC,
    CSR_FAULTADDR,
    CSR_KSP,
    CSR_STATUS,
    CSR_USP,
    EXC_VECTOR,
    MMIO_BASE,
    PAGE_SHIFT,
    PTE_EXEC,
    PTE_READ,
    PTE_USER,
    PTE_VALID,
    PTE_WRITE,
)
from repro.microarch.cache import Cache
from repro.microarch.config import MachineConfig
from repro.microarch.memory import MainMemory
from repro.microarch.regfile import PhysRegFile
from repro.microarch.state import Array, Scalars, State
from repro.microarch.tlb import TLB

_MASK32 = 0xFFFFFFFF
_SIGN32 = 0x80000000
_INT32_MIN = -(1 << 31)
_INT32_MAX = (1 << 31) - 1

#: ``next_event`` once no events remain: a cycle no run reaches.
_NEVER = 1 << 62


class Mode(enum.IntEnum):
    USER = 0
    KERNEL = 1


def _signed(value: int) -> int:
    return value - 0x100000000 if value & _SIGN32 else value


# ---------------------------------------------------------------------------
# Instruction handlers.  Each takes (core, rd, rs1, rs2, imm) and returns the
# extra cycle cost.  They are module-level functions so decoded instructions
# can be memoized as (handler, rd, rs1, rs2, imm) tuples shared by all cores.
# ---------------------------------------------------------------------------


def _h_nop(core, rd, rs1, rs2, imm):
    return 0


def _h_add(core, rd, rs1, rs2, imm):
    rf = core.rf
    rf.write_int(rd, rf.int_regs[rs1] + rf.int_regs[rs2])
    return 0


def _h_sub(core, rd, rs1, rs2, imm):
    rf = core.rf
    rf.write_int(rd, rf.int_regs[rs1] - rf.int_regs[rs2])
    return 0


def _h_mul(core, rd, rs1, rs2, imm):
    rf = core.rf
    rf.write_int(rd, rf.int_regs[rs1] * rf.int_regs[rs2])
    return core.mul_latency


def _h_div(core, rd, rs1, rs2, imm):
    rf = core.rf
    divisor = _signed(rf.int_regs[rs2])
    if divisor == 0:
        raise ArithmeticFault("integer division by zero", pc=core.current_pc)
    quotient = int(_signed(rf.int_regs[rs1]) / divisor)  # trunc toward zero
    rf.write_int(rd, quotient)
    return core.div_latency


def _h_mod(core, rd, rs1, rs2, imm):
    rf = core.rf
    divisor = _signed(rf.int_regs[rs2])
    if divisor == 0:
        raise ArithmeticFault("integer modulo by zero", pc=core.current_pc)
    dividend = _signed(rf.int_regs[rs1])
    remainder = dividend - int(dividend / divisor) * divisor
    rf.write_int(rd, remainder)
    return core.div_latency


def _h_and(core, rd, rs1, rs2, imm):
    rf = core.rf
    rf.write_int(rd, rf.int_regs[rs1] & rf.int_regs[rs2])
    return 0


def _h_orr(core, rd, rs1, rs2, imm):
    rf = core.rf
    rf.write_int(rd, rf.int_regs[rs1] | rf.int_regs[rs2])
    return 0


def _h_eor(core, rd, rs1, rs2, imm):
    rf = core.rf
    rf.write_int(rd, rf.int_regs[rs1] ^ rf.int_regs[rs2])
    return 0


def _h_lsl(core, rd, rs1, rs2, imm):
    rf = core.rf
    rf.write_int(rd, rf.int_regs[rs1] << (rf.int_regs[rs2] & 31))
    return 0


def _h_lsr(core, rd, rs1, rs2, imm):
    rf = core.rf
    rf.write_int(rd, rf.int_regs[rs1] >> (rf.int_regs[rs2] & 31))
    return 0


def _h_asr(core, rd, rs1, rs2, imm):
    rf = core.rf
    rf.write_int(rd, _signed(rf.int_regs[rs1]) >> (rf.int_regs[rs2] & 31))
    return 0


def _h_mov(core, rd, rs1, rs2, imm):
    rf = core.rf
    rf.write_int(rd, rf.int_regs[rs1])
    return 0


def _h_cmp(core, rd, rs1, rs2, imm):
    rf = core.rf
    a = _signed(rf.int_regs[rs1])
    b = _signed(rf.int_regs[rs2])
    core.cmp = (a > b) - (a < b)
    return 0


def _h_addi(core, rd, rs1, rs2, imm):
    rf = core.rf
    rf.write_int(rd, rf.int_regs[rs1] + imm)
    return 0


def _h_subi(core, rd, rs1, rs2, imm):
    rf = core.rf
    rf.write_int(rd, rf.int_regs[rs1] - imm)
    return 0


def _h_muli(core, rd, rs1, rs2, imm):
    rf = core.rf
    rf.write_int(rd, rf.int_regs[rs1] * imm)
    return core.mul_latency


def _h_andi(core, rd, rs1, rs2, imm):
    rf = core.rf
    rf.write_int(rd, rf.int_regs[rs1] & imm)
    return 0


def _h_orri(core, rd, rs1, rs2, imm):
    rf = core.rf
    rf.write_int(rd, rf.int_regs[rs1] | imm)
    return 0


def _h_eori(core, rd, rs1, rs2, imm):
    rf = core.rf
    rf.write_int(rd, rf.int_regs[rs1] ^ imm)
    return 0


def _h_lsli(core, rd, rs1, rs2, imm):
    rf = core.rf
    rf.write_int(rd, rf.int_regs[rs1] << (imm & 31))
    return 0


def _h_lsri(core, rd, rs1, rs2, imm):
    rf = core.rf
    rf.write_int(rd, rf.int_regs[rs1] >> (imm & 31))
    return 0


def _h_asri(core, rd, rs1, rs2, imm):
    rf = core.rf
    rf.write_int(rd, _signed(rf.int_regs[rs1]) >> (imm & 31))
    return 0


def _h_movi(core, rd, rs1, rs2, imm):
    core.rf.write_int(rd, imm)
    return 0


def _h_movhi(core, rd, rs1, rs2, imm):
    core.rf.write_int(rd, (imm & 0xFFFF) << 16)
    return 0


def _h_cmpi(core, rd, rs1, rs2, imm):
    a = _signed(core.rf.int_regs[rs1])
    core.cmp = (a > imm) - (a < imm)
    return 0


def _h_ldw(core, rd, rs1, rs2, imm):
    vaddr = (core.rf.int_regs[rs1] + imm) & _MASK32
    value, cost = core.load_int(vaddr, 4)
    core.rf.write_int(rd, value)
    return cost


def _h_ldb(core, rd, rs1, rs2, imm):
    vaddr = (core.rf.int_regs[rs1] + imm) & _MASK32
    value, cost = core.load_int(vaddr, 1)
    core.rf.write_int(rd, value)
    return cost


def _h_stw(core, rd, rs1, rs2, imm):
    vaddr = (core.rf.int_regs[rs1] + imm) & _MASK32
    return core.store_int(vaddr, core.rf.int_regs[rd], 4)


def _h_stb(core, rd, rs1, rs2, imm):
    vaddr = (core.rf.int_regs[rs1] + imm) & _MASK32
    return core.store_int(vaddr, core.rf.int_regs[rd] & 0xFF, 1)


def _h_fld(core, rd, rs1, rs2, imm):
    vaddr = (core.rf.int_regs[rs1] + imm) & _MASK32
    value, cost = core.load_double(vaddr)
    core.rf.write_fp(rd, value)
    return cost


def _h_fst(core, rd, rs1, rs2, imm):
    vaddr = (core.rf.int_regs[rs1] + imm) & _MASK32
    return core.store_double(vaddr, core.rf.fp_regs[rd])


def _branch_cost(core, taken, imm):
    core.branches += 1
    predicted_taken = imm < 0  # static: backward taken, forward not taken
    if taken != predicted_taken:
        core.branch_misses += 1
        return core.mispredict_penalty
    return 0


def _h_b(core, rd, rs1, rs2, imm):
    core.pc = (core.pc + imm * 4) & _MASK32
    return 0


def _h_beq(core, rd, rs1, rs2, imm):
    taken = core.cmp == 0
    cost = _branch_cost(core, taken, imm)
    if taken:
        core.pc = (core.pc + imm * 4) & _MASK32
    return cost


def _h_bne(core, rd, rs1, rs2, imm):
    taken = core.cmp != 0
    cost = _branch_cost(core, taken, imm)
    if taken:
        core.pc = (core.pc + imm * 4) & _MASK32
    return cost


def _h_blt(core, rd, rs1, rs2, imm):
    taken = core.cmp == -1
    cost = _branch_cost(core, taken, imm)
    if taken:
        core.pc = (core.pc + imm * 4) & _MASK32
    return cost


def _h_bge(core, rd, rs1, rs2, imm):
    taken = core.cmp == 0 or core.cmp == 1
    cost = _branch_cost(core, taken, imm)
    if taken:
        core.pc = (core.pc + imm * 4) & _MASK32
    return cost


def _h_bgt(core, rd, rs1, rs2, imm):
    taken = core.cmp == 1
    cost = _branch_cost(core, taken, imm)
    if taken:
        core.pc = (core.pc + imm * 4) & _MASK32
    return cost


def _h_ble(core, rd, rs1, rs2, imm):
    taken = core.cmp == 0 or core.cmp == -1
    cost = _branch_cost(core, taken, imm)
    if taken:
        core.pc = (core.pc + imm * 4) & _MASK32
    return cost


def _h_bl(core, rd, rs1, rs2, imm):
    core.rf.write_int(14, core.pc)
    core.pc = (core.pc + imm * 4) & _MASK32
    return 0


def _h_br(core, rd, rs1, rs2, imm):
    core.pc = core.rf.int_regs[rs1] & _MASK32
    return 0


def _h_blr(core, rd, rs1, rs2, imm):
    target = core.rf.int_regs[rs1] & _MASK32
    core.rf.write_int(14, core.pc)
    core.pc = target
    return 0


def _h_fadd(core, rd, rs1, rs2, imm):
    rf = core.rf
    rf.write_fp(rd, rf.fp_regs[rs1] + rf.fp_regs[rs2])
    return core.fpu_latency


def _h_fsub(core, rd, rs1, rs2, imm):
    rf = core.rf
    rf.write_fp(rd, rf.fp_regs[rs1] - rf.fp_regs[rs2])
    return core.fpu_latency


def _h_fmul(core, rd, rs1, rs2, imm):
    rf = core.rf
    rf.write_fp(rd, rf.fp_regs[rs1] * rf.fp_regs[rs2])
    return core.fpu_latency


def _h_fdiv(core, rd, rs1, rs2, imm):
    rf = core.rf
    divisor = rf.fp_regs[rs2]
    if divisor == 0.0:
        result = float("inf") if rf.fp_regs[rs1] > 0 else float("-inf")
        if rf.fp_regs[rs1] == 0.0:
            result = float("nan")
        rf.write_fp(rd, result)
    else:
        rf.write_fp(rd, rf.fp_regs[rs1] / divisor)
    return core.fdiv_latency


def _h_fsqrt(core, rd, rs1, rs2, imm):
    rf = core.rf
    value = rf.fp_regs[rs1]
    rf.write_fp(rd, value ** 0.5 if value >= 0 else float("nan"))
    return core.fsqrt_latency


def _h_fmov(core, rd, rs1, rs2, imm):
    rf = core.rf
    rf.write_fp(rd, rf.fp_regs[rs1])
    return 0


def _h_fneg(core, rd, rs1, rs2, imm):
    rf = core.rf
    rf.write_fp(rd, -rf.fp_regs[rs1])
    return 0


def _h_fcmp(core, rd, rs1, rs2, imm):
    rf = core.rf
    a, b = rf.fp_regs[rs1], rf.fp_regs[rs2]
    if a != a or b != b:  # NaN: unordered
        core.cmp = 2
    else:
        core.cmp = (a > b) - (a < b)
    return core.fpu_latency


def _h_fcvt(core, rd, rs1, rs2, imm):
    core.rf.write_fp(rd, float(_signed(core.rf.int_regs[rs1])))
    return core.fpu_latency


def _h_fcvti(core, rd, rs1, rs2, imm):
    value = core.rf.fp_regs[rs1]
    if value != value:  # NaN
        result = 0
    elif value >= _INT32_MAX:
        result = _INT32_MAX
    elif value <= _INT32_MIN:
        result = _INT32_MIN
    else:
        result = int(value)
    core.rf.write_int(rd, result)
    return core.fpu_latency


def _h_syscall(core, rd, rs1, rs2, imm):
    if core.mode == Mode.KERNEL:
        raise PrivilegeFault("syscall from kernel mode", pc=core.current_pc)
    core.syscalls += 1
    core.enter_kernel(CAUSE_SYSCALL, epc=core.pc)
    return 2


def _h_eret(core, rd, rs1, rs2, imm):
    if core.mode != Mode.KERNEL:
        raise PrivilegeFault("eret from user mode", pc=core.current_pc)
    core.mode = Mode.USER
    core.pc = core.csr[CSR_EPC] & _MASK32
    core.rf.int_regs[13] = core.csr[CSR_USP] & _MASK32
    core.cmp = ((core.csr[CSR_STATUS] >> 1) & 3) - 1  # un-bank the flags
    return 2


def _h_halt(core, rd, rs1, rs2, imm):
    if core.mode != Mode.KERNEL:
        raise PrivilegeFault("halt from user mode", pc=core.current_pc)
    raise ProgramExit(_signed(core.rf.int_regs[0]))


def _h_csrr(core, rd, rs1, rs2, imm):
    if core.mode != Mode.KERNEL:
        raise PrivilegeFault("csrr from user mode", pc=core.current_pc)
    index = imm & 0xF
    if index == CSR_CYCLES:
        value = core.cycle & _MASK32
    else:
        value = core.csr[index] & _MASK32
    core.rf.write_int(rd, value)
    return 0


def _h_csrw(core, rd, rs1, rs2, imm):
    if core.mode != Mode.KERNEL:
        raise PrivilegeFault("csrw from user mode", pc=core.current_pc)
    core.csr[imm & 0xF] = core.rf.int_regs[rs1] & _MASK32
    return 0


_HANDLERS = {
    Op.NOP: _h_nop,
    Op.ADD: _h_add,
    Op.SUB: _h_sub,
    Op.MUL: _h_mul,
    Op.DIV: _h_div,
    Op.MOD: _h_mod,
    Op.AND: _h_and,
    Op.ORR: _h_orr,
    Op.EOR: _h_eor,
    Op.LSL: _h_lsl,
    Op.LSR: _h_lsr,
    Op.ASR: _h_asr,
    Op.MOV: _h_mov,
    Op.CMP: _h_cmp,
    Op.ADDI: _h_addi,
    Op.SUBI: _h_subi,
    Op.MULI: _h_muli,
    Op.ANDI: _h_andi,
    Op.ORRI: _h_orri,
    Op.EORI: _h_eori,
    Op.LSLI: _h_lsli,
    Op.LSRI: _h_lsri,
    Op.ASRI: _h_asri,
    Op.MOVI: _h_movi,
    Op.MOVHI: _h_movhi,
    Op.CMPI: _h_cmpi,
    Op.LDW: _h_ldw,
    Op.LDB: _h_ldb,
    Op.STW: _h_stw,
    Op.STB: _h_stb,
    Op.FLD: _h_fld,
    Op.FST: _h_fst,
    Op.B: _h_b,
    Op.BEQ: _h_beq,
    Op.BNE: _h_bne,
    Op.BLT: _h_blt,
    Op.BGE: _h_bge,
    Op.BGT: _h_bgt,
    Op.BLE: _h_ble,
    Op.BL: _h_bl,
    Op.BR: _h_br,
    Op.BLR: _h_blr,
    Op.FADD: _h_fadd,
    Op.FSUB: _h_fsub,
    Op.FMUL: _h_fmul,
    Op.FDIV: _h_fdiv,
    Op.FSQRT: _h_fsqrt,
    Op.FMOV: _h_fmov,
    Op.FNEG: _h_fneg,
    Op.FCMP: _h_fcmp,
    Op.FCVT: _h_fcvt,
    Op.FCVTI: _h_fcvti,
    Op.SYSCALL: _h_syscall,
    Op.ERET: _h_eret,
    Op.HALT: _h_halt,
    Op.CSRR: _h_csrr,
    Op.CSRW: _h_csrw,
}

_INT_ALU_REG = frozenset({
    Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD, Op.AND, Op.ORR, Op.EOR,
    Op.LSL, Op.LSR, Op.ASR,
})
_INT_ALU_IMM = frozenset({
    Op.ADDI, Op.SUBI, Op.MULI, Op.ANDI, Op.ORRI, Op.EORI,
    Op.LSLI, Op.LSRI, Op.ASRI, Op.MOV,
})
_FP_BINOP = frozenset({Op.FADD, Op.FSUB, Op.FMUL, Op.FDIV})
_FP_UNOP = frozenset({Op.FSQRT, Op.FMOV, Op.FNEG})

#: Exception entry (:meth:`Core.enter_kernel`) banks the stack pointer:
#: it reads the user ``r13`` and writes the kernel one.  Any instruction
#: can fault and any user cycle can take the timer, so every image reads
#: ``r13``.
EXCEPTION_ENTRY_READS = frozenset({13})


def register_effects(op, rd, rs1, rs2):
    """One instruction's architectural register accesses:
    ``(int_reads, int_writes, fp_reads, fp_writes)``.

    Matches the handlers' access sets exactly, implicit operands included
    (``BL``/``BLR`` write ``r14``, ``HALT`` reads ``r0``, ``ERET`` and the
    exception entry ``SYSCALL`` takes bank ``r13``).  An operand used twice
    is one set entry.  NOP, B and conditional branches touch no registers.
    The translator keeps a region's registers in locals from these sets,
    and :class:`~repro.microarch.system.System` unions the reads over its
    text to decide which registers a flip can ever reach.
    """
    int_reads: set[int] = set()
    int_writes: set[int] = set()
    fp_reads: set[int] = set()
    fp_writes: set[int] = set()
    if op in _INT_ALU_REG:
        int_reads.update((rs1, rs2))
        int_writes.add(rd)
    elif op in _INT_ALU_IMM:
        int_reads.add(rs1)
        int_writes.add(rd)
    elif op in (Op.MOVI, Op.MOVHI, Op.CSRR):
        int_writes.add(rd)
    elif op is Op.CMP:
        int_reads.update((rs1, rs2))
    elif op in (Op.CMPI, Op.BR, Op.CSRW):
        int_reads.add(rs1)
    elif op in (Op.LDW, Op.LDB):
        int_reads.add(rs1)
        int_writes.add(rd)
    elif op is Op.FLD:
        int_reads.add(rs1)
        fp_writes.add(rd)
    elif op in (Op.STW, Op.STB):
        int_reads.update((rs1, rd))
    elif op is Op.FST:
        int_reads.add(rs1)
        fp_reads.add(rd)
    elif op in _FP_BINOP:
        fp_reads.update((rs1, rs2))
        fp_writes.add(rd)
    elif op in _FP_UNOP:
        fp_reads.add(rs1)
        fp_writes.add(rd)
    elif op is Op.FCMP:
        fp_reads.update((rs1, rs2))
    elif op is Op.FCVT:
        int_reads.add(rs1)
        fp_writes.add(rd)
    elif op is Op.FCVTI:
        fp_reads.add(rs1)
        int_writes.add(rd)
    elif op is Op.BL:
        int_writes.add(14)
    elif op is Op.BLR:
        int_reads.add(rs1)
        int_writes.add(14)
    elif op is Op.SYSCALL:
        int_reads.add(13)
        int_writes.add(13)
    elif op is Op.ERET:
        int_writes.add(13)
    elif op is Op.HALT:
        int_reads.add(0)
    return int_reads, int_writes, fp_reads, fp_writes

# Shared decode memoization: word -> (handler, rd, rs1, rs2, imm) or None for
# illegal words.  Decode is a pure function so the table is safe to share.
# The hot path is a single dict .get(): a hit returns the tuple directly,
# and None covers both a cold word and a memoized-illegal word, so the
# interpreter loop pays no sentinel comparison per instruction.  The slow
# path (:func:`_decode_slow`) disambiguates the two.
_DECODE_CACHE: dict[int, tuple | None] = {}
_DECODE_CACHE_LIMIT = 1 << 20


def _decode_slow(word: int):
    """Decode miss path: populate the memo; returns None for illegal words."""
    if len(_DECODE_CACHE) > _DECODE_CACHE_LIMIT:
        _DECODE_CACHE.clear()
    try:
        inst = decode(word)
        entry = (_HANDLERS[inst.op], inst.rd, inst.rs1, inst.rs2, inst.imm)
    except IllegalInstruction:
        entry = None
    _DECODE_CACHE[word] = entry
    return entry


class Core:
    """A single simulated CPU core wired to a memory hierarchy."""

    #: Mutable state (:mod:`repro.microarch.state`): fields, then CSRs.
    STATE = State(
        Scalars(
            "pc mode cmp cycle current_pc icount branches branch_misses "
            "loads stores syscalls timer_irqs next_timer"
        ),
        Array("csr", "q"),
        counters="icount branches branch_misses loads stores syscalls timer_irqs",
        constants="config layout memory l1i l1d l2 itlb dtlb rf atomic "
        "_itlb_flush_on_exception mul_latency div_latency fpu_latency "
        "fdiv_latency fsqrt_latency mispredict_penalty mem_latency "
        "tlb_walk_latency _page_count _pt_base timer_interval",
        attachments={
            "device_write": "device hook: reaches the System's device block",
            "device_read": "device hook: reaches the System's device block",
            "translator": "block translator: result-neutral accelerator",
            "op_counts": "dispatch histogram: observes, never steers",
        },
    )

    def __init__(
        self,
        config: MachineConfig,
        memory: MainMemory,
        l1i: Cache,
        l1d: Cache,
        l2: Cache,
        itlb: TLB,
        dtlb: TLB,
        rf: PhysRegFile,
        device_write=None,
        device_read=None,
    ):
        self.config = config
        self.layout = config.layout
        self.memory = memory
        self.l1i = l1i
        self.l1d = l1d
        self.l2 = l2
        self.itlb = itlb
        self.dtlb = dtlb
        self.rf = rf
        self.device_write = device_write or (lambda addr, value: None)
        self.device_read = device_read or (lambda addr: 0)

        self.atomic = config.atomic
        self._itlb_flush_on_exception = config.itlb_flush_on_exception
        self.mul_latency = config.mul_latency
        self.div_latency = config.div_latency
        self.fpu_latency = config.fpu_latency
        self.fdiv_latency = config.fdiv_latency
        self.fsqrt_latency = config.fsqrt_latency
        self.mispredict_penalty = config.branch_mispredict_penalty
        self.mem_latency = config.mem_latency
        self.tlb_walk_latency = config.tlb_walk_latency

        self._page_count = self.layout.page_count
        self._pt_base = self.layout.page_table_base

        self.pc = 0
        self.mode = Mode.KERNEL
        self.cmp = 0
        self.cycle = 0
        self.csr = [0] * 16
        self.current_pc = 0

        # Local event counters, harvested into PerfCounters by the system.
        self.icount = 0
        self.branches = 0
        self.branch_misses = 0
        self.loads = 0
        self.stores = 0
        self.syscalls = 0
        self.timer_irqs = 0

        self.timer_interval = config.timer_interval
        self.next_timer = config.timer_interval

        #: Optional basic-block translator
        #: (:class:`repro.microarch.translate.BlockTranslator`).  ``None``
        #: means pure interpretation.  The run loop consults it between
        #: instructions; it is ignored while a trace hook is installed
        #: (tracing is per-instruction by definition).
        self.translator = None

        #: Optional per-op dispatch histogram (handler -> count), enabled
        #: by :func:`repro.microarch.profile.enable_op_counts`.  ``None``
        #: (the default) keeps the interpreter loop branch-cheap; when
        #: set, every *interpreted* dispatch is tallied - translated
        #: instructions deliberately do not appear here, which is exactly
        #: what makes the histogram useful: it shows what still falls back.
        self.op_counts = None

    # -- address translation --------------------------------------------------

    def _translate(self, vaddr: int, tlb: TLB, need: int) -> tuple[int, int]:
        """Translate ``vaddr`` through ``tlb``; returns (paddr, latency)."""
        vpn = vaddr >> PAGE_SHIFT
        entry = tlb.lookup(vpn)
        latency = 0
        if entry is None:
            if vpn >= self._page_count:
                raise SegmentationFault(
                    f"access to unmapped address {vaddr:#010x}", pc=self.current_pc
                )
            pte_bytes, walk_latency = self.l2.read(self._pt_base + vpn * 4, 4)
            latency = self.tlb_walk_latency + walk_latency
            pte = int.from_bytes(pte_bytes, "little")
            if not pte & PTE_VALID:
                raise SegmentationFault(
                    f"page fault at {vaddr:#010x}", pc=self.current_pc
                )
            entry = tlb.fill(vpn, pte >> PAGE_SHIFT, pte & 0x1F)
        perms = entry.perms
        if not perms & PTE_VALID:
            raise SegmentationFault(
                f"invalid translation for {vaddr:#010x}", pc=self.current_pc
            )
        if self.mode == Mode.USER and not perms & PTE_USER:
            raise SegmentationFault(
                f"user access to kernel page {vaddr:#010x}", pc=self.current_pc
            )
        if not perms & need:
            raise SegmentationFault(
                f"permission denied at {vaddr:#010x} (need {need:#x})",
                pc=self.current_pc,
            )
        paddr = (entry.ppn << PAGE_SHIFT) | (vaddr & 0xFFF)
        if paddr >= self.layout.memory_size:
            raise SegmentationFault(
                f"translation to nonexistent frame {paddr:#010x}", pc=self.current_pc
            )
        return paddr, latency

    # -- data access -----------------------------------------------------------

    def load_int(self, vaddr: int, size: int) -> tuple[int, int]:
        self.loads += 1
        if vaddr >= MMIO_BASE:
            if self.mode != Mode.KERNEL:
                raise SegmentationFault(
                    f"user access to device {vaddr:#010x}", pc=self.current_pc
                )
            return self.device_read(vaddr) & _MASK32, self.mem_latency
        if size == 4 and vaddr & 3:
            raise AlignmentFault(
                f"misaligned word load at {vaddr:#010x}", pc=self.current_pc
            )
        if self.atomic:
            if vaddr + size > self.memory.size:
                raise SegmentationFault(
                    f"load outside memory {vaddr:#010x}", pc=self.current_pc
                )
            data = self.memory.data[vaddr : vaddr + size]
            return int.from_bytes(data, "little"), 0
        paddr = self._data_hit_paddr(vaddr, PTE_READ)
        if paddr < 0:
            paddr, latency = self._translate(vaddr, self.dtlb, PTE_READ)
            data, cache_latency = self.l1d.read(paddr, size)
            return int.from_bytes(data, "little"), latency + cache_latency
        l1d = self.l1d
        tag = paddr >> l1d._offset_bits
        for line in l1d.sets[tag & l1d._set_mask]:
            if line.valid and line.tag == tag:
                l1d._clock += 1
                l1d.accesses += 1
                line.stamp = l1d._clock
                if l1d.probe is not None:
                    l1d.probe.on_read(l1d, line, paddr, size)
                offset = paddr & l1d._offset_mask
                return (
                    int.from_bytes(line.data[offset : offset + size], "little"),
                    l1d.hit_latency,
                )
        data, cache_latency = l1d.read(paddr, size)
        return int.from_bytes(data, "little"), cache_latency

    def _data_hit_paddr(self, vaddr: int, need: int) -> int:
        """DTLB-hit fast path: the physical address, or -1 to take the
        full :meth:`_translate` walk.

        Pure reads until the hit is certain, then exactly the side effects
        of a :meth:`TLB.lookup` hit - so a -1 return leaves no trace and
        the caller's fallback replays the canonical sequence.
        """
        dtlb = self.dtlb
        vpn = vaddr >> PAGE_SHIFT
        entry = dtlb._map.get(vpn)
        if entry is None or not entry.valid or entry.vpn != vpn:
            return -1
        perms = entry.perms
        if not perms & PTE_VALID or not perms & need:
            return -1
        if self.mode == Mode.USER and not perms & PTE_USER:
            return -1
        paddr = (entry.ppn << PAGE_SHIFT) | (vaddr & 0xFFF)
        if paddr >= self.layout.memory_size:
            return -1
        dtlb.accesses += 1
        dtlb._clock += 1
        entry.stamp = dtlb._clock
        if dtlb.probe is not None:
            dtlb.probe.on_lookup(dtlb, entry)
        return paddr

    def store_int(self, vaddr: int, value: int, size: int) -> int:
        self.stores += 1
        if vaddr >= MMIO_BASE:
            if self.mode != Mode.KERNEL:
                raise SegmentationFault(
                    f"user access to device {vaddr:#010x}", pc=self.current_pc
                )
            self.device_write(vaddr, value & _MASK32)
            return self.mem_latency
        if size == 4 and vaddr & 3:
            raise AlignmentFault(
                f"misaligned word store at {vaddr:#010x}", pc=self.current_pc
            )
        data = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        if self.atomic:
            if vaddr + size > self.memory.size:
                raise SegmentationFault(
                    f"store outside memory {vaddr:#010x}", pc=self.current_pc
                )
            self.memory.data[vaddr : vaddr + size] = data
            return 0
        paddr = self._data_hit_paddr(vaddr, PTE_WRITE)
        if paddr < 0:
            paddr, latency = self._translate(vaddr, self.dtlb, PTE_WRITE)
            return latency + self.l1d.write(paddr, data)
        l1d = self.l1d
        if l1d._write_through:
            return l1d.write(paddr, data)
        tag = paddr >> l1d._offset_bits
        for line in l1d.sets[tag & l1d._set_mask]:
            if line.valid and line.tag == tag:
                l1d._clock += 1
                l1d.accesses += 1
                line.stamp = l1d._clock
                line.dirty = True
                if l1d.probe is not None:
                    l1d.probe.on_write(l1d, line, paddr, size)
                offset = paddr & l1d._offset_mask
                line.data[offset : offset + size] = data
                return l1d.hit_latency
        return l1d.write(paddr, data)

    def load_double(self, vaddr: int) -> tuple[float, int]:
        self.loads += 1
        if vaddr & 7:
            raise AlignmentFault(
                f"misaligned double load at {vaddr:#010x}", pc=self.current_pc
            )
        if vaddr >= MMIO_BASE:
            raise SegmentationFault(
                f"double access to device {vaddr:#010x}", pc=self.current_pc
            )
        if self.atomic:
            data = bytes(self.memory.data[vaddr : vaddr + 8])
            return struct.unpack("<d", data)[0], 0
        paddr, latency = self._translate(vaddr, self.dtlb, PTE_READ)
        data, cache_latency = self.l1d.read(paddr, 8)
        return struct.unpack("<d", data)[0], latency + cache_latency

    def store_double(self, vaddr: int, value: float) -> int:
        self.stores += 1
        if vaddr & 7:
            raise AlignmentFault(
                f"misaligned double store at {vaddr:#010x}", pc=self.current_pc
            )
        if vaddr >= MMIO_BASE:
            raise SegmentationFault(
                f"double access to device {vaddr:#010x}", pc=self.current_pc
            )
        data = struct.pack("<d", value)
        if self.atomic:
            self.memory.data[vaddr : vaddr + 8] = data
            return 0
        paddr, latency = self._translate(vaddr, self.dtlb, PTE_WRITE)
        return latency + self.l1d.write(paddr, data)

    # -- exceptions and interrupts ----------------------------------------------

    def enter_kernel(self, cause: int, epc: int, faultaddr: int = 0) -> None:
        """Vector into the kernel exception handler (hardware behaviour)."""
        csr = self.csr
        csr[CSR_EPC] = epc & _MASK32
        csr[CSR_CAUSE] = cause
        csr[CSR_FAULTADDR] = faultaddr & _MASK32
        # Bank the privilege mode and the compare flags: the kernel handler
        # executes its own cmp/cmpi instructions, and an interrupt can land
        # between a workload's cmp and its dependent branch.
        csr[CSR_STATUS] = int(self.mode) | ((self.cmp + 1) & 3) << 1
        csr[CSR_USP] = self.rf.int_regs[13]
        self.rf.int_regs[13] = csr[CSR_KSP]
        self.mode = Mode.KERNEL
        self.pc = EXC_VECTOR
        if self._itlb_flush_on_exception:
            self.itlb.flush()

    # -- execution ---------------------------------------------------------------

    def run(self, max_cycles: int, events=None, trace=None) -> None:
        """Execute until a :class:`SimulationTermination` is raised.

        ``events`` is an optional list of ``(cycle, callable)`` pairs fired
        between instructions once the cycle counter passes their timestamp
        (used by the fault injectors).  Every event due at the current
        cycle fires before the next instruction; ties fire in list order.

        ``trace``, if given, is called with the core before every
        instruction (used by :mod:`repro.microarch.trace`).  While it is
        set the translator stays off: tracing is per-instruction by
        definition.

        Each iteration runs, in order: due events, the timer interrupt, the
        watchdog, the trace hook, then either a translated block or one
        fetch/decode/execute.  The fetch inlines the ITLB and L1I hit paths
        with invariant lookups (memory buffer, cache/TLB state, the decode
        memo) bound to locals.

        This method always exits by raising: :class:`ProgramExit`,
        :class:`ApplicationAbort`, :class:`KernelPanic` or
        :class:`WatchdogTimeout`.
        """
        pending = sorted(events, key=lambda item: item[0]) if events else []
        pending.reverse()  # pop() from the end
        next_event = pending[-1][0] if pending else _NEVER
        atomic = self.atomic
        memory_data = self.memory.data
        memory_size = self.memory.size
        translate = self._translate
        itlb = self.itlb
        itlb_map = itlb._map
        l1i = self.l1i
        l1i_read = l1i.read
        l1i_sets = l1i.sets
        offset_bits = l1i._offset_bits
        set_mask = l1i._set_mask
        offset_mask = l1i._offset_mask
        l1i_hit_latency = l1i.hit_latency
        page_shift = PAGE_SHIFT
        pte_fetch_ok = PTE_VALID | PTE_EXEC
        pte_user = PTE_USER
        layout_memory_size = self.layout.memory_size
        decode_get = _DECODE_CACHE.get
        int_from_bytes = int.from_bytes
        mode_user = Mode.USER
        mode_kernel = Mode.KERNEL
        translator = self.translator if trace is None else None
        translator_execute = translator.execute if translator is not None else None
        op_counts = self.op_counts

        while True:
            # Events install taint probes, so the probe locals are re-read
            # every time the loop below is entered after an event fired.
            itlb_probe = itlb.probe
            l1i_probe = l1i.probe
            while True:
                cycle = self.cycle
                if cycle >= next_event:
                    break
                if cycle >= self.next_timer:
                    if self.mode is mode_user:
                        self.timer_irqs += 1
                        self.enter_kernel(CAUSE_TIMER, epc=self.pc)
                        self.next_timer = cycle + self.timer_interval
                    # In kernel mode the interrupt stays pending until eret.
                if cycle >= max_cycles:
                    raise WatchdogTimeout(cycle)
                if trace is not None:
                    trace(self)
                if translator_execute is not None:
                    # A translated block may run only up to the next boundary
                    # a per-instruction check would notice: the next event,
                    # the watchdog, and (in user mode) the pending timer.  The
                    # checks above guarantee limit > cycle here.
                    limit = next_event if next_event < max_cycles else max_cycles
                    if self.mode is mode_user and self.next_timer < limit:
                        limit = self.next_timer
                    try:
                        if translator_execute(self, limit):
                            continue
                    except ArchitecturalFault as fault:
                        if self.mode is mode_kernel:
                            raise KernelPanic(
                                str(fault), pc=self.current_pc
                            ) from fault
                        self.enter_kernel(
                            fault.cause, epc=self.current_pc, faultaddr=fault.pc
                        )
                        self.cycle += 4
                        continue
                pc = self.pc
                self.current_pc = pc
                try:
                    if pc & 3:
                        raise AlignmentFault(
                            f"misaligned fetch at {pc:#010x}", pc=pc
                        )
                    if pc >= MMIO_BASE:
                        raise SegmentationFault(
                            f"fetch from device space {pc:#010x}", pc=pc
                        )
                    if atomic:
                        if pc + 4 > memory_size:
                            raise SegmentationFault(
                                f"fetch outside memory {pc:#010x}", pc=pc
                            )
                        word = int_from_bytes(memory_data[pc : pc + 4], "little")
                        fetch_latency = 0
                    else:
                        # Inline ITLB-hit path.  Checks are pure reads; the
                        # side effects (access/clock counters, the LRU stamp)
                        # are applied only once the hit is certain, so falling
                        # back to the full _translate() on any miss,
                        # permission problem or bounds problem replays the
                        # canonical sequence.
                        vpn = pc >> page_shift
                        tlb_entry = itlb_map.get(vpn)
                        paddr = -1
                        if (
                            tlb_entry is not None
                            and tlb_entry.valid
                            and tlb_entry.vpn == vpn
                        ):
                            perms = tlb_entry.perms
                            if (
                                perms & pte_fetch_ok == pte_fetch_ok
                                and (perms & pte_user or self.mode is not mode_user)
                            ):
                                candidate = (tlb_entry.ppn << page_shift) | (
                                    pc & 0xFFF
                                )
                                if candidate < layout_memory_size:
                                    itlb.accesses += 1
                                    itlb._clock += 1
                                    tlb_entry.stamp = itlb._clock
                                    if itlb_probe is not None:
                                        itlb_probe.on_lookup(itlb, tlb_entry)
                                    paddr = candidate
                                    tlb_latency = 0
                        if paddr < 0:
                            paddr, tlb_latency = translate(pc, itlb, PTE_EXEC)
                        # Inline L1I-hit path, same discipline as above.
                        tag = paddr >> offset_bits
                        word = -1
                        for line in l1i_sets[tag & set_mask]:
                            if line.valid and line.tag == tag:
                                l1i._clock += 1
                                l1i.accesses += 1
                                line.stamp = l1i._clock
                                if l1i_probe is not None:
                                    l1i_probe.on_read(l1i, line, paddr, 4)
                                offset = paddr & offset_mask
                                word = int_from_bytes(
                                    line.data[offset : offset + 4], "little"
                                )
                                fetch_latency = tlb_latency + l1i_hit_latency
                                break
                        if word < 0:
                            data, cache_latency = l1i_read(paddr, 4)
                            word = int_from_bytes(data, "little")
                            fetch_latency = tlb_latency + cache_latency

                    entry = decode_get(word)
                    if entry is None:
                        entry = _decode_slow(word)
                        if entry is None:
                            raise IllegalInstruction(
                                f"illegal instruction {word:#010x} at {pc:#010x}",
                                pc=pc,
                            )
                    self.pc = pc + 4
                    handler, rd, rs1, rs2, imm = entry
                    if op_counts is not None:
                        op_counts[handler] = op_counts.get(handler, 0) + 1
                    cost = handler(self, rd, rs1, rs2, imm)
                    self.icount += 1
                    self.cycle = cycle + 1 + fetch_latency + cost
                except ArchitecturalFault as fault:
                    if self.mode is mode_kernel:
                        raise KernelPanic(str(fault), pc=self.current_pc) from fault
                    self.enter_kernel(
                        fault.cause, epc=self.current_pc, faultaddr=fault.pc
                    )
                    self.cycle += 4
            _cycle, action = pending.pop()
            action()
            next_event = pending[-1][0] if pending else _NEVER
