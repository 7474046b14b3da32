"""Trace translation phase 2: chained, loop-carrying compiled superblocks.

The interpreter pays its per-instruction costs - fetch translation, cache
tag scan, decode-memo lookup, handler dispatch, counter bookkeeping - for
every dynamic instruction, even though hot code re-executes the same
regions millions of times.  This module discovers those regions at
runtime and compiles each one into a single closed-over Python function:
generated source, ``compile()``\\ d once per process (code objects are
shared, keyed by a digest of the source), blocks cached per (pc, mode).

Heat counts at block heads only.  When a block stops mid-region (an
event or digest-probe limit, a guard failure, an interrupt ``eret`` back
into it) the interpreter walks the rest of the region; those arrivals at
the region's *interior* (positions after the first that are not in-region
jump targets) gain no heat, so they do not compile near-duplicates of the
region's tail.  A block exit that lands inside another region is a real
entry point and still heats, and a block already compiled there runs.

Beyond the straight-line blocks of the first translator generation, a
region may now span *taken branches inside a page*: conditional and
unconditional branches whose targets fall inside the region become
in-block jumps, so an inner loop (CRC32's byte loop, MatMul's nests)
compiles into one superblock that iterates without leaving compiled
code.  The dispatcher chains blocks: when a block exits with the cycle
budget unspent, the next block at the new pc runs immediately instead of
bouncing through the run loop.

A translated block is **bit-exact** with the interpreter by construction:

- Entry guards are pure reads.  The block verifies the ITLB entry and
  *every* L1I line it was compiled from - byte-compared against the
  compile-time words - before touching any state.  Nothing a block body
  can do (data-side loads/stores, interpreter fallbacks) evicts or
  rewrites L1I lines or the ITLB entry, so the fetch-side guard is
  hoisted to block entry and loop iterations re-check nothing.
- A block whose guard keeps failing (an injected flip corrupted its code
  bytes) is evicted and re-translated from the bytes now resident, so
  post-flip execution still runs compiled; translating corrupted-but-
  decodable code is exactly as valid as interpreting it.
- Fetch-side observability (ITLB/L1I taint probes) and the register-file
  taint probe (its list subclasses replace ``rf.int_regs``/``rf.fp_regs``)
  force interpretation: blocks read ITLB entries and L1I lines directly
  and keep registers in Python locals, so neither per-fetch nor
  per-register probe events could be replayed.  The regfile probe
  self-uninstalls at the first read of a tainted register, and a flip
  into a register no instruction reads never arms it (see
  :meth:`repro.microarch.regfile.PhysRegFile.observable`), so a probed
  run interprets only until the fault is first used.  Data-side probes
  (DTLB, L1D, L2, memory) do not force interpretation: the inline
  DTLB/L1D fast paths replay ``on_lookup``/``on_read``/``on_write``
  notifications at exactly the interpreter's call sites, flushing the
  batched cycle counter first so lifetime events carry identical stamps;
  interpreter fallbacks (misses, walks, write-backs) fire the remaining
  hooks themselves.
- Every instruction boundary observes the caller's ``limit`` (the next
  event/digest-probe cycle, the pending timer, the watchdog).  Each
  ladder pass first compares the remaining budget against the region's
  static worst-case cost; with room to spare it runs a check-free fast
  body (straight-line runs pre-pay their cycle ticks in one add), else a
  slow body that re-checks the limit before every instruction.  Either
  way events fire between exactly the same instructions as under
  interpretation.
- Data-side accesses take inline DTLB+L1D full-hit fast paths that
  replay exactly the interpreter's hit sequence (same counter bumps,
  same LRU stamps, same latencies) - now including 8-byte ``FLD``/``FST``
  - and fall back to :meth:`Core.load_int` / ``store_int`` /
  ``load_double`` / ``store_double`` for anything short of an aligned,
  non-MMIO, TLB-resident, cache-resident access, so walks, misses and
  faults are bit-identical.
- Batched state (cycle, icount, cmp, rename cursors, branch counters,
  fetch- and data-side clocks/access counts, LRU stamps) is flushed at
  every exit, including the exception path, leaving the machine exactly
  where the interpreter would have left it, mid-fault included.

Regions end at page boundaries, privileged or kernel-entry instructions
(SYSCALL/ERET/HALT/CSRR/CSRW - CSRR also reads the live cycle counter,
which a block batches), illegal words, calls and indirect branches
(BL/BR/BLR), L1I lines that are not resident, and unconditional branches
that close the region (no decoded-forward target remains reachable).
"""

from __future__ import annotations

import hashlib
import struct
from contextlib import contextmanager

from repro.errors import ArithmeticFault
from repro.isa.encoding import try_decode
from repro.isa.opcodes import Op
from repro.kernel.layout import (
    MMIO_BASE,
    PAGE_SHIFT,
    PTE_EXEC,
    PTE_READ,
    PTE_USER,
    PTE_VALID,
    PTE_WRITE,
)
from repro.microarch.core import Mode, register_effects

_MASK32 = 0xFFFFFFFF

#: Dispatch misses at a pc before a translation attempt.
HEAT_THRESHOLD = 16
#: A failed (but maybe retryable) attempt backs off this many visits.
RETRY_PENALTY = 112
#: Entry-guard failures at a pc before a fresh variant is compiled from
#: the bytes now resident (an injected flip in the code path would
#: otherwise force interpretation for the rest of the run).
GUARD_FAIL_EVICT = 8
#: Compiled byte-content variants kept per pc (pristine + recent
#: corruptions); the least recently matching one is dropped beyond this.
MAX_BLOCK_VARIANTS = 4
#: Block size bounds.  The maximum keeps generated functions small enough
#: to compile quickly; the minimum avoids blocks whose guard cost exceeds
#: the interpretation cost they replace.
MAX_BLOCK_INSTRUCTIONS = 64
MIN_BLOCK_INSTRUCTIONS = 2

#: Instructions a block must end *before*: kernel entries/exits change the
#: privilege mode mid-stream, and CSRR reads the live cycle counter that a
#: block keeps batched in a local.
UNTRANSLATABLE_OPS = frozenset({Op.SYSCALL, Op.ERET, Op.HALT, Op.CSRR, Op.CSRW})

_COND_BRANCH_EXPR = {
    Op.BEQ: "cmp == 0",
    Op.BNE: "cmp != 0",
    Op.BLT: "cmp == -1",
    Op.BGE: "cmp == 0 or cmp == 1",
    Op.BGT: "cmp == 1",
    Op.BLE: "cmp == 0 or cmp == -1",
}
#: Ops that always end a region (dynamic or cross-page control transfer).
_EXIT_OPS = frozenset({Op.BL, Op.BR, Op.BLR})
_MEM_OPS = frozenset({Op.LDW, Op.LDB, Op.STW, Op.STB, Op.FLD, Op.FST})

_DOUBLE = struct.Struct("<d")

#: Permanent do-not-translate marker (an untranslatable first instruction,
#: or a structurally tiny block): dispatch answers with a single identity
#: check instead of a call.
_NEVER = object()

#: 16-byte BLAKE2b digest of generated source -> code object, shared
#: module-wide.  Identical regions regenerate identical source across
#: evictions, pristine restores and fresh injectors over the same image, so
#: the compile() step (by far the dominant translation cost) is paid once
#: per distinct source per process.  Keying by digest instead of by the
#: source text lets each source (tens of kB for a loop superblock) be freed
#: once compiled.  Blocks close over their core via ``_factory``, so a
#: cached code object is core-agnostic.  Bounded as a safety valve; a
#: 13-code injection pass produces several hundred distinct sources.
_CODE_CACHE: dict[bytes, object] = {}
_CODE_CACHE_MAX = 4096


def attach_translator(system, *, profile: bool = False):
    """Enable block translation on ``system``'s core.

    Returns the installed :class:`BlockTranslator`, or ``None`` on atomic
    machines - atomic mode has no caches or TLBs to guard blocks with, and
    its interpreter is already a flat array walk.

    ``profile`` compiles iteration counters into superblocks and keeps
    translator statistics for
    :func:`repro.microarch.profile.translator_stats`.
    """
    if system.config.atomic:
        return None
    translator = BlockTranslator(system.core, profile=profile)
    system.core.translator = translator
    return translator


@contextmanager
def translated(system, enabled: bool = True):
    """Run ``system`` on a non-profiling block translator inside the block.

    The engine of fault-free work (golden, capture and beam warm runs):
    bit-exact with the interpreter, so ``enabled=False`` (the reference
    engine) changes nothing but speed.  On exit the translator is
    detached, breaking the core <-> translator reference cycle so the
    fault-free machine is freed by refcount rather than at the next full
    garbage collection.
    """
    if not enabled:
        yield
        return
    attach_translator(system)
    try:
        yield
    finally:
        system.core.translator = None


class BlockTranslator:
    """Discovers, compiles and dispatches translated blocks for one core."""

    def __init__(self, core, *, profile: bool = False):
        self.core = core
        self.profile = bool(profile)
        #: pc -> list of compiled variants (MRU order), or _NEVER.  A pc
        #: accumulates one variant per byte-content seen (pristine code
        #: plus any injected corruptions), so restoring a snapshot or
        #: flipping a code line never recompiles what was already built.
        self._user_blocks: dict[int, object] = {}
        self._kernel_blocks: dict[int, object] = {}
        self._heat: dict[int, int] = {}
        self._fails: dict[int, int] = {}
        #: ``(pc << 1) | mode`` keys strictly inside a compiled region that
        #: are not in-region jump targets.  The interpreter arrives there
        #: walking out the rest of a region a block left early, and those
        #: arrivals gain no heat.
        self._interior: set[int] = set()
        #: Source digest -> code object (module-shared; see _CODE_CACHE).
        self._code_cache = _CODE_CACHE
        #: Compiled-block count, exposed for tests and benchmarks.
        self.compiled = 0
        self.compiled_superblocks = 0
        self.dispatches = 0
        self.block_runs = 0
        self.chain_hits = 0
        self.guard_failures = 0
        self.evictions = 0
        #: Instructions retired inside translated blocks, accumulated
        #: across snapshot restores (core.icount is rolled back by them).
        self.translated_instructions = 0
        self.refusals: dict[str, int] = {}
        #: Mutable cells shared with profile-compiled blocks.
        self.stats: dict[str, int] = {"superblock_iterations": 0}

    # -- dispatch -------------------------------------------------------------

    def execute(self, core, limit: int) -> bool:
        """Run translated blocks at ``core.pc`` while the budget lasts.

        Returns ``True`` when at least one instruction was executed (the
        run loop then re-checks events/timer/watchdog), ``False`` when the
        caller must interpret the next instruction itself.  The
        dispatcher chains: it keeps running successor blocks until the
        budget is spent, a guard fails, or the next pc is cold.
        """
        if (
            core.l1i.probe is not None
            or core.itlb.probe is not None
            or type(core.rf.int_regs) is not list
        ):
            # Fetch-side probes and probed (regfile-tainted) register
            # lists force interpretation: entry guards read ITLB entries
            # and L1I lines directly, the batched fetch clocks cannot
            # replay per-fetch probe events, and blocks keep registers in
            # locals the wrapper never sees.  Checked here so probed runs
            # do not masquerade as guard failures and churn the variant
            # compiler.  Data-side probes, by contrast, are handled by
            # compiling probe-replaying variants.
            return False
        mode = core.mode
        blocks = (
            self._kernel_blocks if mode is Mode.KERNEL else self._user_blocks
        )
        heat = self._heat
        executed = False
        self.dispatches += 1
        while True:
            pc = core.pc
            variants = blocks.get(pc)
            if variants is None:
                key = (pc << 1) | int(mode)
                if not executed and key in self._interior:
                    # An interpreter arrival inside a compiled region:
                    # heat counts at block heads only.
                    return False
                count = heat.get(key, 0) + 1
                if count < HEAT_THRESHOLD:
                    heat[key] = count
                    return executed
                heat.pop(key, None)
                fn = self._translate(core, pc, mode)
                if fn is None:
                    heat[key] = -RETRY_PENALTY
                    return executed
                if fn is _NEVER:
                    blocks[pc] = _NEVER
                    return executed
                variants = [fn]
                blocks[pc] = variants
            elif variants is _NEVER:
                return executed
            ran = False
            icount0 = core.icount
            for which, fn in enumerate(variants):
                if fn(limit):
                    if which:
                        # MRU order: the variant matching the resident
                        # bytes (pristine after a restore, corrupted after
                        # a flip) wins every dispatch until the next flip.
                        variants.pop(which)
                        variants.insert(0, fn)
                    ran = True
                    break
            if ran:
                executed = True
                self.block_runs += 1
                # Monotonic, unlike core.icount (which snapshot restores
                # roll back between injections): campaign-wide profiles
                # need a translated-instruction count that survives them.
                self.translated_instructions += core.icount - icount0
                if self._fails:
                    self._fails.pop((pc << 1) | int(mode), None)
                if core.cycle < limit:
                    self.chain_hits += 1
                    continue
                return True
            # Every variant's guard failed (the callers guarantee
            # cycle < limit and guards change no state): the resident
            # bytes match none of the compiled versions - an injected
            # flip landed in this code.  Past the threshold, compile one
            # more variant from the bytes now resident; translating
            # corrupted-but-decodable code is exactly as valid as
            # interpreting it.
            self.guard_failures += 1
            fails = self._fails
            key = (pc << 1) | int(mode)
            count = fails.get(key, 0) + 1
            if count < GUARD_FAIL_EVICT:
                fails[key] = count
                return executed
            fn = self._translate(core, pc, mode)
            if fn is None or fn is _NEVER:
                # Not currently translatable (bytes decode illegal, or an
                # L1I line went absent).  Back off in fail space; the
                # existing variants keep covering the pristine bytes.
                fails[key] = -RETRY_PENALTY
                return executed
            fails.pop(key, None)
            variants.insert(0, fn)
            if len(variants) > MAX_BLOCK_VARIANTS:
                variants.pop()
                self.evictions += 1
            return executed

    # -- discovery ------------------------------------------------------------

    def _refuse(self, reason: str) -> None:
        self.refusals[reason] = self.refusals.get(reason, 0) + 1

    def _discover(self, core, pc: int, mode) -> tuple[list, bool, str]:
        """Decode a region at ``pc`` using only pure reads.

        Returns ``(instrs, extendable, stop_reason)``; ``extendable``
        means a longer region might become discoverable later (an L1I
        line was absent), so a failed attempt should be retried rather
        than pinned.  Decoding continues past conditional branches and
        past unconditional branches that still have a decoded-forward
        target ahead of them (loop superblocks).
        """
        itlb = core.itlb
        vpn = pc >> PAGE_SHIFT
        entry = itlb._map.get(vpn)
        if entry is None or not entry.valid or entry.vpn != vpn:
            return [], True, "itlb-miss"
        perms = entry.perms
        need = PTE_VALID | PTE_EXEC
        if perms & need != need:
            return [], False, "not-executable"
        if mode is Mode.USER and not perms & PTE_USER:
            return [], False, "kernel-page"
        base = entry.ppn << PAGE_SHIFT
        l1i = core.l1i
        memory_size = core.layout.memory_size
        page_end = (vpn + 1) << PAGE_SHIFT
        max_end = pc + 4 * MAX_BLOCK_INSTRUCTIONS
        instrs: list = []
        addr = pc
        pending = 0  # highest decoded-forward branch target seen so far
        while len(instrs) < MAX_BLOCK_INSTRUCTIONS and addr + 4 <= page_end:
            paddr = base | (addr & ((1 << PAGE_SHIFT) - 1))
            if paddr + 4 > memory_size:
                return instrs, False, "memory-bound"
            tag = paddr >> l1i._offset_bits
            line = None
            for candidate in l1i.sets[tag & l1i._set_mask]:
                if candidate.valid and candidate.tag == tag:
                    line = candidate
                    break
            if line is None:
                return instrs, True, "l1i-miss"
            offset = paddr & l1i._offset_mask
            word = int.from_bytes(line.data[offset : offset + 4], "little")
            inst = try_decode(word)
            if inst is None:
                return instrs, False, "illegal"
            op = inst.op
            if op in UNTRANSLATABLE_OPS:
                return instrs, False, "untranslatable-op"
            instrs.append((addr, word, op, inst.rd, inst.rs1, inst.rs2, inst.imm))
            if op in _EXIT_OPS:
                return instrs, False, "call-or-indirect"
            if op is Op.B or op in _COND_BRANCH_EXPR:
                target = (addr + 4 + inst.imm * 4) & _MASK32
                if addr < target < min(page_end, max_end) and target > pending:
                    pending = target
                if op is Op.B and pending <= addr:
                    # Unconditional jump with nothing decoded-forward left
                    # reachable: the region is closed.
                    return instrs, False, "region-closed"
            addr += 4
        return instrs, False, "region-bound"

    def _translate(self, core, pc: int, mode):
        instrs, extendable, reason = self._discover(core, pc, mode)
        region = _Region(pc, instrs) if instrs else None
        if len(instrs) < MIN_BLOCK_INSTRUCTIONS and not (
            region is not None and region.has_backward
        ):
            if extendable:
                self._refuse(reason)
                return None
            self._refuse(reason if instrs or reason else "too-short")
            return _NEVER
        source, consts = _emit_block(
            core, pc, mode, instrs, region, self.profile, self.stats
        )
        digest = hashlib.blake2b(source.encode(), digest_size=16).digest()
        code = self._code_cache.get(digest)
        if code is None:
            if len(self._code_cache) >= _CODE_CACHE_MAX:
                self._code_cache.clear()
            code = compile(source, f"<block {mode.name.lower()}@{pc:#x}>", "exec")
            self._code_cache[digest] = code
        namespace: dict = {}
        exec(code, namespace)
        self.compiled += 1
        tag = int(mode)
        self._interior.update(
            ((pc + 4 * pos) << 1) | tag
            for pos in range(1, region.count)
            if pos not in region.targets
        )
        if region.has_backward or len(region.sections) > 1:
            self.compiled_superblocks += 1
        return namespace["_factory"](core, consts)


# ---------------------------------------------------------------------------
# Region analysis
# ---------------------------------------------------------------------------


class _Region:
    """Static control-flow facts about one decoded region.

    ``jump`` maps branch positions to ``(target_addr, target_index)``
    where ``target_index`` is the in-region instruction index or ``None``
    for a side exit.  ``sections`` cuts the region at every in-region
    jump target; a generated pass walks the sections top to bottom behind
    ``_s`` ladder guards, so arbitrary forward and backward in-region
    jumps become ``_s = k; continue``.
    """

    __slots__ = (
        "start",
        "count",
        "jump",
        "targets",
        "sections",
        "sec_of",
        "has_backward",
    )

    def __init__(self, pc: int, instrs):
        self.start = pc
        count = len(instrs)
        self.count = count
        end = pc + 4 * count
        self.jump: dict[int, tuple[int, int | None]] = {}
        targets: set[int] = set()
        has_backward = False
        for pos, (addr, _w, op, _rd, _rs1, _rs2, imm) in enumerate(instrs):
            if op is Op.B or op in _COND_BRANCH_EXPR:
                target = (addr + 4 + imm * 4) & _MASK32
                idx = (target - pc) // 4 if pc <= target < end else None
                self.jump[pos] = (target, idx)
                if idx is not None:
                    targets.add(idx)
                    if idx <= pos:
                        has_backward = True
        self.targets = targets
        self.has_backward = has_backward
        cuts = sorted({0, count, *targets})
        self.sections = list(zip(cuts[:-1], cuts[1:]))
        self.sec_of: dict[int, int] = {}
        for index, (a, b) in enumerate(self.sections):
            for pos in range(a, b):
                self.sec_of[pos] = index


def _worst_pass_cost(core, instrs) -> int:
    """Sound upper bound on the *check-free* cycle cost of one ladder pass.

    A pass executes each instruction at most once, so the bound is the
    sum of per-instruction worst costs along any path that never meets a
    limit check.  Memory ops contribute only their L1D *hit* cost: the
    unbounded case (a miss) goes through an interpreter fallback, and
    every fast-pass fallback arm re-establishes the full entry budget
    (``limit - cycle > worst``) immediately after adding its cost (see
    :func:`_limit_exit`), so a miss can never let a later instruction
    start past the limit.  Keeping the bound at hit cost (tens of
    cycles, not
    the ~800 of a full miss chain) means the check-free fast body covers
    essentially every iteration of a window instead of abandoning its
    tail to the per-instruction slow body.
    """
    fetch = 1 + core.l1i.hit_latency
    total = 0
    for _addr, _word, op, _rd, _rs1, _rs2, _imm in instrs:
        if op in _MEM_OPS:
            extra = core.l1d.hit_latency
        elif op in (Op.MUL, Op.MULI):
            extra = core.mul_latency
        elif op in (Op.DIV, Op.MOD):
            extra = core.div_latency
        elif op is Op.FDIV:
            extra = core.fdiv_latency
        elif op is Op.FSQRT:
            extra = core.fsqrt_latency
        elif op in (Op.FADD, Op.FSUB, Op.FMUL, Op.FCMP, Op.FCVT, Op.FCVTI):
            extra = core.fpu_latency
        elif op is Op.B or op in _COND_BRANCH_EXPR or op in _EXIT_OPS:
            extra = core.mispredict_penalty
        else:
            extra = 0
        total += fetch + extra
    return total


def _static_cost(core, op):
    """Fixed execute-stage cost for pre-payable ops, ``None`` otherwise.

    Pre-payable means: fixed cost, cannot raise, fires no probe - so its
    cycle tick can be folded into one add at the head of a straight-line
    run inside the check-free fast body.
    """
    if op in _MEM_OPS or op in (Op.DIV, Op.MOD):
        return None
    if op is Op.B or op in _COND_BRANCH_EXPR or op in _EXIT_OPS:
        return None
    if op in (Op.MUL, Op.MULI):
        return core.mul_latency
    if op is Op.FDIV:
        return core.fdiv_latency
    if op is Op.FSQRT:
        return core.fsqrt_latency
    if op in (Op.FADD, Op.FSUB, Op.FMUL, Op.FCMP, Op.FCVT, Op.FCVTI):
        return core.fpu_latency
    return 0


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------


class _Emitter:
    def __init__(self):
        self.lines: list[str] = []
        self.indent = 0

    def emit(self, *lines: str) -> None:
        pad = "    " * self.indent
        for line in lines:
            self.lines.append(pad + line)


def _group_spans(instrs, offset_mask: int):
    """Split the region into runs of instructions sharing one L1I line.

    Returns ``[(page_offset_of_line, first_byte, last_byte, expected)]``
    plus, per instruction, the index of its group.
    """
    groups = []
    owner = []
    for addr, word, *_ in instrs:
        page_offset = addr & ((1 << PAGE_SHIFT) - 1)
        line_offset = page_offset & ~offset_mask
        in_line = page_offset & offset_mask
        if groups and groups[-1][0] == line_offset:
            groups[-1][2] = in_line + 4
            groups[-1][3] += word.to_bytes(4, "little")
        else:
            groups.append(
                [line_offset, in_line, in_line + 4, word.to_bytes(4, "little")]
            )
        owner.append(len(groups) - 1)
    return [tuple(group) for group in groups], owner


def _reg_effects(instrs):
    """Integer/fp registers read and written anywhere in the region.

    The generated block keeps these in Python locals: nothing outside the
    block observes the register file mid-block (digest probes, injections
    and event hooks all run at ``limit`` boundaries, probed register
    lists are never translated, and interpreter fallbacks take their
    operands as arguments), so architectural registers only need to be
    real list slots again at block exits.  Rename-history slots
    (index >= 16) are written through immediately - they are never
    instruction operands.
    """
    int_reads: set[int] = set()
    int_writes: set[int] = set()
    fp_reads: set[int] = set()
    fp_writes: set[int] = set()
    for _addr, _word, op, rd, rs1, rs2, _imm in instrs:
        ir, iw, fr, fw = register_effects(op, rd, rs1, rs2)
        int_reads |= ir
        int_writes |= iw
        fp_reads |= fr
        fp_writes |= fw
    return int_reads, int_writes, fp_reads, fp_writes


class _Ctx:
    """Everything the per-instruction emitters need, in one bag."""

    __slots__ = (
        "core",
        "mode",
        "instrs",
        "region",
        "owner",
        "hit",
        "n_int",
        "n_fp",
        "use_n",
        "use_ladder",
        "has_mem",
        "loads_fast",
        "stores_fast",
        "fp_mem_fast",
        "probes",
        "reads_inline",
        "writes_inline",
        "profile",
        "int_used",
        "int_writes",
        "fp_used",
        "fp_writes",
        "worst",
    )

    def __init__(self, core, mode, instrs, region, owner, profile):
        self.core = core
        self.mode = mode
        self.instrs = instrs
        self.region = region
        self.owner = owner
        self.hit = 1 + core.l1i.hit_latency
        self.n_int = core.rf.n_int
        self.n_fp = core.rf.n_fp
        self.use_n = bool(region.targets)
        self.use_ladder = len(region.sections) > 1
        ops = {instr[2] for instr in instrs}
        self.loads_fast = bool(ops & {Op.LDW, Op.LDB, Op.FLD})
        writeback = not core.l1d._write_through
        self.stores_fast = bool(ops & {Op.STW, Op.STB, Op.FST}) and writeback
        # 8-byte single-line accesses need 8-byte lines; FST additionally
        # needs write-back mode (write-through hits still go below).
        self.fp_mem_fast = core.l1d.line_size >= 8
        self.has_mem = bool(ops & _MEM_OPS)
        # Data-side probe state at translate time.  With no probes armed
        # the block compiles probe-check-free and its entry guard refuses
        # to run once probes appear (the dispatcher then compiles a
        # probe-replaying variant).  With probes armed the block replays
        # every notification inline and stays valid either way.
        self.probes = core.dtlb.probe is not None or core.l1d.probe is not None
        # Memoized virtual-line -> (TLB entry, L1D line) mappings, one
        # block-call-local dict per access direction (``dr`` for reads,
        # ``dw`` for writes - the permission verdicts differ).  Within one
        # block call the only thing that can evict or refill a TLB entry
        # or cache line is an interpreter fallback, and every fallback
        # resets the dicts, so a memoized mapping needs no validity
        # re-checks beyond the virtual line number and alignment.
        self.reads_inline = bool(ops & {Op.LDW, Op.LDB}) or (
            Op.FLD in ops and self.fp_mem_fast
        )
        self.writes_inline = self.stores_fast and (
            bool(ops & {Op.STW, Op.STB}) or (Op.FST in ops and self.fp_mem_fast)
        )
        self.profile = profile
        int_reads, int_writes, fp_reads, fp_writes = _reg_effects(instrs)
        self.int_used = sorted(int_reads | int_writes)
        self.int_writes = sorted(int_writes)
        self.fp_used = sorted(fp_reads | fp_writes)
        self.fp_writes = sorted(fp_writes)
        self.worst = _worst_pass_cost(core, instrs)

    def sec_start(self, pos: int) -> int:
        return self.region.sections[self.region.sec_of[pos]][0]

    def before(self, pos: int) -> str:
        """Instructions retired when position ``pos`` is *about* to run."""
        off = pos - self.sec_start(pos)
        if not self.use_n:
            return str(pos)
        return "n" if off == 0 else f"n + {off}"

    def after(self, pos: int) -> str:
        """Instructions retired once position ``pos`` *has* run."""
        if not self.use_n:
            return str(pos + 1)
        return f"n + {pos - self.sec_start(pos) + 1}"


def _flush_data_counters() -> list[str]:
    """Write the batched data-side clocks and access counts back.

    ``accesses`` is not kept as its own local: every in-block fast path
    bumps the clock and the access count in lockstep (+1 each per hit),
    so the count is derived from the clock delta since the last reload.
    """
    return [
        "dtlb._clock = dck",
        "dtlb.accesses = da0 + dck - dck0",
        "l1d._clock = lck",
        "l1d.accesses = la0 + lck - lck0",
    ]


def _reload_data_counters() -> list[str]:
    return [
        "dck = dtlb._clock",
        "dck0 = dck",
        "da0 = dtlb.accesses",
        "lck = l1d._clock",
        "lck0 = lck",
        "la0 = l1d.accesses",
    ]


def _emit_block(core, pc: int, mode, instrs, region: _Region, profile, stats):
    """Generate the factory source and constant pool for one region."""
    l1i = core.l1i
    groups, owner = _group_spans(instrs, l1i._offset_mask)
    ctx = _Ctx(core, mode, instrs, region, owner, profile)
    consts = {
        "mode": mode,
        "nan": float("nan"),
        "ArithmeticFault": ArithmeticFault,
        "unpack": _DOUBLE.unpack_from,
        "pack": _DOUBLE.pack,
        "stats": stats,
    }
    for index, (_off, _first, _last, expected) in enumerate(groups):
        consts[f"X{index}"] = expected

    out = _Emitter()
    out.emit("def _factory(core, C):")
    out.indent = 1
    out.emit(
        "rf = core.rf",
        "itlb = core.itlb",
        "l1i = core.l1i",
        "itlb_map = itlb._map",
        "l1i_sets = l1i.sets",
        "dtlb = core.dtlb",
        "dtlb_map = dtlb._map",
        "l1d = core.l1d",
        "l1d_sets = l1d.sets",
        "l2 = core.l2",
        "mem = core.memory",
        "ifb = int.from_bytes",
        "load_int = core.load_int",
        "store_int = core.store_int",
        "load_double = core.load_double",
        "store_double = core.store_double",
        "mode_c = C['mode']",
        "NAN = C['nan']",
        "ArithmeticFault = C['ArithmeticFault']",
        "unpk = C['unpack']",
        "pck = C['pack']",
        "ST = C['stats']",
    )
    for index in range(len(groups)):
        out.emit(f"X{index} = C['X{index}']")
    out.emit("def block(limit):")
    out.indent = 2

    # -- pure entry guards ---------------------------------------------------
    vpn = pc >> PAGE_SHIFT
    need = PTE_VALID | PTE_EXEC
    last_byte = max(offset + last for offset, _first, last, _x in groups) - 1
    out.emit(
        "cycle = core.cycle",
        "if cycle >= limit:",
        "    return False",
        "if core.mode is not mode_c:",
        "    return False",
        "int_regs = rf.int_regs",
        "if type(int_regs) is not list:",
        "    return False",
        "if itlb.probe is not None or l1i.probe is not None:",
        "    return False",
        f"e = itlb_map.get({vpn})",
        f"if e is None or not e.valid or e.vpn != {vpn}:",
        "    return False",
        "p = e.perms",
        f"if p & {need} != {need}:",
        "    return False",
    )
    if mode is Mode.USER:
        out.emit(
            f"if not p & {PTE_USER}:",
            "    return False",
        )
    if ctx.has_mem and not ctx.probes:
        # Compiled probe-check-free: refuse to run once data-side probes
        # arm (the dispatcher then compiles a probe-replaying variant).
        out.emit(
            "if dtlb.probe is not None or l1d.probe is not None:",
            "    return False",
        )
    out.emit(
        f"base = e.ppn << {PAGE_SHIFT}",
        f"if base + {last_byte} >= {core.layout.memory_size}:",
        "    return False",
    )
    # All L1I line guards are hoisted here: the block body cannot evict or
    # rewrite L1I lines or the ITLB entry (data accesses use separate
    # arrays and never invalidate the fetch side), so one entry check
    # covers every iteration of every in-block loop.
    for index, (offset, first, last, _expected) in enumerate(groups):
        out.emit(
            f"tag = (base + {offset}) >> {l1i._offset_bits}",
            f"g{index} = None",
            f"for _L in l1i_sets[tag & {l1i._set_mask}]:",
            "    if _L.valid and _L.tag == tag:",
            f"        g{index} = _L",
            "        break",
            f"if g{index} is None or g{index}.data[{first}:{last}] != X{index}:",
            "    return False",
        )
    out.emit(
        "fp_regs = rf.fp_regs",
        "cmp = core.cmp",
        "ih = rf._int_history",
        "fh = rf._fp_history",
        "br = core.branches",
        "bm = core.branch_misses",
        "clk0 = l1i._clock",
        "a0 = l1i.accesses",
        "tclk0 = itlb._clock",
        "ta0 = itlb.accesses",
        "ic0 = core.icount",
        "fc = 0",
        "cur = g0",
    )
    # Architectural registers the region touches live in locals for the
    # whole block run (see _reg_effects for why nothing can observe the
    # list slots mid-block); every exit below writes the written ones
    # back.
    for k in ctx.int_used:
        out.emit(f"r{k} = int_regs[{k}]")
    for k in ctx.fp_used:
        out.emit(f"f{k} = fp_regs[{k}]")
    if ctx.use_n:
        out.emit("n = 0")
    if ctx.use_ladder:
        out.emit("_s = 0")
    if profile and region.has_backward:
        out.emit("si = 0")
    if ctx.has_mem:
        if ctx.probes:
            out.emit("dtp = dtlb.probe", "l1p = l1d.probe")
        out.emit(
            "dck = dtlb._clock",
            "dck0 = dck",
            "da0 = dtlb.accesses",
            "lck = l1d._clock",
            "lck0 = lck",
            "la0 = l1d.accesses",
        )
        if ctx.reads_inline:
            out.emit("dr = {}")
        if ctx.writes_inline:
            out.emit("dw = {}")
    if ctx.loads_fast:
        out.emit("ld = 0")
    if ctx.stores_fast:
        out.emit("st = 0")
    worst = ctx.worst
    out.emit("try:")
    out.indent = 3
    out.emit("while True:")
    out.indent = 4
    out.emit(f"if limit - cycle > {worst}:")
    out.indent = 5
    _emit_pass(out, ctx, fast=True)
    out.indent = 4
    _emit_pass(out, ctx, fast=False)
    out.indent = 2
    out.emit("except BaseException:")
    out.indent = 3
    # A faulting instruction keeps its fetch side effects (fc includes it)
    # but contributes nothing to icount/cycle; current_pc was stored before
    # the faulting call, and the interpreter leaves pc = current_pc + 4.
    # Data-side clocks are NOT restored from locals here: every raise site
    # flushes them first, and the fallback that raised may have bumped
    # them further, so the attributes are authoritative.  Register locals
    # ARE current: a faulting instruction raises before its writeback, so
    # its destination local still holds the pre-instruction value.
    for k in ctx.int_writes:
        out.emit(f"int_regs[{k}] = r{k}")
    for k in ctx.fp_writes:
        out.emit(f"fp_regs[{k}] = f{k}")
    out.emit(
        "core.cycle = cycle",
        "core.icount = ic0 + fc - 1",
        "core.cmp = cmp",
        "core.pc = core.current_pc + 4",
        "rf._int_history = ih",
        "rf._fp_history = fh",
        "core.branches = br",
        "core.branch_misses = bm",
        "l1i._clock = clk0 + fc",
        "l1i.accesses = a0 + fc",
        "cur.stamp = clk0 + fc",
        "itlb._clock = tclk0 + fc",
        "itlb.accesses = ta0 + fc",
        "e.stamp = tclk0 + fc",
    )
    if ctx.loads_fast:
        out.emit("core.loads += ld")
    if ctx.stores_fast:
        out.emit("core.stores += st")
    if profile and region.has_backward:
        out.emit("ST['superblock_iterations'] += si")
    out.emit("raise")
    out.indent = 2
    for k in ctx.int_writes:
        out.emit(f"int_regs[{k}] = r{k}")
    for k in ctx.fp_writes:
        out.emit(f"fp_regs[{k}] = f{k}")
    out.emit(
        "core.cycle = cycle",
        "core.icount = ic0 + total",
        "core.cmp = cmp",
        "core.pc = pcv",
        "core.current_pc = cpc",
        "rf._int_history = ih",
        "rf._fp_history = fh",
        "core.branches = br",
        "core.branch_misses = bm",
        "l1i._clock = clk0 + total",
        "l1i.accesses = a0 + total",
        "cur.stamp = clk0 + total",
        "itlb._clock = tclk0 + total",
        "itlb.accesses = ta0 + total",
        "e.stamp = tclk0 + total",
    )
    if ctx.has_mem:
        out.emit(*_flush_data_counters())
    if ctx.loads_fast:
        out.emit("core.loads += ld")
    if ctx.stores_fast:
        out.emit("core.stores += st")
    if profile and region.has_backward:
        out.emit("ST['superblock_iterations'] += si")
    out.emit("return True")
    out.indent = 1
    out.emit("return block")
    return "\n".join(out.lines) + "\n", consts


def _emit_pass(out, ctx: _Ctx, fast: bool) -> None:
    """Emit one full ladder pass (all sections behind ``_s`` guards).

    The fast variant runs check-free on its bounded paths: the caller has
    already proven ``limit - cycle`` exceeds the pass's check-free worst
    case, so straight-line runs pre-pay their cycle ticks in a single add
    and memory hits never test the limit; the only checks are the
    :func:`_limit_exit` re-checks right after interpreter fallbacks, whose
    cost the bound excludes.  The slow variant re-checks the limit before
    every instruction and sends every memory op through the interpreter.  Every control path through a pass ends in ``break``
    (exit), ``continue`` (in-region jump) or ``raise`` - control never
    falls out of the bottom.
    """
    region = ctx.region
    instrs = ctx.instrs
    owner = ctx.owner
    last_section = len(region.sections) - 1
    for index, (a, b) in enumerate(region.sections):
        if ctx.use_ladder:
            out.emit(f"if _s <= {index}:")
            out.indent += 1
        prepay: dict[int, int] = {}
        if fast:
            pos = a
            while pos < b:
                cost = _static_cost(ctx.core, instrs[pos][2])
                if cost is None:
                    pos += 1
                    continue
                head, total = pos, 0
                while pos < b:
                    cost = _static_cost(ctx.core, instrs[pos][2])
                    if cost is None:
                        break
                    total += ctx.hit + cost
                    prepay[pos] = 0
                    pos += 1
                prepay[head] = total
        for pos in range(a, b):
            addr = instrs[pos][0]
            op = instrs[pos][2]
            if not fast and pos > 0:
                out.emit(
                    "if cycle >= limit:",
                    f"    total = {ctx.before(pos)}",
                    f"    pcv = {addr}",
                    f"    cpc = {addr - 4}",
                    "    break",
                )
            if pos > 0 and owner[pos] != owner[pos - 1]:
                # New L1I line: stamp the old line's last fetch and switch.
                # At jump targets the arriving jump may already have
                # switched, so the transition is conditional there.
                if pos in region.targets:
                    out.emit(
                        f"if cur is not g{owner[pos]}:",
                        f"    cur.stamp = clk0 + {ctx.before(pos)}",
                        f"    cur = g{owner[pos]}",
                    )
                else:
                    out.emit(
                        f"cur.stamp = clk0 + {ctx.before(pos)}",
                        f"cur = g{owner[pos]}",
                    )
            if fast and prepay.get(pos):
                out.emit(f"cycle += {prepay[pos]}")
            if op is Op.B or op in _COND_BRANCH_EXPR:
                _emit_branch(out, ctx, pos, fast)
            else:
                _emit_instr(out, ctx, pos, tick=not (fast and pos in prepay), fast=fast)
        last_op = instrs[b - 1][2]
        if not (last_op is Op.B or last_op in _EXIT_OPS):
            if index == last_section:
                last_addr = instrs[b - 1][0]
                total = f"n + {b - a}" if ctx.use_n else str(b)
                out.emit(
                    f"total = {total}",
                    f"pcv = {last_addr + 4}",
                    f"cpc = {last_addr}",
                    "break",
                )
            elif ctx.use_n:
                out.emit(f"n += {b - a}")
        if ctx.use_ladder:
            out.indent -= 1


def _emit_jump(out, ctx: _Ctx, pos: int, target: int, tidx: int, fast: bool, pad: str) -> None:
    """Emit an in-region jump: account, bail (slow pass), stamp, redirect."""
    addr = ctx.instrs[pos][0]
    lines = [f"n += {pos - ctx.sec_start(pos) + 1}"]
    if not fast:
        # The limit bail comes *before* the line switch: on a limit exit
        # the target has not been fetched, so ``cur`` must remain the
        # branch's own line for the exit flush to stamp.
        lines += [
            "if cycle >= limit:",
            "    total = n",
            f"    pcv = {target}",
            f"    cpc = {addr}",
            "    break",
        ]
    if ctx.owner[tidx] != ctx.owner[pos]:
        lines += ["cur.stamp = clk0 + n", f"cur = g{ctx.owner[tidx]}"]
    if ctx.profile and tidx <= pos:
        lines.append("si += 1")
    if ctx.use_ladder:
        lines.append(f"_s = {ctx.region.sec_of[tidx]}")
    lines.append("continue")
    out.emit(*(pad + line for line in lines))


def _emit_branch(out, ctx: _Ctx, pos: int, fast: bool) -> None:
    addr, _word, op, _rd, _rs1, _rs2, imm = ctx.instrs[pos]
    target, tidx = ctx.region.jump[pos]
    hit = ctx.hit
    e = out.emit
    if op is Op.B:
        e(f"cycle += {hit}")
        if tidx is None:
            e(
                f"pcv = {target}",
                f"total = {ctx.after(pos)}",
                f"cpc = {addr}",
                "break",
            )
        else:
            _emit_jump(out, ctx, pos, target, tidx, fast, pad="")
        return
    predicted = imm < 0
    mispredict = ctx.core.mispredict_penalty
    taken_cost = hit + (0 if predicted else mispredict)
    nt_cost = hit + (mispredict if predicted else 0)
    e("br += 1", f"if {_COND_BRANCH_EXPR[op]}:")
    taken = [] if predicted else ["bm += 1"]
    taken.append(f"cycle += {taken_cost}")
    e(*("    " + line for line in taken))
    if tidx is None:
        e(
            f"    pcv = {target}",
            f"    total = {ctx.after(pos)}",
            f"    cpc = {addr}",
            "    break",
        )
    else:
        _emit_jump(out, ctx, pos, target, tidx, fast, pad="    ")
    # Not-taken: the arm above always leaves the linear flow, so plain
    # fall-through code is the else branch.
    if predicted:
        e("bm += 1")
    e(f"cycle += {nt_cost}")


def _write_int(ctx: "_Ctx", rd: int, expr: str, mask: bool) -> list[str]:
    """Write an integer register: local assignment plus the rename ring.

    The chained assignment stores the value into the history slot and the
    register local in one statement; history slots (>= 16) are plain list
    writes because they are never instruction operands.
    """
    n_int = ctx.n_int
    value = f"({expr}) & 4294967295" if mask else expr
    if n_int <= 16:
        return [f"r{rd} = {value}"]
    return [
        f"int_regs[ih] = r{rd} = {value}",
        f"ih = ih + 1 if ih < {n_int - 1} else 16",
    ]


def _write_fp(ctx: "_Ctx", rd: int, expr: str) -> list[str]:
    n_fp = ctx.n_fp
    if n_fp <= 16:
        return [f"f{rd} = {expr}"]
    return [
        f"fp_regs[fh] = f{rd} = {expr}",
        f"fh = fh + 1 if fh < {n_fp - 1} else 16",
    ]


def _signed_local(name: str, expr: str) -> list[str]:
    # expr is always a bare local (r<k>), so evaluating it twice is free
    # and the whole sign-extension collapses to one statement.
    return [f"{name} = {expr} - 4294967296 if {expr} & 2147483648 else {expr}"]


#: Indent of the innermost (line-found) level of the data-hit scan.
_DP = " " * 20


def _data_hit_open(ctx: _Ctx, need: int, align_mask: int) -> list[str]:
    """Open the inline DTLB+L1D hit scan; mirrors ``_data_hit_paddr``.

    Purely read-only until the L1D line is found, so a fallthrough
    (``mv``/``ok`` unset) leaves no trace and the interpreter fallback
    replays the canonical sequence, faults included.
    """
    l1d = ctx.core.l1d
    check = f"ma < {MMIO_BASE}"
    if align_mask:
        check += f" and not ma & {align_mask}"
    perms = need | PTE_VALID
    if ctx.mode is Mode.USER:
        perms |= PTE_USER
    return [
        f"if {check}:",
        f"    mvp = ma >> {PAGE_SHIFT}",
        "    en = dtlb_map.get(mvp)",
        "    if (en is not None and en.valid and en.vpn == mvp"
        f" and en.perms & {perms} == {perms}):",
        f"        pa = (en.ppn << {PAGE_SHIFT}) | (ma & 4095)",
        f"        if pa < {ctx.core.layout.memory_size}:",
        f"            t2 = pa >> {l1d._offset_bits}",
        f"            for _D in l1d_sets[t2 & {l1d._set_mask}]:",
        "                if _D.valid and _D.tag == t2:",
    ]


def _tlb_commit(ctx: _Ctx) -> list[str]:
    """DTLB hit side effects, replayed at the interpreter's call site.

    Identical for ``_data_hit_paddr`` and ``TLB.lookup`` hits: one clock
    tick (the access count is derived from it, see
    :func:`_flush_data_counters`), an LRU stamp, then the lookup probe
    with ``core.cycle`` flushed so lifetime events carry the exact stamp.
    Probe replay is compiled in only for probe-ful variants.
    """
    lines = [_DP + "en.stamp = dck = dck + 1"]
    if ctx.probes:
        lines += [
            _DP + "if dtp is not None:",
            _DP + "    core.cycle = cycle",
            _DP + "    dtp.on_lookup(dtlb, en)",
        ]
    return lines


def _populate(ctx: _Ctx, book: str) -> list[str]:
    """Memoize a successful full resolve into dict ``book`` (dr/dw).

    A hit here proved the virtual line is mapped by ``en`` with the
    needed permissions, below the MMIO window, within memory bounds and
    resident in ``_D``.  None of that can change until an interpreter
    fallback runs (in-block stores touch only data/dirty/stamps), and
    every fallback resets the dicts, so the memoized re-check is just
    the virtual line number plus alignment.
    """
    l1d = ctx.core.l1d
    value = "(en, _D)"
    if ctx.probes:
        # Probe replay needs the physical address; keep the line base.
        value = f"(en, _D, pa & {-(l1d._offset_mask + 1)})"
    return [_DP + f"{book}[ma >> {l1d._offset_bits}] = {value}"]


def _l1d_read_commit(ctx: _Ctx, size: int, read_lines: list[str]) -> list[str]:
    lines = _populate(ctx, "dr") + _tlb_commit(ctx)
    lines += [_DP + "_D.stamp = lck = lck + 1"]
    if ctx.probes:
        lines += [
            _DP + "if l1p is not None:",
            _DP + "    core.cycle = cycle",
            _DP + f"    l1p.on_read(l1d, _D, pa, {size})",
        ]
    lines += [_DP + line for line in read_lines]
    lines.append(_DP + "break")
    return lines


def _l1d_write_commit(ctx: _Ctx, size: int, write_lines: list[str]) -> list[str]:
    lines = _populate(ctx, "dw") + _tlb_commit(ctx)
    lines += [_DP + "_D.stamp = lck = lck + 1", _DP + "_D.dirty = True"]
    if ctx.probes:
        lines += [
            _DP + "if l1p is not None:",
            _DP + "    core.cycle = cycle",
            _DP + f"    l1p.on_write(l1d, _D, pa, {size})",
        ]
    lines += [_DP + line for line in write_lines]
    lines += [_DP + "ok = True", _DP + "break"]
    return lines


def _cached_commit(ctx: _Ctx, size: int, write: bool) -> list[str]:
    """Hit side effects against a memoized ``(en, _D)`` mapping.

    Mirrors the interpreter's DTLB-hit + L1D-hit sequence exactly -
    clocks, LRU stamps, dirty-before-notify, probe order - while the
    resolve scan itself is skipped (see :func:`_populate` for why that
    is sound).
    """
    om = ctx.core.l1d._offset_mask
    if ctx.probes:
        lines = ["en, _D, pb = h", f"pa = pb | (ma & {om})"]
    else:
        lines = ["en, _D = h"]
    lines += ["en.stamp = dck = dck + 1"]
    if ctx.probes:
        lines += [
            "if dtp is not None:",
            "    core.cycle = cycle",
            "    dtp.on_lookup(dtlb, en)",
        ]
    lines += ["_D.stamp = lck = lck + 1"]
    if write:
        lines.append("_D.dirty = True")
    if ctx.probes:
        fn = "on_write" if write else "on_read"
        lines += [
            "if l1p is not None:",
            "    core.cycle = cycle",
            f"    l1p.{fn}(l1d, _D, pa, {size})",
        ]
    return lines


def _fallback_call(ctx: _Ctx, pos: int, call: str, pad: str = "    ") -> list[str]:
    """An interpreter fallback: flush risky-exit state, call, reload.

    ``core.current_pc``/``fc`` cover a raise inside the call (the except
    flush reads them); ``core.cycle`` and the data-side counters are
    flushed because the fallback itself may fire probes and bump the
    clocks the block keeps in locals.  The memoized mapping slots are
    all reset afterwards: the fallback may have walked, refilled or
    evicted any TLB entry or cache line they alias.
    """
    addr = ctx.instrs[pos][0]
    lines = [f"core.current_pc = {addr}", f"fc = {ctx.after(pos)}", "core.cycle = cycle"]
    lines += _flush_data_counters()
    lines.append(call)
    lines += _reload_data_counters()
    if ctx.reads_inline:
        lines.append("dr = {}")
    if ctx.writes_inline:
        lines.append("dw = {}")
    return [pad + line for line in lines]


def _limit_exit(ctx: _Ctx, pos: int, pad: str = "") -> list[str]:
    """Fast-pass budget re-check, emitted right after a fallback's cost add.

    Fallback costs (miss chains, walks) are the only unbounded cycle adds
    in the check-free fast body, which lets :func:`_worst_pass_cost` bound
    memory ops at hit cost - but they also invalidate the budget the pass
    was entered under.  The re-check therefore re-establishes the full
    entry invariant ``limit - cycle > worst``: anything less and a later
    check-free instruction could *start* past the limit, which would slip
    an event/timer boundary the interpreter honors exactly.  Exiting the
    block at this boundary instead is always legal - the run loop fires
    whatever is due and re-dispatches (or interprets) from ``pcv``.  The
    instruction that just ran completing past the limit is fine: the run
    loop only requires that an instruction start below it.
    """
    addr = ctx.instrs[pos][0]
    lines = [
        f"if limit - cycle <= {ctx.worst}:",
        f"    total = {ctx.after(pos)}",
        f"    pcv = {addr + 4}",
        f"    cpc = {addr}",
        "    break",
    ]
    return [pad + line for line in lines]


def _emit_instr(out, ctx: _Ctx, pos: int, tick: bool, fast: bool) -> None:
    core = ctx.core
    addr, _word, op, rd, rs1, rs2, imm = ctx.instrs[pos]
    hit = ctx.hit

    def t(extra) -> tuple:
        return (f"cycle += {hit + extra}",) if tick else ()

    if imm == 0:
        ma_expr = f"r{rs1}"
    else:
        ma_expr = f"(r{rs1} + {imm}) & 4294967295"
    e = out.emit

    # -- integer ALU ---------------------------------------------------------
    if op is Op.NOP:
        e(*t(0))
    elif op is Op.ADD:
        e(*_write_int(ctx, rd, f"r{rs1} + r{rs2}", True), *t(0))
    elif op is Op.SUB:
        e(*_write_int(ctx, rd, f"r{rs1} - r{rs2}", True), *t(0))
    elif op is Op.MUL:
        e(
            *_write_int(ctx, rd, f"r{rs1} * r{rs2}", True),
            *t(core.mul_latency),
        )
    elif op in (Op.DIV, Op.MOD):
        message = (
            "integer division by zero" if op is Op.DIV else "integer modulo by zero"
        )
        flush = (
            ["    " + line for line in _flush_data_counters()]
            if ctx.has_mem
            else []
        )
        e(
            *_signed_local("b", f"r{rs2}"),
            "if b == 0:",
            f"    core.current_pc = {addr}",
            f"    fc = {ctx.after(pos)}",
            *flush,
            f"    raise ArithmeticFault({message!r}, pc={addr})",
        )
        e(*_signed_local("a", f"r{rs1}"))
        if op is Op.DIV:
            e(*_write_int(ctx, rd, "int(a / b)", True))
        else:
            e(*_write_int(ctx, rd, "a - int(a / b) * b", True))
        e(*t(core.div_latency))
    elif op is Op.AND:
        e(*_write_int(ctx, rd, f"r{rs1} & r{rs2}", False), *t(0))
    elif op is Op.ORR:
        e(*_write_int(ctx, rd, f"r{rs1} | r{rs2}", False), *t(0))
    elif op is Op.EOR:
        e(*_write_int(ctx, rd, f"r{rs1} ^ r{rs2}", False), *t(0))
    elif op is Op.LSL:
        e(
            *_write_int(ctx, rd, f"r{rs1} << (r{rs2} & 31)", True),
            *t(0),
        )
    elif op is Op.LSR:
        e(
            *_write_int(ctx, rd, f"r{rs1} >> (r{rs2} & 31)", False),
            *t(0),
        )
    elif op is Op.ASR:
        e(
            *_signed_local("a", f"r{rs1}"),
            *_write_int(ctx, rd, f"a >> (r{rs2} & 31)", True),
            *t(0),
        )
    elif op is Op.MOV:
        e(*_write_int(ctx, rd, f"r{rs1}", False), *t(0))
    elif op is Op.CMP:
        e(
            *_signed_local("a", f"r{rs1}"),
            *_signed_local("b", f"r{rs2}"),
            "cmp = (a > b) - (a < b)",
            *t(0),
        )
    elif op is Op.ADDI:
        e(*_write_int(ctx, rd, f"r{rs1} + {imm}", True), *t(0))
    elif op is Op.SUBI:
        e(*_write_int(ctx, rd, f"r{rs1} - {imm}", True), *t(0))
    elif op is Op.MULI:
        e(
            *_write_int(ctx, rd, f"r{rs1} * {imm}", True),
            *t(core.mul_latency),
        )
    elif op is Op.ANDI:
        e(*_write_int(ctx, rd, f"r{rs1} & {imm}", False), *t(0))
    elif op is Op.ORRI:
        e(*_write_int(ctx, rd, f"r{rs1} | {imm}", False), *t(0))
    elif op is Op.EORI:
        e(*_write_int(ctx, rd, f"r{rs1} ^ {imm}", False), *t(0))
    elif op is Op.LSLI:
        e(*_write_int(ctx, rd, f"r{rs1} << {imm & 31}", True), *t(0))
    elif op is Op.LSRI:
        e(*_write_int(ctx, rd, f"r{rs1} >> {imm & 31}", False), *t(0))
    elif op is Op.ASRI:
        e(
            *_signed_local("a", f"r{rs1}"),
            *_write_int(ctx, rd, f"a >> {imm & 31}", True),
            *t(0),
        )
    elif op is Op.MOVI:
        e(*_write_int(ctx, rd, str(imm & _MASK32), False), *t(0))
    elif op is Op.MOVHI:
        e(*_write_int(ctx, rd, str((imm & 0xFFFF) << 16), False), *t(0))
    elif op is Op.CMPI:
        e(
            *_signed_local("a", f"r{rs1}"),
            f"cmp = (a > {imm}) - (a < {imm})",
            *t(0),
        )
    # -- memory ---------------------------------------------------------------
    elif op in (Op.LDW, Op.LDB, Op.FLD):
        om = core.l1d._offset_mask
        hitcost = hit + core.l1d.hit_latency
        if op is Op.LDW:
            size, align = 4, 3
            read = [f"o = pa & {om}", 'mv = ifb(_D.data[o:o + 4], "little")']
            cached = [f"o = ma & {om}"]
            cexpr = 'ifb(_D.data[o:o + 4], "little")'
            call = f"mv, cost = load_int(ma, {size})"
            slow_call = f"mv, cost = load_int({ma_expr}, {size})"
        elif op is Op.LDB:
            size, align = 1, 0
            read = [f"mv = _D.data[pa & {om}]"]
            cached = []
            cexpr = f"_D.data[ma & {om}]"
            call = f"mv, cost = load_int(ma, {size})"
            slow_call = f"mv, cost = load_int({ma_expr}, {size})"
        else:
            size, align = 8, 7
            read = [f"mv = unpk(_D.data, pa & {om})[0]"]
            cached = []
            cexpr = f"unpk(_D.data, ma & {om})[0]"
            call = "mv, cost = load_double(ma)"
            slow_call = f"mv, cost = load_double({ma_expr})"

        def wb(value: str) -> list[str]:
            if op is Op.FLD:
                return _write_fp(ctx, rd, value)
            return _write_int(ctx, rd, value, False)

        if (op is Op.FLD and not ctx.fp_mem_fast) or not fast:
            # Slow pass (the final sliver of a window) or an op with no
            # inline path: straight to the interpreter - the inline scan
            # would be pure source weight here.
            e(
                *_fallback_call(ctx, pos, slow_call, pad=""),
                *wb("mv"),
                f"cycle += {hit} + cost",
            )
            if fast:
                e(*_limit_exit(ctx, pos))
            return
        cond = "h is not None"
        if align:
            cond += f" and not ma & {align}"
        e(
            f"ma = {ma_expr}",
            f"h = dr.get(ma >> {core.l1d._offset_bits})",
            f"if {cond}:",
        )
        out.indent += 1
        e(*_cached_commit(ctx, size, write=False), *cached, *wb(cexpr))
        e("ld += 1", f"cycle += {hitcost}")
        out.indent -= 1
        e("else:")
        out.indent += 1
        e("mv = None", *_data_hit_open(ctx, PTE_READ, align))
        e(*_l1d_read_commit(ctx, size, read))
        e("if mv is None:")
        e(*_fallback_call(ctx, pos, call))
        e(f"    cycle += {hit} + cost")
        e(*("    " + line for line in wb("mv")))
        e(*_limit_exit(ctx, pos, pad="    "))
        e("else:", "    ld += 1", f"    cycle += {hitcost}")
        e(*("    " + line for line in wb("mv")))
        out.indent -= 1
    elif op in (Op.STW, Op.STB, Op.FST):
        om = core.l1d._offset_mask
        hitcost = hit + core.l1d.hit_latency
        if op is Op.FST:
            size, align = 8, 7
            call = f"cost = store_double(ma, f{rd})"
            slow_call = f"cost = store_double({ma_expr}, f{rd})"
            write = [
                f"o = pa & {om}",
                f"_D.data[o:o + 8] = pck(f{rd})",
            ]
            cwrite = [f"o = ma & {om}", f"_D.data[o:o + 8] = pck(f{rd})"]
            inline = ctx.stores_fast and ctx.fp_mem_fast
        elif op is Op.STW:
            size, align = 4, 3
            call = f"cost = store_int(ma, r{rd}, 4)"
            slow_call = f"cost = store_int({ma_expr}, r{rd}, 4)"
            write = [
                f"o = pa & {om}",
                f'_D.data[o:o + 4] = r{rd}.to_bytes(4, "little")',
            ]
            cwrite = [
                f"o = ma & {om}",
                f'_D.data[o:o + 4] = r{rd}.to_bytes(4, "little")',
            ]
            inline = ctx.stores_fast
        else:
            size, align = 1, 0
            call = f"cost = store_int(ma, r{rd} & 255, 1)"
            slow_call = f"cost = store_int({ma_expr}, r{rd} & 255, 1)"
            write = [f"_D.data[pa & {om}] = r{rd} & 255"]
            cwrite = [f"_D.data[ma & {om}] = r{rd} & 255"]
            inline = ctx.stores_fast
        if not inline or not fast:
            e(
                *_fallback_call(ctx, pos, slow_call, pad=""),
                f"cycle += {hit} + cost",
            )
            if fast:
                e(*_limit_exit(ctx, pos))
            return
        cond = "h is not None"
        if align:
            cond += f" and not ma & {align}"
        e(
            f"ma = {ma_expr}",
            f"h = dw.get(ma >> {core.l1d._offset_bits})",
            f"if {cond}:",
        )
        out.indent += 1
        e(*_cached_commit(ctx, size, write=True), *cwrite)
        e("st += 1", f"cycle += {hitcost}")
        out.indent -= 1
        e("else:")
        out.indent += 1
        e("ok = False", *_data_hit_open(ctx, PTE_WRITE, align))
        e(*_l1d_write_commit(ctx, size, write))
        e("if ok:", "    st += 1", f"    cycle += {hitcost}")
        e("else:")
        e(*_fallback_call(ctx, pos, call))
        e(f"    cycle += {hit} + cost")
        e(*_limit_exit(ctx, pos, pad="    "))
        out.indent -= 1
    # -- floating point -------------------------------------------------------
    elif op is Op.FADD:
        e(
            *_write_fp(ctx, rd, f"f{rs1} + f{rs2}"),
            *t(core.fpu_latency),
        )
    elif op is Op.FSUB:
        e(
            *_write_fp(ctx, rd, f"f{rs1} - f{rs2}"),
            *t(core.fpu_latency),
        )
    elif op is Op.FMUL:
        e(
            *_write_fp(ctx, rd, f"f{rs1} * f{rs2}"),
            *t(core.fpu_latency),
        )
    elif op is Op.FDIV:
        e(
            f"fb = f{rs2}",
            "if fb == 0.0:",
            f"    fa = f{rs1}",
            "    fr = float('inf') if fa > 0 else float('-inf')",
            "    if fa == 0.0:",
            "        fr = NAN",
            "else:",
            f"    fr = f{rs1} / fb",
            *_write_fp(ctx, rd, "fr"),
            *t(core.fdiv_latency),
        )
    elif op is Op.FSQRT:
        e(
            f"fa = f{rs1}",
            "fr = fa ** 0.5 if fa >= 0 else NAN",
            *_write_fp(ctx, rd, "fr"),
            *t(core.fsqrt_latency),
        )
    elif op is Op.FMOV:
        e(*_write_fp(ctx, rd, f"f{rs1}"), *t(0))
    elif op is Op.FNEG:
        e(*_write_fp(ctx, rd, f"-f{rs1}"), *t(0))
    elif op is Op.FCMP:
        e(
            f"fa = f{rs1}",
            f"fb = f{rs2}",
            "if fa != fa or fb != fb:",
            "    cmp = 2",
            "else:",
            "    cmp = (fa > fb) - (fa < fb)",
            *t(core.fpu_latency),
        )
    elif op is Op.FCVT:
        e(
            *_signed_local("a", f"r{rs1}"),
            *_write_fp(ctx, rd, "float(a)"),
            *t(core.fpu_latency),
        )
    elif op is Op.FCVTI:
        e(
            f"fa = f{rs1}",
            "if fa != fa:",
            "    r = 0",
            "elif fa >= 2147483647:",
            "    r = 2147483647",
            "elif fa <= -2147483648:",
            "    r = -2147483648",
            "else:",
            "    r = int(fa)",
            *_write_int(ctx, rd, "r", True),
            *t(core.fpu_latency),
        )
    # -- region-terminal control flow -----------------------------------------
    elif op is Op.BL:
        target = (addr + 4 + imm * 4) & _MASK32
        e(
            *_write_int(ctx, 14, str(addr + 4), False),
            f"cycle += {hit}",
            f"pcv = {target}",
            f"total = {ctx.after(pos)}",
            f"cpc = {addr}",
            "break",
        )
    elif op is Op.BR:
        e(
            f"pcv = r{rs1}",
            f"cycle += {hit}",
            f"total = {ctx.after(pos)}",
            f"cpc = {addr}",
            "break",
        )
    elif op is Op.BLR:
        e(
            f"pcv = r{rs1}",
            *_write_int(ctx, 14, str(addr + 4), False),
            f"cycle += {hit}",
            f"total = {ctx.after(pos)}",
            f"cpc = {addr}",
            "break",
        )
    else:  # pragma: no cover - discovery refuses unknown ops
        raise AssertionError(f"untranslatable op reached codegen: {op}")
