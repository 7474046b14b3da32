"""Full-system assembly: core + hierarchy + kernel + devices + loader.

A :class:`System` is one bootable machine instance: it assembles and loads
the kernel, loads a user program (and, in beam mode, the online check
routine and golden output), programs the page table and firmware CSRs, and
runs to a terminal outcome.

Beam mode additionally establishes irradiation-campaign *steady state*: the
caches are prefilled with the background-OS working set (Linux content our
mini-kernel does not model but that occupies otherwise-unused lines on the
real board), which is the paper's explanation for the high beam System
Crash rates of small-footprint benchmarks.
"""

from __future__ import annotations

import random
import struct
import weakref
from dataclasses import dataclass, field

from repro.errors import (
    ApplicationAbort,
    ConfigurationError,
    ProgramExit,
    SegmentationFault,
    SimulationTermination,
)
from repro.isa.assembler import Program
from repro.isa.encoding import try_decode
from repro.kernel.layout import (
    CSR_EPC,
    CSR_KSP,
    CSR_USP,
    DEV_ABORT,
    DEV_ALIVE,
    DEV_CHECK_DONE,
    DEV_CONSOLE_BYTE,
    DEV_CONSOLE_WORD,
    DEV_SDC_FLAG,
)
from repro.kernel.source import build_kernel
from repro.microarch.cache import Cache
from repro.microarch.config import MachineConfig, SCALED_A9_CONFIG
from repro.microarch.core import (
    EXCEPTION_ENTRY_READS,
    Core,
    Mode,
    register_effects,
)
from repro.microarch.memory import MainMemory
from repro.microarch.regfile import PhysRegFile
from repro.microarch.state import Buffer, Flags, Scalars, State
from repro.microarch.statistics import PerfCounters
from repro.microarch.tlb import TLB

#: Offset of the golden output bytes inside the golden buffer region (the
#: first page holds the check routine's pointer table).
GOLDEN_DATA_OFFSET = 0x1000

# The packed firmware page table is a pure function of the layout; campaigns
# assemble thousands of machines against a handful of layouts, so the packed
# bytes are memoized rather than re-built and re-packed per System.
_PAGE_TABLE_CACHE: dict = {}


def _packed_page_table(layout) -> bytes:
    packed = _PAGE_TABLE_CACHE.get(layout)
    if packed is None:
        table = layout.build_page_table()
        packed = struct.pack(f"<{len(table)}I", *table)
        _PAGE_TABLE_CACHE[layout] = packed
    return packed


def _register_reads(programs) -> tuple[frozenset, frozenset]:
    """The architectural (int, fp) registers some instruction can read.

    Scans every word of every text segment - words that only happen to
    decode included, which over-approximates and so stays sound - plus
    the exception entry's implicit ``r13`` read.  A fault-free run only
    executes text words, and it stays fault-free for as long as nothing
    reads the flipped register, so a flip into a register outside these
    sets can never be observed.
    """
    int_reads = set(EXCEPTION_ENTRY_READS)
    fp_reads: set[int] = set()
    for program in programs:
        for segment in program.segments:
            if segment.name != "text":
                continue
            data = segment.data
            for (word,) in struct.iter_unpack("<I", data[: len(data) & ~3]):
                inst = try_decode(word)
                if inst is not None:
                    reads, _, fp, _ = register_effects(
                        inst.op, inst.rd, inst.rs1, inst.rs2
                    )
                    int_reads |= reads
                    fp_reads |= fp
    return frozenset(int_reads), frozenset(fp_reads)


#: :class:`PerfCounters` names of declared counters named differently.
_PERF_NAMES = {"icount": "instructions"}


@dataclass
class RunResult:
    """Everything observable from one simulation run."""

    outcome: SimulationTermination
    output: bytes
    counters: PerfCounters
    cycles: int
    alive_count: int
    sdc_flag: bool
    check_done: bool

    @property
    def exited_cleanly(self) -> bool:
        return isinstance(self.outcome, ProgramExit) and self.outcome.status == 0


def _device_hooks(system: "System"):
    """The ``(device_write, device_read)`` hooks of ``system``'s core.

    They reach the machine through a weak reference: bound methods would
    make the core and its System reference each other, and a dropped
    System would then wait for a full garbage collection instead of being
    freed by refcount.
    """
    machine = weakref.ref(system)

    def device_write(addr: int, value: int) -> None:
        machine()._device_write(addr, value)

    def device_read(addr: int) -> int:
        return machine()._device_read(addr)

    return device_write, device_read


@dataclass
class _DeviceState:
    #: Mutable state (:mod:`repro.microarch.state`).
    STATE = State(
        Buffer("output"), Scalars("alive_count"), Flags("sdc_flag check_done")
    )

    output: bytearray = field(default_factory=bytearray)
    alive_count: int = 0
    sdc_flag: bool = False
    check_done: bool = False


class System:
    """One bootable simulated machine.

    Parameters
    ----------
    user_program:
        The assembled workload.
    config:
        Machine configuration (defaults to the scaled Cortex-A9).
    check_program:
        Optional online SDC check routine (beam protocol).
    golden_output:
        Expected output bytes; loaded into the golden buffer region when
        ``check_program`` is given.
    beam_mode:
        Enables the beam protocol in the kernel (first ``exit`` runs the
        check routine) and establishes cache steady state.
    seed:
        Seed for the background-OS content generator.
    """

    #: The stateful parts, each declaring its state as ``STATE``
    #: (:mod:`repro.microarch.state`), in snapshot and digest order.
    #: Memory leads: the copy-on-write restorer handles it on its own.
    CACHES = ("l1i", "l1d", "l2")
    TLBS = ("itlb", "dtlb")
    PARTS = ("memory", *CACHES, *TLBS, "rf", "core", "_devices")
    #: The architectural parts: what the architectural digest covers (the
    #: register file with its architectural slice only) and what a soft
    #: reset returns to its ``_boot`` capture.
    ARCH_PARTS = ("rf", "core", "_devices")
    #: The System's other attributes, fixed at construction.
    CONSTANTS = (
        "config", "layout", "user_program", "beam_mode", "kernel",
        "_boot", "_pristine_kernel_text",
    )

    def __init__(
        self,
        user_program: Program,
        config: MachineConfig = SCALED_A9_CONFIG,
        check_program: Program | None = None,
        golden_output: bytes | None = None,
        beam_mode: bool = False,
        seed: int = 0,
    ):
        self.config = config
        self.layout = config.layout
        self.user_program = user_program
        self.beam_mode = beam_mode

        layout = self.layout
        self.memory = MainMemory(layout.memory_size, latency=config.mem_latency)
        self.l2 = Cache("L2", config.l2, self.memory)
        self.l1i = Cache("L1I", config.l1i, self.l2)
        self.l1d = Cache("L1D", config.l1d, self.l2)
        self.itlb = TLB("ITLB", config.itlb)
        self.dtlb = TLB("DTLB", config.dtlb)
        self.kernel = build_kernel(layout)
        programs = [self.kernel, user_program]
        if check_program is not None:
            programs.append(check_program)
        self.rf = PhysRegFile(
            config.int_phys_regs, config.fp_phys_regs, *_register_reads(programs)
        )
        self._devices = _DeviceState()

        device_write, device_read = _device_hooks(self)
        self.core = Core(
            config,
            self.memory,
            self.l1i,
            self.l1d,
            self.l2,
            self.itlb,
            self.dtlb,
            self.rf,
            device_write=device_write,
            device_read=device_read,
        )

        for program in programs:
            self._load_program(program)
        if golden_output is not None:
            self.memory.poke(
                layout.golden_buffer_base + GOLDEN_DATA_OFFSET, golden_output
            )

        self._write_page_table()
        self._firmware_setup(check_program)
        # The architectural parts as the firmware leaves them: what a soft
        # reset returns to.
        self._boot = {}
        for name in self.ARCH_PARTS:
            part = getattr(self, name)
            self._boot[name] = part.STATE.capture(part)
        self._pristine_kernel_text = self._kernel_text_bytes_from_memory()
        if beam_mode:
            self._establish_steady_state(seed)

    # -- construction helpers -------------------------------------------------

    def _load_program(self, program: Program) -> None:
        for segment in program.segments:
            if segment.end > self.layout.memory_size:
                raise ConfigurationError(
                    f"segment {segment.name!r} of {len(segment.data)} bytes at "
                    f"{segment.base:#x} does not fit in memory"
                )
            self.memory.poke(segment.base, segment.data)

    def _write_page_table(self) -> None:
        self.memory.poke(self.layout.page_table_base, _packed_page_table(self.layout))

    def _firmware_setup(self, check_program: Program | None) -> None:
        layout = self.layout
        core = self.core
        core.pc = self.kernel.entry
        core.mode = Mode.KERNEL
        core.csr[CSR_KSP] = layout.kernel_stack_top
        core.csr[CSR_EPC] = self.user_program.entry
        core.csr[CSR_USP] = layout.user_stack_top

        self._poke_kernel_word("k_outptr", layout.output_buffer_base)
        self._poke_kernel_word("k_beam_mode", 1 if self.beam_mode else 0)
        if check_program is not None:
            self._poke_kernel_word("k_check_entry", check_program.entry)
            # The check routine gets a fresh stack below the user stack top.
            self._poke_kernel_word("k_check_sp", layout.user_stack_top - 0x800)

    def _poke_kernel_word(self, symbol: str, value: int) -> None:
        address = self.kernel.symbols[symbol]
        self.memory.poke(address, struct.pack("<I", value & 0xFFFFFFFF))

    def _kernel_text_bytes_from_memory(self) -> bytes:
        segment = self.kernel.segment("text")
        return bytes(segment.data)

    def _establish_steady_state(self, seed: int) -> None:
        """Prefill caches with the background-OS working set (beam mode)."""
        layout = self.layout
        base = layout.os_background_base
        size = self.config.l2.size
        if base + size > layout.memory_size:
            raise ConfigurationError(
                "background OS region does not fit below memory end"
            )
        rng = random.Random(seed ^ 0x05B1C0DE)
        content = bytes(rng.getrandbits(8) for _ in range(size))
        self.memory.poke(base, content)

        line = self.config.l2.line_size
        for paddr in range(base, base + size, line):
            self.l2.prefill(paddr)
        for paddr in range(base, base + self.config.l1d.size, line):
            self.l1d.prefill(paddr)
        for paddr in range(base, base + self.config.l1i.size, line):
            self.l1i.prefill(paddr)

    def soft_reset(self) -> None:
        """Re-boot the machine for a back-to-back campaign execution.

        The architectural parts (registers, core fields and CSRs, device
        block) return to their state at boot and the event counters to
        zero, but the *memory hierarchy keeps its contents* - caches, TLBs
        and memory carry whatever the previous execution left behind.
        This is the steady state of a beam campaign: runs execute
        back-to-back, so workloads that fill the caches inherit their own
        footprint while small workloads keep the OS working set resident.

        The firmware-owned kernel variables are rewritten *through the
        data cache* so no stale dirty line survives the reboot.
        """
        for name in self.PARTS:
            part = getattr(self, name)
            if name in self._boot:
                part.STATE.restore(part, self._boot[name])
            else:
                part.STATE.reset_counters(part)
        layout = self.layout
        self._poke_kernel_word_through("k_outptr", layout.output_buffer_base)
        self._poke_kernel_word_through("k_exit_status", 0)
        self._poke_kernel_word_through("k_checked", 0)

    def _poke_kernel_word_through(self, symbol: str, value: int) -> None:
        """Firmware write that stays coherent with cached copies."""
        address = self.kernel.symbols[symbol]
        self.l1d.write(address, struct.pack("<I", value & 0xFFFFFFFF))

    # -- devices ----------------------------------------------------------------

    def _device_write(self, addr: int, value: int) -> None:
        devices = self._devices
        if addr == DEV_CONSOLE_BYTE:
            devices.output.append(value & 0xFF)
        elif addr == DEV_CONSOLE_WORD:
            devices.output.extend(struct.pack("<I", value & 0xFFFFFFFF))
        elif addr == DEV_ABORT:
            raise ApplicationAbort(cause=value, pc=self.core.csr[CSR_EPC])
        elif addr == DEV_ALIVE:
            devices.alive_count += 1
        elif addr == DEV_SDC_FLAG:
            devices.sdc_flag = bool(value)
        elif addr == DEV_CHECK_DONE:
            devices.check_done = True
        else:
            raise SegmentationFault(
                f"write to undefined device register {addr:#010x}",
                pc=self.core.current_pc,
            )

    def _device_read(self, addr: int) -> int:
        raise SegmentationFault(
            f"read from undefined device register {addr:#010x}",
            pc=self.core.current_pc,
        )

    # -- execution ----------------------------------------------------------------

    def run(self, max_cycles: int, events=None, trace=None) -> RunResult:
        """Run to a terminal outcome and package the observables.

        ``trace`` is an optional per-instruction hook (see
        :class:`repro.microarch.trace.InstructionTrace`).
        """
        try:
            self.core.run(max_cycles, events=events, trace=trace)
            raise AssertionError("core.run returned without terminating")
        except SimulationTermination as termination:
            # Keep the outcome, not its traceback: the traceback's frames
            # would pin the callers' locals (checkpoints, whole machines)
            # in a reference cycle until the next full collection.
            outcome = termination.with_traceback(None)
        # Harvest every part's declared event counters (a unit's land in
        # ``<unit>_<counter>``).
        counters = PerfCounters()
        counters.cycles = self.core.cycle
        for name in self.PARTS:
            part = getattr(self, name)
            prefix = "" if part is self.core else f"{name}_"
            for counter in part.STATE.counters:
                key = _PERF_NAMES.get(counter, prefix + counter)
                setattr(counters, key, getattr(part, counter))
        devices = self._devices
        return RunResult(
            outcome=outcome,
            output=bytes(devices.output),
            counters=counters,
            cycles=self.core.cycle,
            alive_count=devices.alive_count,
            sdc_flag=devices.sdc_flag,
            check_done=devices.check_done,
        )

    # -- post-mortem inspection ------------------------------------------------

    def kernel_intact(self) -> bool:
        """Approximate the beam protocol's "can we still contact the board?".

        After a watchdog timeout the harness checks whether the kernel could
        still service an interrupt: its text (as seen through the cache
        hierarchy), its page-table entries, and any TLB translations for
        kernel pages must be uncorrupted.
        """
        layout = self.layout
        segment = self.kernel.segment("text")
        seen = self.l1i.peek(segment.base, len(segment.data))
        if seen != self._pristine_kernel_text:
            return False

        kernel_pages = range(0, layout.kernel_end >> 12)
        for vpn in kernel_pages:
            pte_bytes = self.l2.peek(layout.page_table_base + vpn * 4, 4)
            pte = int.from_bytes(pte_bytes, "little")
            if (pte >> 12) != vpn or not pte & 1:
                return False
        for name in self.TLBS:
            for entry in getattr(self, name).entries:
                if entry.valid and entry.vpn in kernel_pages:
                    if entry.ppn != entry.vpn or not entry.perms & 1:
                        return False
        return True

    def cache_occupancy(self) -> dict[str, float]:
        """Valid-line fractions, used by analyses of footprint effects."""
        return {name: getattr(self, name).occupancy() for name in self.CACHES}
