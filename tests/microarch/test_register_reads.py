"""The register-access table and the static read set derived from it.

``register_effects`` is the one description of which architectural
registers an instruction reads and writes: the translator keeps a
region's registers in locals from it, and every :class:`System` unions
its reads over the text it loads into ``PhysRegFile.int_reads`` /
``fp_reads``.  A register outside those sets is never read, so a flip
into it is dead at the flip (``PhysRegFile.observable``).  These tests
pin the table against the handlers themselves and show the rule sound:
scrambling every unread register mid-run leaves the run golden.
"""

from __future__ import annotations

import random
import struct

import pytest

from repro.beam.checkroutine import build_check_program
from repro.errors import ProgramExit
from repro.injection.campaign import record_golden_observables, run_golden
from repro.isa.opcodes import Op
from repro.kernel.layout import CAUSE_TIMER
from repro.microarch.config import SCALED_A9_CONFIG
from repro.microarch.core import (
    _HANDLERS,
    EXCEPTION_ENTRY_READS,
    Mode,
    register_effects,
)
from repro.microarch.digest import system_digest
from repro.microarch.regfile import ARCH_REGS, INT_REG_BITS, PhysRegFile
from repro.microarch.system import System
from repro.microarch.translate import translated
from repro.workloads import get_workload

MACHINE = SCALED_A9_CONFIG
_PRIVILEGED = {Op.ERET, Op.HALT, Op.CSRR, Op.CSRW}


class _Recording(list):
    """Register list that logs every architectural subscript."""

    __slots__ = ("reads", "writes")

    def __getitem__(self, index):
        if type(index) is int and index < ARCH_REGS:
            self.reads.add(index)
        return list.__getitem__(self, index)

    def __setitem__(self, index, value):
        if type(index) is int and index < ARCH_REGS:
            self.writes.add(index)
        list.__setitem__(self, index, value)


def _recording_core():
    system = System(get_workload("CRC32").program(MACHINE.layout), config=MACHINE)
    core = system.core

    def wrap(_kind, values):
        recording = _Recording(values)
        recording.reads = set()
        recording.writes = set()
        return recording

    system.rf.wrap_regs(wrap)
    for reg in range(ARCH_REGS):
        list.__setitem__(system.rf.int_regs, reg, reg + 1)
        list.__setitem__(system.rf.fp_regs, reg, reg + 1.5)
    # Memory accesses are not register accesses: stub them out.
    core.load_int = lambda vaddr, size: (0, 0)
    core.store_int = lambda vaddr, value, size: 0
    core.load_double = lambda vaddr: (0.0, 0)
    core.store_double = lambda vaddr, value: 0
    return core


def _recorded(core) -> tuple:
    rf = core.rf
    return (
        rf.int_regs.reads, rf.int_regs.writes, rf.fp_regs.reads, rf.fp_regs.writes
    )


class TestRegisterEffects:
    @pytest.mark.parametrize("op", list(Op), ids=lambda op: op.name)
    @pytest.mark.parametrize("rd, rs1, rs2", [(1, 2, 3), (4, 4, 4), (13, 0, 15)])
    def test_handler_accesses_lie_in_the_table(self, op, rd, rs1, rs2):
        core = _recording_core()
        core.mode = Mode.KERNEL if op in _PRIVILEGED else Mode.USER
        try:
            _HANDLERS[op](core, rd, rs1, rs2, 4)
        except ProgramExit:
            assert op is Op.HALT
        recorded = _recorded(core)
        table = register_effects(op, rd, rs1, rs2)
        assert recorded == table, (op, recorded, table)

    def test_implicit_accesses(self):
        assert register_effects(Op.CSRW, 1, 2, 3)[0] == {2}
        assert register_effects(Op.HALT, 1, 2, 3)[0] == {0}
        assert register_effects(Op.CSRR, 1, 2, 3)[1] == {1}
        assert register_effects(Op.ERET, 1, 2, 3)[1] == {13}
        assert register_effects(Op.SYSCALL, 1, 2, 3)[:2] == ({13}, {13})

    def test_exception_entry_banks_r13(self):
        core = _recording_core()
        core.mode = Mode.USER
        core.enter_kernel(CAUSE_TIMER, epc=core.pc)
        assert _recorded(core) == (EXCEPTION_ENTRY_READS, {13}, set(), set())


class TestReadSet:
    def test_a_bare_register_file_reads_everything(self):
        rf = PhysRegFile(24, 20)
        assert rf.int_reads == rf.fp_reads == frozenset(range(ARCH_REGS))

    def test_integer_code_reads_no_fp_register(self):
        system = System(get_workload("CRC32").program(MACHINE.layout), config=MACHINE)
        rf = system.rf
        assert rf.fp_reads == frozenset()
        assert EXCEPTION_ENTRY_READS <= rf.int_reads
        assert 8 not in rf.int_reads
        fp_bit = rf.n_int * INT_REG_BITS
        assert not rf.observable(fp_bit)
        assert rf.flip_bit(fp_bit) is False
        assert rf.observable(13 * INT_REG_BITS)

    def test_fp_code_reads_its_fp_registers(self):
        rf = System(get_workload("FFT").program(MACHINE.layout), config=MACHINE).rf
        assert rf.fp_reads == frozenset(range(8))

    def test_check_routine_text_is_scanned(self):
        """Beam machines also load the check routine: its reads count."""
        workload = get_workload("CRC32")
        program = workload.program(MACHINE.layout)
        check = build_check_program(MACHINE.layout, 16)
        plain = System(program, config=MACHINE).rf
        beam = System(program, config=MACHINE, check_program=check).rf
        assert 8 not in plain.int_reads
        assert beam.int_reads == plain.int_reads | {8}


class TestUnreadRegisterSoundness:
    """The rule prunes only dead state: scrambling every register the read
    set calls unread at a mid-run checkpoint leaves the run golden."""

    @staticmethod
    def _scramble(system, rng) -> list[tuple[str, int]]:
        rf = system.rf
        scrambled = []
        for reg in range(ARCH_REGS):
            if reg not in rf.int_reads:
                rf.int_regs[reg] = rng.getrandbits(32)
                scrambled.append(("int", reg))
            if reg not in rf.fp_reads:
                rf.fp_regs[reg] = struct.unpack(
                    "<d", rng.getrandbits(64).to_bytes(8, "little")
                )[0]
                scrambled.append(("fp", reg))
        return scrambled

    @pytest.mark.parametrize("name", ["CRC32", "FFT"])
    def test_scrambled_unread_registers_run_to_the_golden_exit(self, name):
        workload = get_workload(name)
        golden = run_golden(workload, MACHINE)
        reference = System(workload.program(MACHINE.layout), config=MACHINE)
        with translated(reference):
            reference.run(max_cycles=200_000_000)
        snapshots, _, _, _, _ = record_golden_observables(
            workload, MACHINE, golden, snapshot_count=4, digest_count=0
        )
        system = System(workload.program(MACHINE.layout), config=MACHINE)
        snapshots[len(snapshots) // 2].restore(system)
        scrambled = self._scramble(system, random.Random(name))
        assert ("int", 14) in scrambled
        with translated(system):
            result = system.run(max_cycles=200_000_000)
        assert result.cycles == golden.cycles
        assert result.output == golden.output
        assert result.exited_cleanly
        assert result.counters.to_dict() == golden.counters.to_dict()
        for kind, reg in scrambled:
            regs = system.rf.int_regs if kind == "int" else system.rf.fp_regs
            regs[reg] = getattr(reference.rf, f"{kind}_regs")[reg]
        assert system_digest(system) == system_digest(reference)
