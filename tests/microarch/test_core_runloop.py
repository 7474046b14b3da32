"""Run-loop mechanics: event scheduling, atomic mode, cycle accounting."""

from __future__ import annotations

import pytest

from repro.errors import ProgramExit, WatchdogTimeout
from repro.isa.assembler import Assembler
from repro.kernel.layout import DEFAULT_LAYOUT
from repro.microarch.config import SCALED_A9_CONFIG
from repro.microarch.digest import system_digest
from repro.microarch.system import System
from repro.microarch.translate import attach_translator

SPIN = """
_start:
    li   r1, 30000
spin:
    subi r1, r1, 1
    cmpi r1, 0
    bgt  spin
    movi r0, 0
    movi r7, 0
    syscall
"""


def build(source=SPIN, config=SCALED_A9_CONFIG):
    assembler = Assembler(
        text_base=DEFAULT_LAYOUT.user_text_base,
        data_base=DEFAULT_LAYOUT.user_data_base,
    )
    return System(assembler.assemble(source, entry="_start"), config=config)


class TestEvents:
    def test_events_fire_in_cycle_order(self):
        system = build()
        fired = []
        events = [
            (50_000, lambda: fired.append("late")),
            (10_000, lambda: fired.append("early")),
            (30_000, lambda: fired.append("middle")),
        ]
        with pytest.raises(ProgramExit):
            system.core.run(max_cycles=10_000_000, events=events)
        assert fired == ["early", "middle", "late"]

    def test_event_at_cycle_zero_fires_before_first_instruction(self):
        system = build()
        seen = {}
        events = [(0, lambda: seen.setdefault("icount", system.core.icount))]
        with pytest.raises(ProgramExit):
            system.core.run(max_cycles=10_000_000, events=events)
        assert seen["icount"] == 0

    def test_event_after_exit_never_fires(self):
        system = build()
        fired = []
        with pytest.raises(ProgramExit):
            system.core.run(
                max_cycles=10_000_000,
                events=[(10**9, lambda: fired.append("no"))],
            )
        assert not fired

    def test_watchdog_precedence(self):
        system = build("_start:\nloop:\n    b loop\n")
        with pytest.raises(WatchdogTimeout):
            system.core.run(max_cycles=5_000)


class TestOneLoop:
    """Events, the trace hook and the translator share the one run loop."""

    def test_same_cycle_events_fire_in_list_order(self):
        system = build()
        core = system.core
        fired = []
        events = [
            (20_000, lambda: fired.append(("second-cycle", core.icount))),
            (10_000, lambda: fired.append(("a", core.icount))),
            (10_000, lambda: fired.append(("b", core.icount))),
        ]
        with pytest.raises(ProgramExit):
            core.run(max_cycles=10_000_000, events=events)
        assert [name for name, _icount in fired] == ["a", "b", "second-cycle"]
        assert fired[0][1] == fired[1][1]

    @pytest.mark.parametrize("translated", [False, True], ids=["interp", "translated"])
    def test_noop_events_change_nothing(self, translated):
        def run(events):
            system = build()
            translator = attach_translator(system) if translated else None
            result = system.run(max_cycles=10_000_000, events=events)
            return system, result, translator

        plain, plain_result, _ = run(None)
        cycles = plain_result.cycles
        spread = [(cycle, lambda: None) for cycle in range(0, cycles, 997)]
        evented, evented_result, translator = run(spread)
        assert evented_result.exited_cleanly
        assert evented_result.cycles == cycles
        assert (
            evented_result.counters.instructions
            == plain_result.counters.instructions
        )
        assert (
            evented_result.counters.paper_counters()
            == plain_result.counters.paper_counters()
        )
        assert system_digest(evented) == system_digest(plain)
        if translated:
            assert translator.block_runs > 0

    def test_probe_installed_by_an_event_sees_later_fetches(self):
        system = build()
        core = system.core
        reads = []

        class ReadProbe:
            def on_read(self, cache, line, paddr, size):
                reads.append(paddr)

            def on_fill(self, cache, line, paddr):
                pass

            def on_write(self, cache, line, paddr, size):
                pass

            def on_flush(self, cache):
                pass

        at_install = {}

        def install():
            at_install["icount"] = core.icount
            system.l1i.probe = ReadProbe()

        with pytest.raises(ProgramExit):
            core.run(max_cycles=10_000_000, events=[(10_000, install)])
        # One L1I read per fetch after the install, the terminal halt
        # (which raises before icount increments) included.
        assert len(reads) == core.icount - at_install["icount"] + 1

    def test_trace_hook_runs_per_instruction_untranslated(self):
        system = build()
        translator = attach_translator(system)
        calls = []
        result = system.run(max_cycles=10_000_000, trace=calls.append)
        assert result.exited_cleanly
        # The terminal halt is traced but raises before icount increments.
        assert len(calls) == result.counters.instructions + 1
        assert translator.dispatches == 0


class TestAtomicMode:
    def test_atomic_mode_runs_same_program(self):
        detailed = build()
        atomic = build(config=SCALED_A9_CONFIG.with_atomic())
        result_detailed = detailed.run(max_cycles=10_000_000)
        result_atomic = atomic.run(max_cycles=10_000_000)
        assert result_detailed.exited_cleanly and result_atomic.exited_cleanly
        assert (
            result_detailed.counters.instructions
            == result_atomic.counters.instructions
        )

    def test_atomic_mode_has_fewer_cycles(self):
        detailed = build().run(max_cycles=10_000_000)
        atomic = build(config=SCALED_A9_CONFIG.with_atomic()).run(
            max_cycles=10_000_000
        )
        assert atomic.cycles < detailed.cycles

    def test_atomic_mode_skips_cache_accounting(self):
        result = build(config=SCALED_A9_CONFIG.with_atomic()).run(
            max_cycles=10_000_000
        )
        assert result.counters.l1d_accesses == 0
        assert result.counters.itlb_accesses == 0


class TestCycleAccounting:
    def test_cycles_at_least_instructions(self):
        result = build().run(max_cycles=10_000_000)
        assert result.cycles >= result.counters.instructions

    def test_memory_traffic_costs_cycles(self):
        touch = """
_start:
    la   r1, buf
    movi r2, 0
loop:
    ldw  r3, [r1]
    addi r1, r1, 32
    addi r2, r2, 1
    cmpi r2, 64
    blt  loop
    movi r0, 0
    movi r7, 0
    syscall
    .data
buf: .space 2048
"""
        result = build(touch).run(max_cycles=10_000_000)
        # Every 32-byte stride is an L1D miss: cycles per instruction must
        # clearly exceed 1.
        assert result.cycles > result.counters.instructions * 1.5
