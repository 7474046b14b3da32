"""System assembly: loading, devices, steady state, kernel-intact probe."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.kernel.layout import DEFAULT_LAYOUT
from repro.microarch.config import SCALED_A9_CONFIG
from repro.microarch.system import System
from repro.workloads import get_workload


@pytest.fixture
def susan_system():
    workload = get_workload("Susan C")
    return System(workload.program(DEFAULT_LAYOUT))


class TestConstruction:
    def test_kernel_and_user_loaded(self, susan_system):
        kernel_text = susan_system.kernel.segment("text")
        assert (
            susan_system.memory.peek(kernel_text.base, 8) == kernel_text.data[:8]
        )
        user = susan_system.user_program.segment("text")
        assert susan_system.memory.peek(user.base, 8) == user.data[:8]

    def test_page_table_written(self, susan_system):
        layout = susan_system.layout
        pte0 = int.from_bytes(
            susan_system.memory.peek(layout.page_table_base, 4), "little"
        )
        assert pte0 & 1  # valid
        assert pte0 >> 12 == 0  # identity

    def test_caches_start_cold_without_beam_mode(self, susan_system):
        assert susan_system.l1d.occupancy() == 0.0
        assert susan_system.l2.occupancy() == 0.0

    def test_beam_mode_prefills_hierarchy(self):
        workload = get_workload("Susan C")
        system = System(
            workload.program(DEFAULT_LAYOUT),
            beam_mode=True,
            golden_output=b"",
        )
        assert system.l2.occupancy() == 1.0
        assert system.l1d.occupancy() == 1.0
        assert system.l1i.occupancy() == 1.0

    def test_beam_steady_state_lines_are_os_background(self):
        workload = get_workload("Susan C")
        system = System(
            workload.program(DEFAULT_LAYOUT), beam_mode=True, golden_output=b""
        )
        layout = system.layout
        regions = {
            layout.region_of(system.l2.line_base_paddr(bit))
            for bit in range(0, system.l2.data_bits, system.l2.line_size * 8)
        }
        assert regions == {"os_background"}

    def test_oversized_segment_rejected(self, user_assembler):
        source = "_start:\n    nop\n    .data\nbig: .space 0x300000\n"
        program = user_assembler.assemble(source)
        with pytest.raises(ConfigurationError):
            System(program)


class TestKernelIntactProbe:
    def test_intact_on_fresh_system(self, susan_system):
        assert susan_system.kernel_intact()

    def test_corrupted_kernel_text_detected(self, susan_system):
        # Flip a bit of kernel text in memory (as a written-back corruption).
        susan_system.memory.data[0x44] ^= 0x10
        assert not susan_system.kernel_intact()

    def test_corrupted_kernel_pte_detected(self, susan_system):
        base = susan_system.layout.page_table_base
        susan_system.memory.data[base] ^= 0x01  # clear valid bit of PTE 0
        assert not susan_system.kernel_intact()

    def test_corrupted_kernel_tlb_translation_detected(self, susan_system):
        susan_system.itlb.fill(vpn=0, ppn=5, perms=0x0F)  # wrong frame
        assert not susan_system.kernel_intact()

    def test_user_memory_corruption_ignored(self, susan_system):
        susan_system.memory.data[DEFAULT_LAYOUT.user_data_base] ^= 0xFF
        assert susan_system.kernel_intact()


class TestCacheOccupancyReport:
    def test_occupancy_dict(self, susan_system):
        report = susan_system.cache_occupancy()
        assert set(report) == {"l1i", "l1d", "l2"}
        assert all(0.0 <= value <= 1.0 for value in report.values())


class TestRunResult:
    def test_outcome_keeps_no_traceback(self):
        """A kept traceback pins the caller's frames, and every checkpoint
        or machine they hold, in a reference cycle."""
        system = System(get_workload("StringSearch").program(DEFAULT_LAYOUT))
        result = system.run(max_cycles=200_000_000)
        assert result.exited_cleanly
        assert result.outcome.__traceback__ is None
