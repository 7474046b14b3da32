"""Targeted beam-strike mechanisms: the three divergence channels.

Each test places a strike by hand where one of the paper's explanations
predicts a specific outcome, and checks the machine delivers it.
"""

from __future__ import annotations

import random

import pytest

from repro.beam.experiment import BeamCampaignConfig, BeamExperiment
from repro.injection.classify import FaultEffect
from repro.injection.components import Component
from repro.microarch.system import GOLDEN_DATA_OFFSET
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def experiment():
    return BeamExperiment(BeamCampaignConfig(beam_hours=1, seed=1), cache_dir=None)


@pytest.fixture(scope="module")
def susan_injector(experiment):
    workload = get_workload("Susan C")
    golden = workload.reference_output()
    injector, warm = experiment._golden_beam_run(workload, golden)
    return workload, golden, injector, warm


@pytest.fixture(scope="module")
def susan(susan_injector):
    workload, golden, injector, warm = susan_injector
    return workload, golden, injector.image.snapshots[0], warm


def strike_line_in_region(experiment, susan, cache_name, region, payload_bit=3):
    """Find a bit of a warm cache line tagged to ``region`` and strike it."""
    workload, golden, warm_boot, warm = susan
    system = experiment._beam_system(workload, golden)
    warm_boot.restore(system)
    cache = getattr(system, cache_name)
    layout = system.layout
    for bit in range(0, cache.data_bits, cache.line_size * 8):
        line = cache.line_at(bit)
        if line.valid and layout.region_of(cache.line_base_paddr(bit)) == region:
            return bit + payload_bit
    return None


class TestOSResidencyChannel:
    def test_warm_l2_holds_os_background_lines(self, experiment, susan):
        bit = strike_line_in_region(experiment, susan, "l2", "os_background")
        assert bit is not None  # Susan C leaves OS lines resident

    def test_os_line_strike_resolved_by_board_model(
        self, experiment, susan, susan_injector
    ):
        _workload, _golden, injector, warm = susan_injector
        bit = strike_line_in_region(experiment, susan, "l2", "os_background")
        rng = random.Random(0)
        outcomes = {
            experiment._strike_effect(
                injector, Component.L2,
                bit_index=bit, cycle=warm.cycles // 2, rng=rng,
            )
            for _ in range(12)
        }
        # Sampled from the ZEDBOARD os-line distribution: only its classes.
        assert outcomes <= {
            FaultEffect.SYS_CRASH, FaultEffect.APP_CRASH, FaultEffect.MASKED
        }
        assert FaultEffect.SYS_CRASH in outcomes


class TestCheckRoutineChannel:
    def test_corrupt_golden_copy_reports_false_sdc(self, experiment, susan):
        """A strike on the in-memory golden data makes the online check
        disagree with a *correct* output - logged as SDC, an artifact the
        beam protocol genuinely has."""
        workload, golden, warm_boot, warm = susan
        system = experiment._beam_system(workload, golden)
        warm_boot.restore(system)
        golden_addr = system.layout.golden_buffer_base + GOLDEN_DATA_OFFSET

        def corrupt_golden():
            system.memory.data[golden_addr] ^= 0xFF
            system.l1d.invalidate_all()
            system.l2.invalidate_all()

        result = system.run(
            max_cycles=warm.cycles * 3 + 100_000,
            events=[(warm.cycles // 2, corrupt_golden)],
        )
        assert result.exited_cleanly
        assert result.sdc_flag  # the check fired on a clean output

    def test_corrupt_check_code_crashes_the_check(self, experiment, susan):
        workload, golden, warm_boot, warm = susan
        system = experiment._beam_system(workload, golden)
        warm_boot.restore(system)
        check_entry = system.layout.check_text_base

        def corrupt_check():
            for offset in range(0, 32, 4):
                system.memory.data[check_entry + offset] = 0x00
            system.l1i.invalidate_all()
            system.l2.invalidate_all()

        result = system.run(
            max_cycles=warm.cycles * 3 + 100_000,
            events=[(warm.cycles // 2, corrupt_check)],
        )
        from repro.errors import ApplicationAbort

        assert isinstance(result.outcome, ApplicationAbort)


class TestPlatformChannel:
    def test_platform_strike_counts_scale_with_exposure(self):
        """Doubling beam time roughly doubles sampled platform strikes."""
        from repro.beam.facility import LANSCE
        from repro.beam.board import ZEDBOARD
        from repro.beam.fit import sample_poisson

        rate = LANSCE.strike_rate(
            ZEDBOARD.platform_logic_bits, ZEDBOARD.platform_sensitivity
        )
        rng = random.Random(5)
        short = sum(sample_poisson(rng, rate * 100 * 3600) for _ in range(30))
        long = sum(sample_poisson(rng, rate * 200 * 3600) for _ in range(30))
        assert long == pytest.approx(2 * short, rel=0.3)
