"""Observability equivalence: events observe runs, never change them.

The acceptance guarantee of the observability layer: with early exit off,
enabling fault-lifetime events changes no injection's classification, for
every component, on both equivalence workloads.  Plus end-to-end shape
checks of the event sequences the taint probes produce on real runs.
"""

from __future__ import annotations

import pytest

from repro.injection.campaign import record_golden_observables, run_golden
from repro.injection.classify import FaultEffect
from repro.injection.components import Component, component_bits
from repro.injection.fault import generate_faults
from repro.injection.parallel import EngineOptions, ImageInjector, MachineImage
from repro.microarch.config import SCALED_A9_CONFIG
from repro.observability.events import (
    EV_FLIP,
    EV_OUTCOME,
    EV_READ,
    EV_WRITE_OVER,
    MECH_OVERWRITE,
    first_event,
    masking_mechanism,
)
from repro.workloads import get_workload

MACHINE = SCALED_A9_CONFIG
WORKLOAD_NAMES = ("StringSearch", "MatMul")


@pytest.fixture(scope="module", params=WORKLOAD_NAMES)
def prepared(request):
    """(workload, golden, snapshots, digests, arch digests) per workload."""
    workload = get_workload(request.param)
    golden = run_golden(workload, MACHINE)
    snapshots, digests, arch_digests, _, _ = record_golden_observables(
        workload, MACHINE, golden, snapshot_count=6, digest_count=16
    )
    return workload, golden, snapshots, digests, arch_digests


def _image_pair(prepared):
    """The same machine with events on and off, early exit off in both."""
    workload, golden, snapshots, digests, arch_digests = prepared
    with_events = MachineImage(
        workload.name, workload.program(MACHINE.layout),
        MACHINE, golden.cycles, golden.output, snapshots,
        digests=digests, arch_digests=arch_digests,
        engine=EngineOptions(early_exit=False, lifetime_events=True),
    )
    without = MachineImage(
        workload.name, workload.program(MACHINE.layout),
        MACHINE, golden.cycles, golden.output, snapshots,
        engine=EngineOptions(early_exit=False, lifetime_events=False),
    )
    return with_events, without


class TestClassificationEquivalence:
    def test_events_change_no_effect_for_any_component(self, prepared):
        _workload, golden, *_rest = prepared
        with_events, without = _image_pair(prepared)
        probed, plain = ImageInjector(with_events), ImageInjector(without)
        for component in Component:
            faults = generate_faults(
                component,
                component_bits(MACHINE, component),
                golden.cycles,
                count=3,
                seed=29,
            )
            for fault in faults:
                result = probed.run_fault_ex(fault)
                reference = plain.run_fault_ex(fault)
                assert result.effect is reference.effect, (
                    f"{component.name} {fault}: events flipped the effect "
                    f"{reference.effect} -> {result.effect}"
                )
                assert reference.events == ()
                assert result.events


class TestEventSequences:
    def test_every_sequence_is_flip_to_outcome_in_cycle_order(self, prepared):
        _workload, golden, *_rest = prepared
        with_events, _without = _image_pair(prepared)
        injector = ImageInjector(with_events)
        for component in (Component.L1D, Component.REGFILE, Component.DTLB):
            for fault in generate_faults(
                component,
                component_bits(MACHINE, component),
                golden.cycles,
                count=2,
                seed=41,
            ):
                result = injector.run_fault_ex(fault)
                events = result.events
                kinds = [kind for kind, _cycle, _detail in events]
                cycles = [cycle for _kind, cycle, _detail in events]
                assert kinds[0] == EV_FLIP
                assert events[0][2] == component.name
                assert kinds[-1] == EV_OUTCOME
                assert events[-1][2] == result.effect.name
                assert kinds.count(EV_FLIP) == 1
                assert kinds.count(EV_OUTCOME) == 1
                assert cycles == sorted(cycles)
                # The flip callback fires at the first instruction
                # boundary past the injection cycle, never before it.
                assert cycles[0] >= fault.cycle

    def test_overwrite_before_read_masks_with_the_right_sequence(
        self, prepared
    ):
        """E2E: a register overwritten before any read masks the fault and
        the event record says exactly that."""
        _workload, golden, *_rest = prepared
        with_events, _without = _image_pair(prepared)
        injector = ImageInjector(with_events)
        faults = generate_faults(
            Component.REGFILE,
            component_bits(MACHINE, Component.REGFILE),
            golden.cycles,
            count=12,
            seed=9,
        )
        for fault in faults:
            result = injector.run_fault_ex(fault)
            events = result.events
            if (
                result.effect is FaultEffect.MASKED
                and first_event(events, EV_WRITE_OVER) is not None
                and first_event(events, EV_READ) is None
            ):
                break
        else:
            pytest.fail("no overwrite-before-read Masked regfile fault found")
        flip = first_event(events, EV_FLIP)
        overwrite = first_event(events, EV_WRITE_OVER)
        outcome = first_event(events, EV_OUTCOME)
        assert flip.cycle <= overwrite.cycle <= outcome.cycle
        assert overwrite.detail == "regfile"
        assert outcome.detail == FaultEffect.MASKED.name
        assert masking_mechanism(events) == MECH_OVERWRITE
