"""Strike-site observability on the injection engine, and cluster sizes."""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

from repro.injection.campaign import (
    CampaignConfig,
    prepare_image,
    run_single_injection,
)
from repro.injection.classify import FaultEffect
from repro.injection.components import (
    Component,
    component_bits,
    component_target,
)
from repro.injection.fault import Fault, StrikeSite, generate_faults
from repro.injection.journal import InjectionRecord
from repro.injection.parallel import (
    ENDED_DEAD_CELL,
    EngineOptions,
    ImageInjector,
)
from repro.microarch.config import SCALED_A9_CONFIG
from repro.microarch.regfile import ARCH_REGS, FP_REG_BITS, INT_REG_BITS
from repro.microarch.system import System
from repro.workloads import get_workload

#: The reference engine: interpreter, full-sweep restores, no pruning.
REFERENCE = EngineOptions(translate=False, early_exit=False)


@pytest.fixture(scope="module")
def workload():
    return get_workload("StringSearch")


@pytest.fixture(scope="module")
def prepared(workload):
    return prepare_image(workload, CampaignConfig())


@pytest.fixture(scope="module")
def golden(prepared):
    return prepared[0]


@pytest.fixture(scope="module")
def injector(prepared):
    return ImageInjector(prepared[1])


def _injector(workload, **config) -> ImageInjector:
    return ImageInjector(prepare_image(workload, CampaignConfig(**config))[1])


class TestObservability:
    def test_observation_fields(self, injector, golden):
        fault = Fault(Component.L1D, bit_index=100, cycle=golden.cycles // 2)
        result = injector.run_fault_ex(fault)
        assert result.effect in set(FaultEffect)
        assert isinstance(result.site, StrikeSite)
        assert result.site.mode in ("user", "kernel")
        assert isinstance(result.site.live, bool)

    def test_dead_cache_line_observed_and_masked(self, injector):
        """A strike at cycle 0 hits cold caches: not live, masked."""
        fault = Fault(Component.L2, bit_index=77, cycle=0)
        result = injector.run_fault_ex(fault)
        assert not result.site.live
        assert result.site.region is None
        assert result.effect is FaultEffect.MASKED

    def test_effect_matches_plain_injection(self, workload, golden, injector):
        faults = generate_faults(
            Component.L1I,
            component_bits(SCALED_A9_CONFIG, Component.L1I),
            golden.cycles,
            count=5,
            seed=99,
        )
        for fault in faults:
            plain = run_single_injection(workload, fault, SCALED_A9_CONFIG, golden)
            assert injector.run_fault_ex(fault).effect == plain

    def test_regions_are_meaningful(self, injector, golden):
        regions = set()
        faults = generate_faults(
            Component.L1D,
            component_bits(SCALED_A9_CONFIG, Component.L1D),
            golden.cycles,
            count=12,
            seed=17,
        )
        for fault in faults:
            site = injector.run_fault_ex(fault).site
            if site.region:
                regions.add(site.region)
        # A running system holds both user and kernel lines in L1D.
        assert regions  # at least something live was struck
        valid_names = {
            "kernel_text", "kernel_data", "page_table", "user_text",
            "user_data", "user_stack", "output_buffer", "os_background",
            "check_text", "golden_buffer", "unmapped",
        }
        assert regions <= valid_names


class TestEngineIndependence:
    def test_site_identical_on_the_reference_engine(self, workload, golden, injector):
        """The site comes from the machine state at the flip, not from the
        engine: translation and early exit change nothing about it."""
        reference = _injector(workload, translate=False, early_exit=False)
        assert reference.image.engine.translate is False
        faults = [Fault(Component.L2, bit_index=77, cycle=0)]
        for component in (Component.L1D, Component.L2, Component.DTLB, Component.REGFILE):
            faults += generate_faults(
                component,
                component_bits(SCALED_A9_CONFIG, component),
                golden.cycles,
                count=4,
                seed=5,
            )
        for fault in faults:
            fast = injector.run_fault_ex(fault)
            slow = reference.run_fault_ex(fault)
            assert fast.site == slow.site, fault
            assert fast.effect is slow.effect, fault

    def test_non_cache_site_has_no_region(self, injector, golden):
        fault = Fault(Component.REGFILE, bit_index=3, cycle=golden.cycles // 3)
        site = injector.run_fault_ex(fault).site
        assert site.region is None
        assert site.live  # register 0 is architectural


def _mid_run(prepared):
    """A machine restored to the middle golden checkpoint, and that
    checkpoint's cycle (a fault there flips exactly this state)."""
    image = prepared[1]
    snapshot = image.snapshots[len(image.snapshots) // 2]
    system = System(image.program, config=image.machine)
    snapshot.restore(system)
    return system, snapshot.cycle


def _straddle(target, population):
    """The first bit that is dead while the next one is live, if any."""
    return next(
        (
            bit
            for bit in range(population - 1)
            if not target.observable(bit) and target.observable(bit + 1)
        ),
        None,
    )


class TestLiveSite:
    """``StrikeSite.live`` and the dead-cell rule read one predicate."""

    def test_predicate_equals_flip_bit_on_a_mid_run_machine(self, prepared):
        system, _cycle = _mid_run(prepared)
        rng = random.Random(11)
        seen = set()
        for component in Component:
            target = component_target(system, component)
            for _ in range(200):
                bit = rng.randrange(target.data_bits)
                observable = target.observable(bit)
                assert target.flip_bit(bit) is observable, (component, bit)
                seen.add(observable)
        assert seen == {True, False}

    @pytest.mark.parametrize("cluster_size", [1, 2, 4])
    def test_live_when_any_bit_of_the_cluster_is(
        self, prepared, golden, cluster_size
    ):
        """Every component, including clusters that straddle from a dead
        cell into a live one; with early exit on, a run ends dead-cell
        exactly when its site is not live."""
        probe, cycle = _mid_run(prepared)
        image = dataclasses.replace(
            prepared[1],
            cluster_size=cluster_size,
            engine=EngineOptions(lifetime_events=False),
        )
        injector = ImageInjector(image)
        straddled = set()
        try:
            for component in Component:
                target = component_target(probe, component)
                population = target.data_bits
                bits = [
                    fault.bit_index
                    for fault in generate_faults(
                        component, population, golden.cycles, count=4, seed=3
                    )
                ]
                straddle = _straddle(target, population)
                if straddle is not None:
                    bits.append(straddle)
                    straddled.add(component)
                for bit in bits:
                    expected = any(
                        target.observable((bit + offset) % population)
                        for offset in range(cluster_size)
                    )
                    result = injector.run_fault_ex(Fault(component, bit, cycle))
                    assert result.site.live is expected, (component, bit)
                    assert (result.ended_by == ENDED_DEAD_CELL) is (
                        not expected
                    ), (component, bit)
        finally:
            injector.close()
        assert {
            Component.L2, Component.REGFILE, Component.DTLB, Component.ITLB
        } <= straddled


class TestNotLiveLifetime:
    """A flip nothing can observe has one lifetime, ``flip`` then
    ``outcome``, with early exit on (it ends ``dead-cell`` at the flip)
    and off (it runs to exit unwatched: no taint, no digest stamps).
    StringSearch reads no FP register, so a flip there is not live."""

    @staticmethod
    def _fault(prepared, case: str) -> Fault:
        system, cycle = _mid_run(prepared)
        rf = system.rf
        if case == "rename-slot":
            return Fault(Component.REGFILE, ARCH_REGS * INT_REG_BITS + 5, cycle)
        if case == "unread-fp":
            reg = min(set(range(ARCH_REGS)) - rf.fp_reads)
            bit = rf.n_int * INT_REG_BITS + reg * FP_REG_BITS + 62
            return Fault(Component.REGFILE, bit, cycle)
        l1d = system.l1d
        line_bits = l1d.line_size * 8
        bit = next(
            start + 9
            for start in range(0, l1d.data_bits, line_bits)
            if not l1d.line_at(start).valid
        )
        return Fault(Component.L1D, bit, cycle)

    @pytest.mark.parametrize("early_exit", [True, False])
    @pytest.mark.parametrize("case", ["rename-slot", "unread-fp", "invalid-l1d-line"])
    def test_flip_then_outcome(self, prepared, case, early_exit):
        fault = self._fault(prepared, case)
        image = dataclasses.replace(
            prepared[1], engine=EngineOptions(early_exit=early_exit)
        )
        injector = ImageInjector(image)
        try:
            result = injector.run_fault_ex(fault)
        finally:
            injector.close()
        assert [kind for kind, _cycle, _detail in result.events] == [
            "flip",
            "outcome",
        ]
        assert result.site.live is False
        assert result.effect is FaultEffect.MASKED
        assert (result.ended_by == ENDED_DEAD_CELL) is early_exit


class TestJournalSite:
    def _record(self, site):
        return InjectionRecord(
            component=Component.L1D,
            index=3,
            bit_index=100,
            cycle=2000,
            effect=FaultEffect.SDC,
            wall_time=0.01,
            site=site,
        )

    def test_site_round_trips(self):
        for site in (
            StrikeSite("user", "user_data", True),
            StrikeSite("kernel", None, False),
        ):
            line = json.loads(json.dumps(self._record(site).to_line()))
            assert line["site"] == [site.mode, site.region, site.live]
            assert InjectionRecord.from_line(line).site == site

    def test_line_without_site_replays_as_none(self):
        line = self._record(StrikeSite("user", "user_data", True)).to_line()
        del line["site"]
        assert InjectionRecord.from_line(line).site is None
        assert "site" not in self._record(None).to_line()


class TestClusterSizes:
    def test_cluster_flips_are_applied(self, workload, golden):
        """A 2-bit cluster in the same byte of a live line produces a
        different corruption than a single bit (sanity via determinism)."""
        fault = Fault(Component.L1D, bit_index=8, cycle=golden.cycles // 2)
        single = run_single_injection(
            workload, fault, SCALED_A9_CONFIG, golden, cluster_size=1
        )
        double = run_single_injection(
            workload, fault, SCALED_A9_CONFIG, golden, cluster_size=2
        )
        assert single in set(FaultEffect)
        assert double in set(FaultEffect)

    def test_cluster_wraps_population(self, workload, golden):
        bits = component_bits(SCALED_A9_CONFIG, Component.ITLB)
        fault = Fault(Component.ITLB, bit_index=bits - 1, cycle=100)
        effect = run_single_injection(
            workload, fault, SCALED_A9_CONFIG, golden, cluster_size=4
        )
        assert effect in set(FaultEffect)

    def test_instrumented_cluster_matches_plain(self, workload, golden):
        """The engine honours cluster_size: for every cluster the effect
        equals the plain injector's, and the site is that of the first
        struck bit whatever the cluster (observation never changes what
        is flipped)."""
        faults = (
            Fault(Component.L1D, bit_index=8, cycle=golden.cycles // 2),
            Fault(Component.REGFILE, bit_index=3, cycle=golden.cycles // 3),
        )
        injectors = {
            cluster: _injector(workload, cluster_size=cluster)
            for cluster in (1, 2, 4)
        }
        for fault in faults:
            sites = set()
            for cluster, injector in injectors.items():
                plain = run_single_injection(
                    workload, fault, SCALED_A9_CONFIG, golden,
                    cluster_size=cluster,
                )
                result = injector.run_fault_ex(fault)
                assert result.effect is plain, (fault, cluster)
                sites.add(result.site)
            assert len(sites) == 1, (fault, sites)
