"""Parallel campaign engine: determinism, machine-image reuse, fan-out.

The acceptance bar for the engine is strict: for the same CampaignConfig,
any worker count must produce *byte-identical* ``WorkloadResult.to_dict()``
output, and the restore-based injector must match the legacy
build-a-fresh-System path bit for bit.
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.errors import InjectionError
from repro.injection import parallel as parallel_module
from repro.injection.campaign import (
    CampaignConfig,
    InjectionCampaign,
    prepare_image,
    record_golden_observables,
    run_golden,
    run_single_injection,
)
from repro.injection.classify import FaultEffect
from repro.injection.components import Component, component_bits
from repro.injection.fault import generate_faults
from repro.injection.journal import (
    InjectionJournal,
    InjectionRecord,
    JournalMeta,
    QuarantineRecord,
)
from repro.injection.parallel import (
    EngineOptions,
    ImageInjector,
    MachineImage,
    resolve_jobs,
    run_injection_plan,
    watchdog_budget,
)
from repro.injection.telemetry import CampaignTelemetry
from repro.microarch import translate as translate_module
from repro.microarch.config import SCALED_A9_CONFIG
from repro.microarch.digest import system_digest
from repro.microarch.system import System
from repro.workloads import get_workload

#: Small but real campaign: the fastest workload and two cheap components.
WORKLOAD = "StringSearch"
COMPONENTS = (Component.REGFILE, Component.DTLB)
FAULTS = 5

#: The images here record no fault-lifetime events.
BARE = EngineOptions(lifetime_events=False)


@pytest.fixture(scope="module")
def workload():
    return get_workload(WORKLOAD)


@pytest.fixture(scope="module")
def golden(workload):
    return run_golden(workload, SCALED_A9_CONFIG)


@pytest.fixture(scope="module")
def snapshots(workload, golden):
    return record_golden_observables(
        workload, SCALED_A9_CONFIG, golden, snapshot_count=4, digest_count=0
    )[0]


@pytest.fixture(scope="module")
def image(workload, golden, snapshots):
    return MachineImage(
        workload.name, workload.program(SCALED_A9_CONFIG.layout),
        SCALED_A9_CONFIG, golden.cycles, golden.output, snapshots,
        engine=BARE,
    )


class TestResolveJobs:
    def test_positive_is_passthrough(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7

    def test_zero_and_negative_mean_all_cores(self):
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(-3) == resolve_jobs(0)


class TestWatchdogBudget:
    def test_budget_scales_with_golden_duration(self):
        assert watchdog_budget(100_000) > watchdog_budget(10_000) > 10_000


class TestImageInjector:
    """The reusable-machine path must equal the fresh-machine path."""

    def test_matches_legacy_fresh_system_path(
        self, workload, golden, snapshots, image
    ):
        injector = ImageInjector(image)
        for component in COMPONENTS:
            faults = generate_faults(
                component,
                component_bits(SCALED_A9_CONFIG, component),
                golden.cycles,
                count=3,
                seed=13,
            )
            for fault in faults:
                legacy = run_single_injection(
                    workload, fault, SCALED_A9_CONFIG, golden, snapshots=snapshots
                )
                assert injector.run_fault_ex(fault).effect == legacy, fault

    def test_pristine_restore_matches_fresh_boot(self, workload, golden, image):
        """A fault before the first checkpoint uses the pristine image."""
        first_checkpoint = image.snapshots[0].cycle
        early = generate_faults(
            Component.L1D,
            component_bits(SCALED_A9_CONFIG, Component.L1D),
            first_checkpoint,  # all faults land before the first checkpoint
            count=2,
            seed=3,
        )
        injector = ImageInjector(image)
        for fault in early:
            assert fault.cycle < first_checkpoint
            legacy = run_single_injection(workload, fault, SCALED_A9_CONFIG, golden)
            assert injector.run_fault_ex(fault).effect == legacy

    def test_injector_is_reusable_and_order_independent(self, golden, image):
        faults = generate_faults(
            Component.REGFILE,
            component_bits(SCALED_A9_CONFIG, Component.REGFILE),
            golden.cycles,
            count=4,
            seed=17,
        )
        injector = ImageInjector(image)
        forward = [injector.run_fault_ex(fault).effect for fault in faults]
        backward = [
            injector.run_fault_ex(fault).effect for fault in reversed(faults)
        ]
        assert forward == list(reversed(backward))


class TestPlanExecution:
    def test_effects_keyed_and_ordered_by_fault(self, golden, image):
        plan = {
            component: generate_faults(
                component,
                component_bits(SCALED_A9_CONFIG, component),
                golden.cycles,
                count=3,
                seed=2,
            )
            for component in COMPONENTS
        }
        effects = run_injection_plan(image, plan, jobs=1)
        assert set(effects) == set(COMPONENTS)
        assert all(len(effects[c]) == 3 for c in COMPONENTS)
        # Re-running yields the same ordered effects (pure function).
        assert run_injection_plan(image, plan, jobs=1) == effects

    def test_progress_reports_completion(self, golden, image):
        plan = {
            Component.REGFILE: generate_faults(
                Component.REGFILE,
                component_bits(SCALED_A9_CONFIG, Component.REGFILE),
                golden.cycles,
                count=2,
                seed=2,
            )
        }
        messages = []
        run_injection_plan(image, plan, jobs=1, progress=messages.append)
        assert any("REGFILE: 2/2" in message for message in messages)


class TestJournalReplay:
    """The one replay branch: a plan without ``indices`` is the stream's
    head, a plan with ``indices`` is one window of it."""

    @pytest.fixture
    def faults(self, golden):
        return generate_faults(
            Component.REGFILE,
            component_bits(SCALED_A9_CONFIG, Component.REGFILE),
            golden.cycles,
            count=4,
            seed=2,
        )

    @staticmethod
    def journal(tmp_path, golden, *records):
        journal = InjectionJournal.create(
            tmp_path / "campaign.jsonl",
            JournalMeta(
                workload=WORKLOAD,
                machine=SCALED_A9_CONFIG.name,
                faults_per_component=4,
                seed=2,
                cluster_size=1,
                golden_cycles=golden.cycles,
            ),
        )
        for index, bit_index, cycle, effect in records:
            journal.record(
                InjectionRecord(
                    component=Component.REGFILE,
                    index=index,
                    bit_index=bit_index,
                    cycle=cycle,
                    effect=effect,
                    wall_time=0.0,
                )
            )
        return journal

    def test_index_past_a_fixed_plan_raises(self, tmp_path, golden, faults):
        # The header plans 4 faults per component, so index 4 lies past
        # every window of the campaign: resuming refuses it on read,
        # before any plan is replayed against it.
        fault = faults[0]
        journal = self.journal(
            tmp_path, golden, (4, fault.bit_index, fault.cycle, FaultEffect.MASKED)
        )
        journal.close()
        with pytest.raises(InjectionError, match="beyond the plan"):
            InjectionJournal.resume(journal.path, journal.meta)

    def test_record_outside_a_leased_window_is_skipped(
        self, tmp_path, golden, image, faults
    ):
        # Index 0 would not even match the window's first slot: replaying
        # it would raise instead of being skipped.
        inside = faults[2]
        journal = self.journal(
            tmp_path,
            golden,
            (0, inside.bit_index + 1, inside.cycle, FaultEffect.MASKED),
            (2, inside.bit_index, inside.cycle, FaultEffect.SYS_CRASH),
        )
        telemetry = CampaignTelemetry()
        with journal:
            effects = run_injection_plan(
                image,
                {Component.REGFILE: faults[2:4]},
                journal=journal,
                telemetry=telemetry,
                indices={Component.REGFILE: range(2, 4)},
            )
        assert effects[Component.REGFILE][0] is FaultEffect.SYS_CRASH
        assert telemetry.replayed == 1
        assert telemetry.completed == 2  # one replayed, one run live
        assert sorted(r.index for r in journal.records) == [0, 2, 3]

    @pytest.mark.parametrize("field", ["bit_index", "cycle"])
    def test_record_that_disagrees_with_the_plan_raises(
        self, tmp_path, golden, image, faults, field
    ):
        fault = faults[1]
        coordinates = {"bit_index": fault.bit_index, "cycle": fault.cycle}
        coordinates[field] += 1
        journal = self.journal(
            tmp_path,
            golden,
            (1, coordinates["bit_index"], coordinates["cycle"], FaultEffect.SDC),
        )
        with journal, pytest.raises(InjectionError, match="does not match"):
            run_injection_plan(image, {Component.REGFILE: faults}, journal=journal)

    def test_quarantine_that_disagrees_with_the_plan_raises(
        self, tmp_path, golden, image, faults
    ):
        fault = faults[1]
        journal = self.journal(tmp_path, golden)
        journal.record_quarantine(
            QuarantineRecord(
                Component.REGFILE, 1, fault.bit_index + 1, fault.cycle + 7,
                "worker died",
            )
        )
        telemetry = CampaignTelemetry()
        with journal, pytest.raises(InjectionError, match="does not match"):
            run_injection_plan(
                image,
                {Component.REGFILE: faults},
                journal=journal,
                telemetry=telemetry,
            )
        assert telemetry.quarantined == 0


class TestAccelerationEquivalence:
    """Translation and COW restores must be invisible in every effect.

    The engine settings are excluded from the campaign cache key on
    exactly this guarantee, so it is pinned here at campaign granularity:
    the accelerated engine (default) and the reference engine
    (interpreter-only, full restores) must produce byte-identical
    per-fault effects at any worker count.
    """

    @pytest.fixture(scope="class")
    def plan(self, golden):
        return {
            component: generate_faults(
                component,
                component_bits(SCALED_A9_CONFIG, component),
                golden.cycles,
                count=4,
                seed=23,
            )
            for component in COMPONENTS
        }

    @pytest.fixture(scope="class")
    def baseline_effects(self, workload, golden, snapshots, plan):
        image = MachineImage(
            workload.name, workload.program(SCALED_A9_CONFIG.layout),
            SCALED_A9_CONFIG, golden.cycles, golden.output, snapshots,
            engine=dataclasses.replace(BARE, translate=False),
        )
        return run_injection_plan(image, plan, jobs=1)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_accelerated_effects_are_byte_identical(
        self, workload, golden, snapshots, plan, baseline_effects, jobs
    ):
        image = MachineImage(
            workload.name, workload.program(SCALED_A9_CONFIG.layout),
            SCALED_A9_CONFIG, golden.cycles, golden.output, snapshots,
            engine=BARE,
        )
        assert run_injection_plan(image, plan, jobs=jobs) == baseline_effects

    def test_knobs_do_not_change_the_cache_key(self):
        crc32 = get_workload("CRC32")
        base = CampaignConfig()
        assert base.engine == EngineOptions()
        changes = {}
        for option in dataclasses.fields(EngineOptions):
            default = getattr(base.engine, option.name)
            value = not default if isinstance(default, bool) else default + 3
            changes[option.name] = value
            changed = dataclasses.replace(base, **{option.name: value})
            assert getattr(changed.engine, option.name) == value
            assert changed.cache_key(crc32) == base.cache_key(crc32), (
                option.name
            )
        every = dataclasses.replace(base, **changes)
        assert every.cache_key(crc32) == base.cache_key(crc32)


#: Short codes whose fault-free work is compared across the two engines.
GOLDEN_CODES = ("StringSearch", "MatMul", "CRC32")


def _restored_digests(workload, snapshots) -> list[bytes]:
    machine = SCALED_A9_CONFIG
    system = System(workload.program(machine.layout), config=machine)
    digests = []
    for snapshot in snapshots:
        snapshot.restore(system)
        digests.append(system_digest(system))
    return digests


@pytest.mark.parametrize("name", GOLDEN_CODES)
def test_golden_work_is_identical_on_both_engines(name):
    """Golden and capture runs follow ``translate`` without changing a bit."""
    workload = get_workload(name)
    observed = {}
    for translate in (False, True):
        golden = run_golden(workload, SCALED_A9_CONFIG, translate=translate)
        snapshots, digests, arch_digests, _, _ = record_golden_observables(
            workload, SCALED_A9_CONFIG, golden, translate=translate
        )
        observed[translate] = (
            golden.cycles,
            golden.output,
            golden.counters.to_dict(),
            _restored_digests(workload, snapshots),
            digests,
            arch_digests,
        )
    assert observed[True] == observed[False]


@pytest.fixture
def attached(monkeypatch):
    """Systems given a translator, through either import of the attach."""
    systems = []

    def counting_attach(system, **kwargs):
        systems.append(system)
        return original(system, **kwargs)

    original = translate_module.attach_translator
    monkeypatch.setattr(translate_module, "attach_translator", counting_attach)
    monkeypatch.setattr(parallel_module, "attach_translator", counting_attach)
    return systems


class TestGoldenEngineSelection:
    """``translate=False`` is the pure reference engine on every
    fault-free path; translated golden runs detach when they finish."""

    CONFIG = CampaignConfig(faults_per_component=FAULTS, seed=5)

    def test_reference_prepare_image_attaches_nothing(self, workload, attached):
        config = dataclasses.replace(self.CONFIG, translate=False)
        _golden, image = prepare_image(workload, config)
        assert image.snapshots and image.digests
        assert attached == []

    def test_translated_golden_runs_detach(self, workload, attached):
        prepare_image(workload, self.CONFIG)
        assert len(attached) == 2  # golden run + capture run
        assert all(system.core.translator is None for system in attached)

    def test_activity_capture_stays_interpreted(self, workload, attached):
        config = dataclasses.replace(
            self.CONFIG, target_margin=0.1, learned_sampling=True
        )
        _golden, image = prepare_image(workload, config)
        assert image.activity is not None
        assert len(attached) == 1  # the golden run only

    @pytest.mark.parametrize("translate", [False, True])
    def test_fabric_anchor_golden_follows_translate(
        self, workload, attached, monkeypatch, translate
    ):
        from repro.fabric.client import FabricClient

        class Submitted(Exception):
            pass

        def submit(self, spec, span=None):
            raise Submitted

        monkeypatch.setattr(FabricClient, "submit", submit)
        config = dataclasses.replace(self.CONFIG, translate=translate)
        with pytest.raises(Submitted):
            FabricClient("http://127.0.0.1:9").run_workload(
                workload, config, COMPONENTS
            )
        assert len(attached) == int(translate)


@pytest.mark.slow
class TestSerialParallelEquivalence:
    """Acceptance: byte-identical campaign output for jobs in {1, 2, 4}."""

    @pytest.fixture(scope="class")
    def per_jobs_results(self, tmp_path_factory, workload):
        results = {}
        for jobs in (1, 2, 4):
            campaign = InjectionCampaign(
                CampaignConfig(faults_per_component=FAULTS, seed=5, jobs=jobs),
                cache_dir=tmp_path_factory.mktemp(f"jobs{jobs}"),
            )
            results[jobs] = campaign.run_workload(
                workload, components=COMPONENTS
            )
        return results

    def test_byte_identical_across_worker_counts(self, per_jobs_results):
        serial = per_jobs_results[1].to_dict()
        assert per_jobs_results[2].to_dict() == serial
        assert per_jobs_results[4].to_dict() == serial

    def test_identical_component_counts(self, per_jobs_results):
        for jobs in (2, 4):
            for component in COMPONENTS:
                assert (
                    per_jobs_results[jobs].components[component].counts
                    == per_jobs_results[1].components[component].counts
                )

    def test_all_injections_accounted(self, per_jobs_results):
        for result in per_jobs_results.values():
            for component in COMPONENTS:
                tally = result.components[component]
                assert tally.injections == FAULTS
                assert sum(tally.counts.values()) == FAULTS


class TestKillReleasesDescriptors:
    """Regression: ``_WorkerHandle.kill()`` must close the supervisor's
    pipe ends (and the process sentinel).  Every timeout/death reap
    replaces the worker with a fresh handle, so a kill that leaked its
    descriptors cost fds per death - enough to hit the fd ceiling on
    long quarantine-heavy campaigns."""

    @staticmethod
    def _open_fds() -> int:
        return len(os.listdir("/proc/self/fd"))

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs procfs"
    )
    def test_fd_count_stable_across_repeated_kills(self, image):
        from repro.injection.parallel import _WorkerHandle, _pool_context

        ctx = _pool_context()
        # Warm-up: the first spawn can lazily open interpreter-level fds
        # (multiprocessing semaphores, etc.) that are not per-handle.
        warm = _WorkerHandle(ctx, image, worker_id=0)
        warm.kill()
        handles = []
        before = self._open_fds()
        for worker_id in range(5):
            handle = _WorkerHandle(ctx, image, worker_id=worker_id + 1)
            handle.kill()
            handles.append(handle)  # keep alive: no GC-based cleanup
        assert self._open_fds() == before
        assert handles  # the handles themselves survived, only fds closed
