"""Early Masked termination: pruned runs must be bit-identical to full runs.

The tentpole guarantee: for every fault, the classified effect with
``early_exit`` on equals the effect with it off - the digest-convergence
and dead-cell prunings only change *when* a run stops, never *what* it is.
This suite checks that per-fault across every component, two workloads,
and the single-bit and multi-cell (cluster 2 and 4) fault models, plus the
plumbing around it: termination accounting in results, telemetry, the
journal, and the rendered report.
"""

from __future__ import annotations

import random
import struct

import pytest

from repro.injection.campaign import (
    CampaignConfig,
    InjectionCampaign,
    record_golden_observables,
    run_golden,
)
from repro.injection.classify import FaultEffect
from repro.injection.components import Component, component_bits
from repro.injection.fault import Fault, generate_faults
from repro.injection.journal import (
    InjectionJournal,
    InjectionRecord,
    JournalMeta,
    read_journal,
)
from repro.injection.parallel import (
    ENDED_DEAD_CELL,
    ENDED_DIGEST,
    ENDED_FULL,
    EngineOptions,
    ImageInjector,
    InjectionResult,
    MachineImage,
    run_injection_plan,
)
from repro.injection.telemetry import CampaignTelemetry
from repro.analysis.report import telemetry_table
from repro.kernel.layout import DEFAULT_LAYOUT
from repro.microarch.config import SCALED_A9_CONFIG
from repro.microarch.digest import arch_digest
from repro.microarch.regfile import ARCH_REGS
from repro.microarch.system import System
from repro.microarch.translate import translated
from repro.workloads import get_workload
from tests.injection.records import outcome

MACHINE = SCALED_A9_CONFIG
WORKLOAD_NAMES = ("StringSearch", "MatMul")


@pytest.fixture(scope="module", params=WORKLOAD_NAMES)
def prepared(request):
    """(workload, golden, snapshots, digests) for each equivalence workload."""
    workload = get_workload(request.param)
    golden = run_golden(workload, MACHINE)
    snapshots, digests, _, _, _ = record_golden_observables(
        workload, MACHINE, golden, snapshot_count=6, digest_count=16
    )
    return workload, golden, snapshots, digests


def _image_pair(prepared, cluster_size: int):
    workload, golden, snapshots, digests = prepared
    pruned = MachineImage(
        workload.name, workload.program(MACHINE.layout),
        MACHINE, golden.cycles, golden.output, snapshots,
        cluster_size=cluster_size, digests=digests,
        engine=EngineOptions(early_exit=True, lifetime_events=False),
    )
    full = MachineImage(
        workload.name, workload.program(MACHINE.layout),
        MACHINE, golden.cycles, golden.output, snapshots,
        cluster_size=cluster_size,
        engine=EngineOptions(early_exit=False, lifetime_events=False),
    )
    return pruned, full


class TestPerFaultEquivalence:
    @pytest.mark.parametrize("cluster_size", [1, 2, 4])
    def test_effects_identical_for_every_component(
        self, prepared, cluster_size
    ):
        _workload, golden, _snapshots, _digests = prepared
        pruned_image, full_image = _image_pair(prepared, cluster_size)
        pruned, full = ImageInjector(pruned_image), ImageInjector(full_image)
        dead_cell = set()
        for component in Component:
            faults = generate_faults(
                component,
                component_bits(MACHINE, component),
                golden.cycles,
                count=5,
                seed=17 + cluster_size,
            )
            for fault in faults:
                result = pruned.run_fault_ex(fault)
                reference = full.run_fault_ex(fault)
                assert reference.ended_by == ENDED_FULL
                assert reference.cycles_saved == 0
                assert result.effect is reference.effect, (
                    f"{component.name} cluster={cluster_size} {fault}: "
                    f"pruned={result.effect} (via {result.ended_by}) "
                    f"full={reference.effect}"
                )
                # The dead-cell rule fires exactly on unobservable sites.
                assert result.site == reference.site
                assert (result.ended_by == ENDED_DEAD_CELL) is (
                    not result.site.live
                )
                if result.ended_by == ENDED_DEAD_CELL:
                    dead_cell.add(component)
        # Rename slots, invalid TLB entries and TLB attribute bits are
        # common enough that every plan of these components meets them.
        assert {Component.REGFILE, Component.DTLB, Component.ITLB} <= dead_cell

    def test_early_terminations_are_masked_and_account_savings(self, prepared):
        _workload, golden, _snapshots, _digests = prepared
        pruned_image, _full = _image_pair(prepared, 1)
        injector = ImageInjector(pruned_image)
        ended = set()
        for component in (Component.L2, Component.L1I, Component.DTLB):
            for fault in generate_faults(
                component,
                component_bits(MACHINE, component),
                golden.cycles,
                count=8,
                seed=23,
            ):
                result = injector.run_fault_ex(fault)
                ended.add(result.ended_by)
                if result.ended_by != ENDED_FULL:
                    assert result.effect is FaultEffect.MASKED
                    assert 0 < result.cycles_saved <= golden.cycles
                else:
                    assert result.cycles_saved == 0
        # Masked-heavy components must actually exercise the pruning.
        assert ended & {ENDED_DIGEST, ENDED_DEAD_CELL}


class TestClusterStraddle:
    def test_straddling_cluster_is_not_short_circuited(self, prepared):
        """A cluster with one bit in a valid line must run, not prune.

        Constructed from the machine state at a golden checkpoint: find a
        flat bit index whose own line is invalid but whose 2-bit cluster
        reaches into a valid line; the dead-cell short-circuit must leave
        it alone, and the effect must match the unpruned run.
        """
        workload, golden, snapshots, digests = prepared
        probe = System(workload.program(DEFAULT_LAYOUT), config=MACHINE)
        snapshot = snapshots[len(snapshots) // 2]
        snapshot.restore(probe)
        cache = probe.l2
        line_bits = cache.line_size * 8
        bit_index = next(
            (
                index * line_bits + line_bits - 1
                for index in range(cache.data_bits // line_bits - 1)
                if not cache.line_at(index * line_bits).valid
                and cache.line_at((index + 1) * line_bits).valid
            ),
            None,
        )
        assert bit_index is not None, "no invalid/valid line pair found"
        assert not cache.observable(bit_index)
        assert cache.observable(bit_index + 1)

        fault = Fault(Component.L2, bit_index, snapshot.cycle)
        pruned_image, full_image = _image_pair(prepared, 2)
        result = ImageInjector(pruned_image).run_fault_ex(fault)
        reference = ImageInjector(full_image).run_fault_ex(fault)
        assert result.ended_by != ENDED_DEAD_CELL
        assert result.effect is reference.effect

    def test_fully_dead_cluster_is_short_circuited(self, prepared):
        workload, golden, snapshots, _digests = prepared
        probe = System(workload.program(DEFAULT_LAYOUT), config=MACHINE)
        snapshot = snapshots[len(snapshots) // 2]
        snapshot.restore(probe)
        cache = probe.l2
        line_bits = cache.line_size * 8
        bit_index = next(
            (
                index * line_bits
                for index in range(cache.data_bits // line_bits - 1)
                if not cache.line_at(index * line_bits).valid
                and not cache.line_at((index + 1) * line_bits).valid
            ),
            None,
        )
        assert bit_index is not None, "no adjacent invalid line pair found"
        fault = Fault(Component.L2, bit_index, snapshot.cycle)
        pruned_image, full_image = _image_pair(prepared, 2)
        result = ImageInjector(pruned_image).run_fault_ex(fault)
        assert result.ended_by == ENDED_DEAD_CELL
        assert result.effect is FaultEffect.MASKED
        reference = ImageInjector(full_image).run_fault_ex(fault)
        assert reference.effect is FaultEffect.MASKED


class TestDeadStateSoundness:
    """The dead state the rule prunes is dead: scrambling all of it at a
    mid-run checkpoint leaves the run to exit bit-identical to golden."""

    @staticmethod
    def _scramble(system, rng) -> int:
        """Randomize every rename slot and every field of every invalid
        TLB entry; returns how many invalid TLB entries there were."""
        rf = system.rf
        for reg in range(ARCH_REGS, rf.n_int):
            rf.int_regs[reg] = rng.getrandbits(32)
        for reg in range(ARCH_REGS, rf.n_fp):
            rf.fp_regs[reg] = struct.unpack(
                "<d", rng.getrandbits(64).to_bytes(8, "little")
            )[0]
        invalid = 0
        for tlb in (system.itlb, system.dtlb):
            for entry in tlb.entries:
                if not entry.valid:
                    entry.vpn = rng.getrandbits(20)
                    entry.ppn = rng.getrandbits(20)
                    entry.perms = rng.getrandbits(5)
                    invalid += 1
        return invalid

    @pytest.mark.parametrize("name", ["StringSearch", "FFT"])
    @pytest.mark.parametrize("translate", [True, False])
    def test_scrambled_dead_state_runs_to_the_golden_exit(self, name, translate):
        workload = get_workload(name)
        golden = run_golden(workload, MACHINE)
        reference = System(workload.program(MACHINE.layout), config=MACHINE)
        reference.run(max_cycles=200_000_000)
        snapshots, _, _, _, _ = record_golden_observables(
            workload, MACHINE, golden, snapshot_count=4, digest_count=0
        )
        system = System(workload.program(MACHINE.layout), config=MACHINE)
        snapshots[len(snapshots) // 2].restore(system)
        assert self._scramble(system, random.Random(name)) > 0
        with translated(system, translate):
            result = system.run(max_cycles=200_000_000)
        assert result.cycles == golden.cycles
        assert result.output == golden.output
        assert result.exited_cleanly
        assert arch_digest(system) == arch_digest(reference)


class TestCampaignIntegration:
    def test_campaign_tallies_identical_with_and_without_early_exit(
        self, prepared, tmp_path
    ):
        workload, _golden, _snapshots, _digests = prepared
        results = {}
        for early_exit in (True, False):
            campaign = InjectionCampaign(
                CampaignConfig(
                    faults_per_component=4,
                    seed=7,
                    early_exit=early_exit,
                    digest_probes=12,
                ),
                cache_dir=tmp_path / f"cache-{early_exit}",
            )
            results[early_exit] = campaign.run_workload(
                workload, use_cache=False
            )
        on, off = results[True], results[False]
        assert on.golden_cycles == off.golden_cycles
        for component in Component:
            assert (
                on.components[component].counts
                == off.components[component].counts
            ), f"tallies diverge for {component.name}"

    @pytest.mark.parametrize("name", ["StringSearch", "CRC32"])
    def test_propagation_summary_identical_with_and_without_early_exit(
        self, name, tmp_path
    ):
        """The masking mechanism reads the strike site, so a dead-cell
        flip is never-read whether early exit stops it at the flip or
        the run goes on and refills the dead cell (a ``write-over``)."""
        propagation = {}
        for early_exit in (True, False):
            telemetry = CampaignTelemetry()
            InjectionCampaign(
                CampaignConfig(
                    faults_per_component=6, seed=1, early_exit=early_exit
                ),
                cache_dir=tmp_path / f"cache-{early_exit}",
                telemetry=telemetry,
            ).run_workload(get_workload(name), use_cache=False)
            propagation[early_exit] = telemetry.summary()["propagation"]
        assert propagation[True] == propagation[False]

    def test_early_exit_not_in_cache_key(self):
        base = CampaignConfig(faults_per_component=4, seed=7)
        pruned = CampaignConfig(
            faults_per_component=4, seed=7, early_exit=False, digest_probes=3
        )
        crc32 = get_workload("CRC32")
        assert base.cache_key(crc32) == pruned.cache_key(crc32)

    def test_plan_feeds_termination_telemetry(self, prepared):
        workload, golden, _snapshots, _digests = prepared
        pruned_image, _full = _image_pair(prepared, 1)
        plan = {
            Component.L2: generate_faults(
                Component.L2,
                component_bits(MACHINE, Component.L2),
                golden.cycles,
                count=8,
                seed=31,
            )
        }
        telemetry = CampaignTelemetry()
        effects = run_injection_plan(
            pruned_image, plan, jobs=1, telemetry=telemetry
        )
        assert len(effects[Component.L2]) == 8
        mechanisms = (
            telemetry.ended_full
            + telemetry.ended_digest
            + telemetry.ended_dead_cell
        )
        assert mechanisms == telemetry.completed == 8
        pruned_count = telemetry.ended_digest + telemetry.ended_dead_cell
        assert pruned_count > 0, "masked-heavy L2 plan should prune"
        assert telemetry.cycles_saved > 0
        assert "early-exit" in telemetry.progress_line()
        summary = telemetry.summary()
        assert summary["ended_by"]["full"] == telemetry.ended_full
        assert summary["cycles_saved"] == telemetry.cycles_saved
        rendered = telemetry_table(summary)
        assert "early exit" in rendered
        assert "digest-converged" in rendered

    def test_journal_replay_reproduces_live_termination_telemetry(
        self, prepared, tmp_path
    ):
        """``repro stats`` rebuilds telemetry from the journal alone, so
        the journal must carry each injection's cycles saved."""
        workload, golden, _snapshots, _digests = prepared
        pruned_image, _full = _image_pair(prepared, 1)
        plan = {
            Component.L2: generate_faults(
                Component.L2,
                component_bits(MACHINE, Component.L2),
                golden.cycles,
                count=8,
                seed=31,
            )
        }
        live = CampaignTelemetry()
        path = tmp_path / "journal.jsonl"
        meta = JournalMeta(workload.name, MACHINE.name, 8, 31, 1, golden.cycles)
        with InjectionJournal.create(path, meta) as journal:
            run_injection_plan(
                pruned_image, plan, jobs=1, journal=journal, telemetry=live
            )
        assert live.cycles_saved > 0
        _meta, records, quarantines = read_journal(path)
        replayed = CampaignTelemetry()
        replayed.replay(records, quarantines)
        assert replayed.cycles_saved == live.cycles_saved
        assert replayed.summary()["ended_by"] == live.summary()["ended_by"]

    def test_summary_without_pruning_renders_no_early_exit_line(self):
        telemetry = CampaignTelemetry()
        telemetry.register_plan(Component.L1D, 1)
        telemetry.record(outcome(Component.L1D, FaultEffect.SDC, 0.1))
        rendered = telemetry_table(telemetry.summary())
        assert "early exit" not in rendered


class TestJournalEndedBy:
    def test_record_round_trips_termination_mechanism(self):
        record = InjectionRecord(
            component=Component.L2,
            index=3,
            bit_index=99,
            cycle=1234,
            effect=FaultEffect.MASKED,
            wall_time=0.5,
            ended_by=ENDED_DIGEST,
            cycles_saved=4321,
        )
        assert record.to_line()["saved"] == 4321
        assert InjectionRecord.from_line(record.to_line()) == record

    def test_pre_early_exit_journal_lines_default_to_full(self):
        """Journals written before the fields existed must replay cleanly;
        a record that saved nothing writes no ``saved`` key."""
        line = InjectionRecord(
            component=Component.L1D,
            index=0,
            bit_index=1,
            cycle=2,
            effect=FaultEffect.SDC,
            wall_time=0.1,
        ).to_line()
        assert "saved" not in line
        del line["ended"]
        record = InjectionRecord.from_line(line)
        assert record.ended_by == ENDED_FULL
        assert record.cycles_saved == 0


class TestResultType:
    def test_injection_result_defaults(self):
        result = InjectionResult(FaultEffect.SDC)
        assert result.ended_by == ENDED_FULL
        assert result.cycles_saved == 0

    def test_image_pickles_with_digests(self, prepared):
        import pickle

        pruned_image, _full = _image_pair(prepared, 1)
        clone = pickle.loads(pickle.dumps(pruned_image))
        assert clone.digests == pruned_image.digests
        assert clone.engine.early_exit is True
