"""Crash-safety of the injection farm: journal resume, worker death,
timeouts, retry, quarantine, and completeness validation.

Acceptance bar: a campaign killed mid-run (SIGKILL on the parent or on a
worker) resumes from its journal and produces bit-identical
``WorkloadResult`` tallies to an uninterrupted run, for any ``jobs``
value; an unfilled effect slot can never reach ``ComponentResult``.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.errors import InjectionError
from repro.injection.campaign import (
    CampaignConfig,
    InjectionCampaign,
    record_golden_observables,
    run_golden,
)
from repro.injection.classify import FaultEffect
from repro.injection.components import Component, component_bits
from repro.injection.fault import generate_faults
from repro.injection.journal import (
    InjectionJournal,
    JournalMeta,
    QuarantineRecord,
    RecordBuffer,
    read_journal,
)
from repro.injection.parallel import (
    EngineOptions,
    ImageInjector,
    MachineImage,
    _validate_effects,
    run_injection_plan,
)
from repro.injection.telemetry import CampaignTelemetry
from repro.microarch.config import SCALED_A9_CONFIG
from repro.workloads import get_workload

WORKLOAD = "StringSearch"
COMPONENTS = (Component.REGFILE, Component.DTLB)
FAULTS = 6

try:
    multiprocessing.get_context("fork")
    _HAVE_FORK = True
except ValueError:  # pragma: no cover - non-POSIX platforms
    _HAVE_FORK = False

requires_fork = pytest.mark.skipif(
    not _HAVE_FORK, reason="worker-kill tests patch via fork inheritance"
)


@pytest.fixture(scope="module")
def workload():
    return get_workload(WORKLOAD)


@pytest.fixture(scope="module")
def golden(workload):
    return run_golden(workload, SCALED_A9_CONFIG)


@pytest.fixture(scope="module")
def image(workload, golden):
    snapshots, _, _, _, _ = record_golden_observables(
        workload, SCALED_A9_CONFIG, golden, snapshot_count=4, digest_count=0
    )
    return MachineImage(
        workload.name, workload.program(SCALED_A9_CONFIG.layout),
        SCALED_A9_CONFIG, golden.cycles, golden.output, snapshots,
        engine=EngineOptions(lifetime_events=False),
    )


@pytest.fixture(scope="module")
def plan(golden):
    return {
        component: generate_faults(
            component,
            component_bits(SCALED_A9_CONFIG, component),
            golden.cycles,
            count=FAULTS,
            seed=5,
        )
        for component in COMPONENTS
    }


@pytest.fixture(scope="module")
def reference(image, plan):
    """Uninterrupted serial run: the ground truth every path must match."""
    return run_injection_plan(image, plan, jobs=1)


def make_meta(golden):
    return JournalMeta(
        workload=WORKLOAD,
        machine=SCALED_A9_CONFIG.name,
        faults_per_component=FAULTS,
        seed=5,
        cluster_size=1,
        golden_cycles=golden.cycles,
    )


def slot_table(plan):
    """``run_injection_plan``'s slot table of a head-of-stream plan."""
    return [
        (component, index, fault)
        for component, faults in plan.items()
        for index, fault in enumerate(faults)
    ]


class TestCompletenessValidation:
    """An unfilled effect slot must raise, never reach the tallies."""

    def test_unfilled_slot_raises(self, plan):
        slots = slot_table(plan)
        ends = [FaultEffect.MASKED] * len(slots)
        fault = plan[Component.REGFILE][3]
        ends[slots.index((Component.REGFILE, 3, fault))] = None
        with pytest.raises(InjectionError, match=r"REGFILE\[3\]"):
            _validate_effects("X", slots, ends)

    def test_quarantined_slot_is_excused(self, plan):
        slots = slot_table(plan)
        ends = [FaultEffect.MASKED] * len(slots)
        fault = plan[Component.REGFILE][3]
        ends[slots.index((Component.REGFILE, 3, fault))] = (
            QuarantineRecord.from_fault(Component.REGFILE, 3, fault, "boom")
        )
        _validate_effects("X", slots, ends)

    def test_complete_plan_passes(self, plan, reference):
        _validate_effects(
            "X",
            slot_table(plan),
            [effect for effects in reference.values() for effect in effects],
        )


class TestJournalResume:
    """Replaying a killed campaign's journal restores identical tallies."""

    def _journaled_run(self, image, plan, golden, path, jobs, telemetry=None):
        journal = InjectionJournal.open(path, make_meta(golden))
        try:
            return run_injection_plan(
                image, plan, jobs=jobs, journal=journal, telemetry=telemetry
            )
        finally:
            journal.close()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_kill_and_resume_is_bit_identical(
        self, image, plan, golden, reference, tmp_path, jobs
    ):
        """Simulated SIGKILL: the journal survives as a prefix plus a
        partial trailing line; resuming completes only the missing
        faults and matches the uninterrupted run exactly."""
        path = tmp_path / "campaign.jsonl"
        self._journaled_run(image, plan, golden, path, jobs)
        lines = path.read_bytes().split(b"\n")
        # Keep meta + 5 records, then a torn append - what a kill leaves.
        path.write_bytes(b"\n".join(lines[:6]) + b"\n" + b'{"type":"injec')

        telemetry = CampaignTelemetry()
        resumed = self._journaled_run(
            image, plan, golden, path, jobs, telemetry=telemetry
        )
        assert resumed == reference
        assert telemetry.replayed == 5
        assert telemetry.completed == sum(len(f) for f in plan.values())
        _meta, records, _q = read_journal(path)
        assert len(records) == sum(len(f) for f in plan.values())

    def test_interrupted_parallel_run_resumes(
        self, image, plan, golden, reference, tmp_path
    ):
        """An exception mid-farm (stand-in for ctrl-C) leaves a valid
        journal; the next run finishes the remainder."""
        path = tmp_path / "campaign.jsonl"

        class Interrupt(RuntimeError):
            pass

        seen = []

        def tripwire(message):
            seen.append(message)
            if any("10/" in m or "6/6" in m for m in seen):
                raise Interrupt(message)

        with pytest.raises(Interrupt):
            journal = InjectionJournal.open(path, make_meta(golden))
            try:
                run_injection_plan(
                    image, plan, jobs=2, journal=journal, progress=tripwire
                )
            finally:
                journal.close()

        telemetry = CampaignTelemetry()
        resumed = self._journaled_run(
            image, plan, golden, path, 2, telemetry=telemetry
        )
        assert resumed == reference
        assert telemetry.replayed >= 6

    def test_fully_complete_journal_dispatches_nothing(
        self, image, plan, golden, reference, tmp_path
    ):
        path = tmp_path / "campaign.jsonl"
        self._journaled_run(image, plan, golden, path, jobs=2)
        telemetry = CampaignTelemetry()
        resumed = self._journaled_run(
            image, plan, golden, path, jobs=2, telemetry=telemetry
        )
        assert resumed == reference
        assert telemetry.live_completed == 0
        assert telemetry.replayed == sum(len(f) for f in plan.values())

    def test_drifted_journal_record_is_rejected(
        self, image, plan, golden, tmp_path
    ):
        """A journal whose bits/cycles do not match the regenerated fault
        list (seed or simulator drift) must not corrupt the tallies."""
        path = tmp_path / "campaign.jsonl"
        journal = InjectionJournal.create(path, make_meta(golden))
        from repro.injection.journal import InjectionRecord

        fault = plan[Component.REGFILE][0]
        journal.record(
            InjectionRecord(
                component=Component.REGFILE,
                index=0,
                bit_index=fault.bit_index + 1,  # drifted
                cycle=fault.cycle,
                effect=FaultEffect.MASKED,
                wall_time=0.0,
            )
        )
        with pytest.raises(InjectionError, match="does not match"):
            run_injection_plan(image, plan, jobs=1, journal=journal)
        journal.close()


@requires_fork
class TestWorkerDeath:
    """Worker kills are detected, retried, and bounded by quarantine."""

    def _arm_killer(self, monkeypatch, target, sentinel=None):
        real = ImageInjector.run_fault_ex

        def killer(self, fault):
            if fault == target:
                if sentinel is None:
                    os._exit(42)
                if not sentinel.exists():
                    sentinel.touch()
                    os._exit(42)
            return real(self, fault)

        monkeypatch.setattr(ImageInjector, "run_fault_ex", killer)

    def test_transient_death_is_retried_to_completion(
        self, image, plan, golden, reference, tmp_path, monkeypatch
    ):
        target = plan[Component.REGFILE][2]
        self._arm_killer(monkeypatch, target, sentinel=tmp_path / "died-once")
        telemetry = CampaignTelemetry()
        effects = run_injection_plan(image, plan, jobs=2, telemetry=telemetry)
        assert effects == reference
        assert telemetry.worker_deaths == 1
        assert telemetry.retries == 1
        assert telemetry.quarantined == 0

    def test_persistent_killer_is_quarantined_and_reported(
        self, image, plan, reference, monkeypatch
    ):
        target = plan[Component.REGFILE][2]
        self._arm_killer(monkeypatch, target)
        telemetry = CampaignTelemetry()
        buffer = RecordBuffer()
        effects = run_injection_plan(
            image,
            plan,
            jobs=2,
            max_retries=1,
            journal=buffer,
            telemetry=telemetry,
        )
        assert len(buffer.quarantines) == 1
        entry = buffer.quarantines[0]
        assert entry.component is Component.REGFILE
        assert entry.index == 2
        assert "died" in entry.reason
        assert telemetry.worker_deaths == 2  # initial attempt + one retry
        # Every other slot matches the reference; the quarantined slot is
        # explicitly empty, not mis-tallied.
        assert effects[Component.REGFILE][2] is None
        assert effects[Component.DTLB] == reference[Component.DTLB]
        for index, effect in enumerate(reference[Component.REGFILE]):
            if index != 2:
                assert effects[Component.REGFILE][index] == effect

    @requires_fork
    def test_worker_renews_a_machine_that_raised(
        self, image, plan, reference, tmp_path, monkeypatch
    ):
        """A worker whose machine raised serves its later faults (the
        retry included) on a fresh machine, never on the one that
        raised."""
        target = plan[Component.REGFILE][2]
        log = tmp_path / "machines.log"
        raised = tmp_path / "raised-once"
        real = ImageInjector.run_fault_ex

        def spy(self, fault):
            boom = fault == target and not raised.exists()
            with log.open("a") as out:
                out.write(f"{os.getpid()} {id(self.system)} {int(boom)}\n")
            if boom:
                raised.touch()
                raise RuntimeError("boom")
            return real(self, fault)

        monkeypatch.setattr(ImageInjector, "run_fault_ex", spy)
        effects = run_injection_plan(image, plan, jobs=2)
        assert effects == reference
        calls = [line.split() for line in log.read_text().splitlines()]
        position = next(i for i, call in enumerate(calls) if call[2] == "1")
        pid, poisoned, _ = calls[position]
        later = [call[1] for call in calls[position + 1 :] if call[0] == pid]
        assert later and poisoned not in later

    def test_timeout_kills_stuck_worker(
        self, image, plan, monkeypatch
    ):
        target = plan[Component.DTLB][1]
        real = ImageInjector.run_fault_ex

        def stall(self, fault):
            if fault == target:
                time.sleep(60)
            return real(self, fault)

        monkeypatch.setattr(ImageInjector, "run_fault_ex", stall)
        telemetry = CampaignTelemetry()
        buffer = RecordBuffer()
        start = time.monotonic()
        run_injection_plan(
            image,
            plan,
            jobs=2,
            timeout=1.0,
            max_retries=0,
            journal=buffer,
            telemetry=telemetry,
        )
        assert time.monotonic() - start < 30
        assert telemetry.timeouts == 1
        assert len(buffer.quarantines) == 1
        assert "timed out" in buffer.quarantines[0].reason

    def test_quarantine_survives_resume(
        self, image, plan, golden, tmp_path, monkeypatch
    ):
        """A quarantine is journaled; resuming does not retry the fault
        silently, and still reports it."""
        target = plan[Component.REGFILE][2]
        self._arm_killer(monkeypatch, target)
        path = tmp_path / "campaign.jsonl"
        journal = InjectionJournal.create(path, make_meta(golden))
        run_injection_plan(image, plan, jobs=2, max_retries=0, journal=journal)
        journal.close()
        monkeypatch.undo()

        journal = InjectionJournal.resume(path, make_meta(golden))
        telemetry = CampaignTelemetry()
        effects = run_injection_plan(
            image, plan, jobs=2, journal=journal, telemetry=telemetry
        )
        journal.close()
        assert [entry.index for entry in journal.quarantines] == [2]
        assert telemetry.quarantined_by == {Component.REGFILE: 1}
        assert telemetry.live_completed == 0
        assert effects[Component.REGFILE][2] is None


class TestQuarantineReporting:
    """Progress lines and errors name a fault by its stream index, and a
    campaign reports each quarantined fault exactly once."""

    @staticmethod
    def _arm_raiser(monkeypatch, target):
        real = ImageInjector.run_fault_ex

        def raiser(self, fault):
            if fault == target:
                raise RuntimeError("boom")
            return real(self, fault)

        monkeypatch.setattr(ImageInjector, "run_fault_ex", raiser)

    @pytest.fixture
    def window(self, golden):
        stream = generate_faults(
            Component.REGFILE,
            component_bits(SCALED_A9_CONFIG, Component.REGFILE),
            golden.cycles,
            count=12,
            seed=5,
        )
        return {Component.REGFILE: stream[10:12]}

    def test_windowed_plan_names_the_stream_index(
        self, image, window, monkeypatch
    ):
        self._arm_raiser(monkeypatch, window[Component.REGFILE][1])
        messages = []
        buffer = RecordBuffer()
        run_injection_plan(
            image,
            window,
            max_retries=1,
            progress=messages.append,
            journal=buffer,
            indices={Component.REGFILE: range(10, 12)},
        )
        assert [entry.index for entry in buffer.quarantines] == [11]
        assert any("retrying fault 11 " in line for line in messages)
        assert any("quarantined fault 11 " in line for line in messages)
        assert not any("fault 1 " in line for line in messages), messages

    @pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=requires_fork)])
    def test_one_failure_policy_for_both_executors(
        self, image, plan, reference, jobs, monkeypatch
    ):
        """A fault that raises on every attempt is retried ``max_retries``
        times and then quarantined, identically in-process and on the
        farm."""
        target = plan[Component.REGFILE][2]
        self._arm_raiser(monkeypatch, target)
        buffer = RecordBuffer()
        telemetry = CampaignTelemetry()
        effects = run_injection_plan(
            image,
            plan,
            jobs=jobs,
            max_retries=2,
            journal=buffer,
            telemetry=telemetry,
        )
        assert effects[Component.REGFILE][2] is None
        assert [
            (entry.component, entry.index, entry.bit_index, entry.cycle,
             entry.reason)
            for entry in buffer.quarantines
        ] == [
            (Component.REGFILE, 2, target.bit_index, target.cycle,
             "raised RuntimeError: boom")
        ]
        assert telemetry.retries == 2
        assert telemetry.quarantined == 1
        for component, effects_of in reference.items():
            for index, effect in enumerate(effects_of):
                if (component, index) != (Component.REGFILE, 2):
                    assert effects[component][index] == effect

    def test_quarantine_without_journal_or_telemetry_is_reported(
        self, image, window, monkeypatch
    ):
        """With neither a journal nor telemetry, a quarantine still comes
        back as a ``None`` slot and a progress line - never silently."""
        self._arm_raiser(monkeypatch, window[Component.REGFILE][1])
        messages = []
        effects = run_injection_plan(
            image,
            window,
            max_retries=0,
            progress=messages.append,
            indices={Component.REGFILE: range(10, 12)},
        )
        assert effects[Component.REGFILE][1] is None
        assert effects[Component.REGFILE][0] is not None
        assert any(
            "quarantined fault 11 (raised RuntimeError: boom)" in line
            for line in messages
        ), messages

    def test_campaign_reports_a_quarantine_once(
        self, workload, golden, monkeypatch, tmp_path
    ):
        config = CampaignConfig(faults_per_component=3, seed=5, max_retries=0)
        target = generate_faults(
            Component.REGFILE,
            component_bits(SCALED_A9_CONFIG, Component.REGFILE),
            golden.cycles,
            count=3,
            seed=5,
        )[1]
        self._arm_raiser(monkeypatch, target)
        messages = []
        InjectionCampaign(
            config, cache_dir=tmp_path, progress=messages.append
        ).run_workload(workload, components=(Component.REGFILE,))
        reports = [line for line in messages if "quarantined" in line]
        assert len(reports) == 1, reports
        assert "fault 1 " in reports[0]


@pytest.mark.slow
class TestCampaignLevelResilience:
    """End-to-end: InjectionCampaign with journal_dir/resume."""

    def test_sigkilled_campaign_resumes_bit_identical(
        self, workload, tmp_path
    ):
        """SIGKILL the whole campaign process mid-run, then resume: the
        final WorkloadResult is bit-identical to an uninterrupted one."""
        config = CampaignConfig(faults_per_component=8, seed=5, jobs=2)
        expected = InjectionCampaign(config).run_workload(
            workload, components=COMPONENTS, use_cache=False
        )

        journal_dir = tmp_path / "journal"
        ctx = multiprocessing.get_context("fork") if _HAVE_FORK else (
            multiprocessing.get_context()
        )

        def victim():
            InjectionCampaign(
                config, journal_dir=journal_dir, resume=True
            ).run_workload(workload, components=COMPONENTS, use_cache=False)

        process = ctx.Process(target=victim)
        process.start()
        # Kill once the journal shows real progress (mid-campaign).
        journal_path = journal_dir / (
            config.cache_key(workload) + ".jsonl"
        )
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline and process.is_alive():
            if journal_path.exists() and journal_path.read_bytes().count(
                b'"injection"'
            ) >= 3:
                break
            time.sleep(0.02)
        process.kill()
        process.join(timeout=30)

        telemetry = CampaignTelemetry()
        resumed = InjectionCampaign(
            config, journal_dir=journal_dir, resume=True, telemetry=telemetry
        ).run_workload(workload, components=COMPONENTS, use_cache=False)
        assert resumed.to_dict() == expected.to_dict()

    def test_resume_with_changed_config_is_refused(self, workload, tmp_path):
        journal_dir = tmp_path / "journal"
        config = CampaignConfig(faults_per_component=3, seed=5)
        InjectionCampaign(config, journal_dir=journal_dir).run_workload(
            workload, components=(Component.REGFILE,), use_cache=False
        )
        # Same cache key (same n/seed/machine/cluster) but the golden
        # duration is fingerprinted too - simulate drift by rewriting it.
        journal_path = journal_dir / (config.cache_key(workload) + ".jsonl")
        lines = journal_path.read_text().splitlines()
        import json as _json

        meta = _json.loads(lines[0])
        meta["golden_cycles"] += 1
        lines[0] = _json.dumps(meta)
        journal_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InjectionError, match="different campaign"):
            InjectionCampaign(
                config, journal_dir=journal_dir, resume=True
            ).run_workload(workload, components=(Component.REGFILE,), use_cache=False)

    @requires_fork
    def test_quarantine_excluded_from_component_tallies(
        self, workload, golden, monkeypatch, tmp_path
    ):
        """A quarantined fault shrinks ``injections`` and is carried in
        ``ComponentResult.quarantined`` - never tallied as an effect."""
        config = CampaignConfig(
            faults_per_component=4, seed=5, jobs=2, max_retries=0
        )
        target = generate_faults(
            Component.REGFILE,
            component_bits(SCALED_A9_CONFIG, Component.REGFILE),
            golden.cycles,
            count=4,
            seed=5,
        )[1]
        real = ImageInjector.run_fault_ex

        def killer(self, fault):
            if fault == target:
                os._exit(42)
            return real(self, fault)

        monkeypatch.setattr(ImageInjector, "run_fault_ex", killer)
        result = InjectionCampaign(config, cache_dir=tmp_path).run_workload(
            workload, components=(Component.REGFILE,)
        )
        tally = result.components[Component.REGFILE]
        assert tally.quarantined == 1
        assert tally.injections == 3
        assert sum(tally.counts.values()) == 3
        assert None not in tally.counts
        # Serialization round-trips the quarantine count.
        from repro.injection.campaign import ComponentResult

        clone = ComponentResult.from_dict(tally.to_dict())
        assert clone.quarantined == 1
        assert clone.injections == 3
