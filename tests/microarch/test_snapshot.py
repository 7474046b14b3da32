"""Snapshot/restore: checkpoint-accelerated runs must be bit-identical."""

from __future__ import annotations

import pickle

import pytest

from repro.injection.campaign import (
    record_golden_observables,
    run_golden,
    run_single_injection,
)
from repro.injection.components import Component, component_bits
from repro.injection.fault import generate_faults
from repro.kernel.layout import DEFAULT_LAYOUT
from repro.microarch.config import SCALED_A9_CONFIG
from repro.microarch.digest import system_digest
from repro.microarch.snapshot import DeltaRestorer, SystemSnapshot, best_snapshot
from repro.microarch.system import System
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def workload():
    return get_workload("Susan E")


@pytest.fixture(scope="module")
def golden(workload):
    return run_golden(workload, SCALED_A9_CONFIG)


@pytest.fixture(scope="module")
def snapshots(workload, golden):
    return record_golden_observables(
        workload, SCALED_A9_CONFIG, golden, snapshot_count=4, digest_count=0
    )[0]


class TestSnapshotMechanics:
    def test_snapshots_recorded_at_requested_cycles(self, snapshots, golden):
        assert len(snapshots) == 4
        assert all(s.cycle <= golden.cycles for s in snapshots)
        assert sorted(s.cycle for s in snapshots) == [s.cycle for s in snapshots]

    def test_best_snapshot_selection(self, snapshots):
        cycles = [s.cycle for s in snapshots]
        assert best_snapshot(snapshots, cycles[0] - 1) is None
        assert best_snapshot(snapshots, cycles[0]) is snapshots[0]
        assert best_snapshot(snapshots, cycles[-1] + 10) is snapshots[-1]

    def test_restored_run_completes_identically(self, workload, golden, snapshots):
        """Restore mid-run and finish: output and cycle count match golden."""
        system = System(workload.program(DEFAULT_LAYOUT), config=SCALED_A9_CONFIG)
        snapshots[1].restore(system)
        result = system.run(max_cycles=golden.cycles * 3)
        assert result.exited_cleanly
        assert result.output == golden.output
        assert result.cycles == golden.cycles

    def test_snapshot_of_snapshot_is_stable(self, workload, snapshots):
        system = System(workload.program(DEFAULT_LAYOUT), config=SCALED_A9_CONFIG)
        snapshots[0].restore(system)
        recopy = SystemSnapshot(system)
        assert recopy.cycle == snapshots[0].cycle


class TestSnapshotSerialization:
    """Pickle round-trip fidelity: the farm's non-fork fallback pickles
    machine images, so shipped snapshots must restore bit-exact."""

    def test_round_trip_preserves_every_field(self, snapshots):
        clones = pickle.loads(pickle.dumps(snapshots))
        assert len(clones) == len(snapshots)
        for original, clone in zip(snapshots, clones):
            assert clone is not original
            assert vars(clone) == vars(original)

    def test_restored_clone_completes_identically(self, workload, golden, snapshots):
        """A deserialized snapshot drives the machine exactly like the original."""
        clone = pickle.loads(pickle.dumps(snapshots))[2]
        system = System(workload.program(DEFAULT_LAYOUT), config=SCALED_A9_CONFIG)
        clone.restore(system)
        result = system.run(max_cycles=golden.cycles * 3)
        assert result.exited_cleanly
        assert result.output == golden.output
        assert result.cycles == golden.cycles

    def test_restore_from_clone_matches_restore_from_original(
        self, workload, snapshots
    ):
        clone = pickle.loads(pickle.dumps(snapshots))[0]
        a = System(workload.program(DEFAULT_LAYOUT), config=SCALED_A9_CONFIG)
        b = System(workload.program(DEFAULT_LAYOUT), config=SCALED_A9_CONFIG)
        snapshots[0].restore(a)
        clone.restore(b)
        assert vars(SystemSnapshot(a)) == vars(SystemSnapshot(b))


class TestRestoreDigestFidelity:
    """Restore-then-digest must reproduce the capture-time digest.

    Guards the compare-and-skip sweep in :meth:`SystemSnapshot.restore`
    and the page-granular :class:`DeltaRestorer`: any segment either one
    wrongly skips (or any stale memoized page digest) shows up as a
    digest mismatch here.
    """

    @pytest.fixture(scope="class")
    def captures(self, workload, golden):
        system = System(workload.program(DEFAULT_LAYOUT), config=SCALED_A9_CONFIG)
        pairs: list[tuple[SystemSnapshot, bytes]] = []

        def capture():
            pairs.append((SystemSnapshot(system), system_digest(system)))

        cycles = [golden.cycles // 4, golden.cycles // 2, 3 * golden.cycles // 4]
        system.run(
            max_cycles=golden.cycles * 3,
            events=[(cycle, capture) for cycle in cycles],
        )
        return pairs

    def test_full_restore_reproduces_capture_digest(self, workload, captures):
        system = System(workload.program(DEFAULT_LAYOUT), config=SCALED_A9_CONFIG)
        for snapshot, digest in captures:
            snapshot.restore(system)
            assert system_digest(system) == digest
            # Dirty the machine before the next restore so the
            # compare-and-skip sweep has real work to (not) skip.
            system.run(max_cycles=snapshot.cycle + 2000)

    def test_delta_restore_reproduces_capture_digest(self, workload, captures):
        system = System(workload.program(DEFAULT_LAYOUT), config=SCALED_A9_CONFIG)
        system.memory.enable_digest_cache()
        restorer = DeltaRestorer(system)
        # Revisit snapshots out of order: exercises the dirty-page path
        # (same snapshot twice) and the memoized snapshot-to-snapshot
        # page-diff path (switching between snapshots).
        for index in (0, 0, 1, 2, 0, 2):
            snapshot, digest = captures[index]
            restorer.restore(snapshot)
            assert system_digest(system) == digest
            system.run(max_cycles=snapshot.cycle + 2000)

    def test_delta_restore_matches_full_restore(self, workload, captures):
        snapshot, _digest = captures[1]
        full = System(workload.program(DEFAULT_LAYOUT), config=SCALED_A9_CONFIG)
        delta = System(workload.program(DEFAULT_LAYOUT), config=SCALED_A9_CONFIG)
        restorer = DeltaRestorer(delta)
        for system in (full, delta):
            system.run(max_cycles=3000)
        snapshot.restore(full)
        restorer.restore(snapshot)
        assert system_digest(delta) == system_digest(full)


class TestInjectionEquivalence:
    @pytest.mark.parametrize(
        "component", [Component.L1D, Component.L1I, Component.REGFILE, Component.DTLB]
    )
    def test_checkpointed_injection_matches_full_run(
        self, workload, golden, snapshots, component
    ):
        faults = generate_faults(
            component,
            component_bits(SCALED_A9_CONFIG, component),
            golden.cycles,
            count=3,
            seed=11,
        )
        for fault in faults:
            full = run_single_injection(workload, fault, SCALED_A9_CONFIG, golden)
            fast = run_single_injection(
                workload, fault, SCALED_A9_CONFIG, golden, snapshots=snapshots
            )
            assert full == fast, f"divergence for {fault}"
