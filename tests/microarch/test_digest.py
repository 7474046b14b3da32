"""Digest soundness: equal digests must mean bit-identical state.

The early-termination layer classifies a run Masked the moment its digest
matches the golden digest at the same cycle, so the digest must cover
*every* piece of state that can steer the simulation: a single stale or
omitted bit would let a diverged run silently count as Masked.  These
tests pin sensitivity (any single-bit flip in any modeled component
changes the digest), restoration (overwriting the flipped state restores
equality), and the one documented exclusion (the derived ``TLB._map``,
covered through the per-entry reachability bit).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.injection.campaign import record_golden_observables, run_golden
from repro.kernel.layout import DEFAULT_LAYOUT
from repro.microarch.config import SCALED_A9_CONFIG
from repro.microarch.digest import probe_cycles, system_digest
from repro.microarch.snapshot import SystemSnapshot
from repro.microarch.system import System
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def workload():
    return get_workload("StringSearch")


@pytest.fixture(scope="module")
def golden(workload):
    return run_golden(workload, SCALED_A9_CONFIG)


@pytest.fixture(scope="module")
def warm(workload, golden):
    """A system paused mid-golden-run (caches/TLBs warm), plus its digest."""
    system = System(workload.program(DEFAULT_LAYOUT), config=SCALED_A9_CONFIG)
    snapshot = record_golden_observables(
        workload, SCALED_A9_CONFIG, golden, snapshot_count=1, digest_count=0,
        system=system,
    )[0][0]
    snapshot.restore(system)
    return system, snapshot


@pytest.fixture
def system(warm):
    """The warm machine, re-restored to the same state for every test."""
    machine, snapshot = warm
    snapshot.restore(machine)
    return machine


class TestDeterminism:
    def test_digest_is_a_pure_function_of_state(self, system):
        assert system_digest(system) == system_digest(system)

    def test_identical_machines_share_a_digest(self, workload, warm):
        _machine, snapshot = warm
        other = System(workload.program(DEFAULT_LAYOUT), config=SCALED_A9_CONFIG)
        snapshot.restore(other)
        assert system_digest(other) == system_digest(warm[0])

    def test_restored_snapshot_matches_recorded_golden_digest(
        self, workload, golden
    ):
        """A restored machine matches the from-boot golden digest.

        Had a restore left any hashed bookkeeping different from a run
        from boot, every digest probe would be a guaranteed miss.
        """
        cycle = probe_cycles(golden.cycles, 4)[1]
        # Equal counts lay the checkpoint and probe grids on equal cycles.
        snapshots, digests = record_golden_observables(
            workload, SCALED_A9_CONFIG, golden, snapshot_count=4, digest_count=4
        )[:2]
        recorded = digests[cycle]
        snapshot = snapshots[1]
        target = System(workload.program(DEFAULT_LAYOUT), config=SCALED_A9_CONFIG)
        snapshot.restore(target)
        assert system_digest(target) == recorded


class TestSensitivity:
    """Any single-bit flip changes the digest; overwriting restores it."""

    def test_cache_payload_bit(self, system):
        before = system_digest(system)
        cache = system.l1d
        bit = next(
            index
            for index in range(cache.data_bits)
            if cache.line_at(index).valid
        )
        cache.flip_bit(bit)
        assert system_digest(system) != before
        cache.flip_bit(bit)
        assert system_digest(system) == before

    def test_cache_tag_metadata(self, system):
        """Valid/dirty/tag changes (the footprint of an eviction) register."""
        before = system_digest(system)
        line = next(
            line
            for ways in system.l2.sets
            for line in ways
            if line.valid
        )
        valid, tag = line.valid, line.tag
        line.valid = False
        assert system_digest(system) != before
        line.valid = valid
        assert system_digest(system) == before
        line.tag ^= 1
        assert system_digest(system) != before
        line.tag = tag
        assert system_digest(system) == before

    def test_tlb_entry_bit(self, system):
        # A PPN bit: live, and flip/flip-back is an exact inverse (a VPN
        # flip also rewires the lookup map, which can clobber a colliding
        # entry's slot irreversibly - covered by the hidden-map test).
        before = system_digest(system)
        tlb = system.dtlb
        bit = next(
            index * 128 + 20  # first PPN bit of the entry
            for index, entry in enumerate(tlb.entries)
            if entry.valid
        )
        tlb.flip_bit(bit)
        assert system_digest(system) != before
        tlb.flip_bit(bit)
        assert system_digest(system) == before

    def test_tlb_vpn_bit(self, system):
        before = system_digest(system)
        tlb = system.dtlb
        entry_index = next(
            index for index, entry in enumerate(tlb.entries) if entry.valid
        )
        tlb.flip_bit(entry_index * 128)  # bit 0: VPN tag
        assert system_digest(system) != before

    def test_tlb_hidden_map_divergence(self, system):
        """Entries equal but lookup map diverged => digests must differ.

        ``TLB._map`` is excluded from the digest as derived state, but it
        is not always rederivable once corrupted entries have collided -
        the per-entry reachability bit is what keeps the digest honest.
        """
        before = system_digest(system)
        tlb = system.dtlb
        entry = next(entry for entry in tlb.entries if entry.valid)
        removed = tlb._map.pop(entry.vpn)
        assert removed is entry
        assert system_digest(system) != before
        tlb._map[entry.vpn] = entry
        assert system_digest(system) == before

    def test_register_bit(self, system):
        before = system_digest(system)
        system.rf.flip_bit(7)
        assert system_digest(system) != before
        system.rf.flip_bit(7)
        assert system_digest(system) == before

    def test_memory_byte(self, system):
        before = system_digest(system)
        system.memory.data[1024] ^= 0x40
        assert system_digest(system) != before
        system.memory.data[1024] ^= 0x40
        assert system_digest(system) == before

    def test_device_output_byte(self, system):
        before = system_digest(system)
        devices = system._devices
        assert devices.output, "warm system should have produced output"
        devices.output[0] ^= 0x01
        assert system_digest(system) != before
        devices.output[0] ^= 0x01
        assert system_digest(system) == before

    def test_cycle_counter(self, system):
        """Same state at a *different* cycle must not match."""
        before = system_digest(system)
        system.core.cycle += 1
        assert system_digest(system) != before


class TestProbeGrid:
    def test_probes_fall_strictly_inside_the_run(self):
        cycles = probe_cycles(100_000, 24)
        assert cycles == sorted(set(cycles))
        assert all(0 < cycle < 100_000 for cycle in cycles)
        assert len(cycles) == 24

    def test_degenerate_grids_are_empty(self):
        assert probe_cycles(100_000, 0) == []
        assert probe_cycles(0, 8) == []

    def test_tiny_run_deduplicates(self):
        cycles = probe_cycles(3, 24)
        assert cycles == sorted(set(cycles))
        assert all(0 < cycle for cycle in cycles)

    def test_record_digests_covers_the_grid(self, workload, golden):
        cycles = probe_cycles(golden.cycles, 6)
        digests = record_golden_observables(
            workload, SCALED_A9_CONFIG, golden, snapshot_count=0, digest_count=6
        )[1]
        assert sorted(digests) == cycles
        assert all(len(digest) == 16 for digest in digests.values())
        # Different machine states must hash differently.
        assert len(set(digests.values())) == len(digests)


class TestSnapshotEarlyStop:
    def test_unreachable_cycles_produce_no_snapshot(self, workload, golden):
        """A grid laid over a longer run (the beam lays its grid over the
        warm-up run) captures only what the run reaches before its exit."""
        longer = dataclasses.replace(golden, cycles=golden.cycles * 3)
        snapshots, digests, _, _, run = record_golden_observables(
            workload, SCALED_A9_CONFIG, longer, snapshot_count=3, digest_count=3
        )
        assert len(snapshots) == 1
        assert list(digests) == [golden.cycles * 3 // 4]
        assert run.cycles == golden.cycles and run.output == golden.output

    def test_snapshot_equivalence_with_digest(self, workload, warm):
        """Snapshot-of-restored-state and digest agree on fidelity."""
        machine, snapshot = warm
        snapshot.restore(machine)
        digest = system_digest(machine)
        SystemSnapshot(machine).restore(machine)
        assert system_digest(machine) == digest
