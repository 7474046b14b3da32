"""The warm steady-state beam protocol (back-to-back campaign runs)."""

from __future__ import annotations

import pytest

from repro.beam.experiment import BeamCampaignConfig, BeamExperiment
from repro.microarch.snapshot import SystemSnapshot
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def experiment():
    return BeamExperiment(BeamCampaignConfig(beam_hours=1, seed=0), cache_dir=None)


@pytest.fixture(scope="module", params=["Susan C", "Qsort"])
def warm_state(request, experiment):
    workload = get_workload(request.param)
    golden = workload.reference_output()
    injector, warm_result = experiment._golden_beam_run(workload, golden)
    return workload, golden, injector.image.snapshots[0], warm_result


class TestWarmGolden:
    def test_warm_run_is_clean_and_checked(self, warm_state):
        _w, golden, _boot, warm = warm_state
        assert warm.exited_cleanly
        assert warm.output == golden
        assert warm.check_done and not warm.sdc_flag

    def test_warm_boot_snapshot_at_cycle_zero(self, warm_state):
        _w, _golden, warm_boot, _warm = warm_state
        assert warm_boot.cycle == 0

    def test_warm_boot_replays_identically(self, warm_state, experiment):
        workload, golden, warm_boot, warm = warm_state
        system = experiment._beam_system(workload, golden)
        warm_boot.restore(system)
        replay = system.run(max_cycles=warm.cycles * 3 + 100_000)
        assert replay.exited_cleanly
        assert replay.output == golden
        assert replay.cycles == warm.cycles

    def test_warm_run_not_slower_than_twice_cold(self, warm_state, experiment):
        """Guards against pathological warm-state behaviour (e.g. the
        quicksort sorted-input worst case this protocol once exposed)."""
        workload, golden, _boot, warm = warm_state
        cold_system = experiment._beam_system(workload, golden)
        cold = cold_system.run(max_cycles=200_000_000)
        assert warm.cycles < cold.cycles * 2

    def test_steady_state_differs_from_cold_boot(self, warm_state, experiment):
        """The warm machine's cache content reflects the workload, not
        (only) the prefill: a fresh beam system differs from the warm boot."""
        workload, golden, warm_boot, _warm = warm_state
        fresh = experiment._beam_system(workload, golden)
        fresh_snapshot = SystemSnapshot(fresh)
        warm_l2 = warm_boot._parts["l2"][0]  # the line group's capture
        fresh_l2 = fresh_snapshot._parts["l2"][0]
        differing = sum(1 for a, b in zip(warm_l2, fresh_l2) if a[0] != b[0])
        assert differing > 0  # at least some tags replaced by the warm run
