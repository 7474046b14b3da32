"""Beam experiment protocol: live micro-campaign and serialization."""

from __future__ import annotations

import json

import pytest

from repro.beam.experiment import BeamCampaignConfig, BeamExperiment, BeamResult
from repro.injection.classify import FaultEffect
from repro.workloads import get_workload


class TestBeamResult:
    def make(self, counts):
        return BeamResult(
            workload_name="X",
            beam_seconds=3600.0,
            fluence=3.5e5 * 3600,
            golden_cycles=100_000,
            counts=counts,
        )

    def test_fit_zero_without_errors(self):
        result = self.make({})
        assert result.fit(FaultEffect.SDC) == 0.0

    def test_fit_scales_with_count(self):
        one = self.make({FaultEffect.SDC: 1})
        ten = self.make({FaultEffect.SDC: 10})
        assert ten.fit(FaultEffect.SDC) == pytest.approx(
            10 * one.fit(FaultEffect.SDC)
        )

    def test_total_fit_sums_error_classes(self):
        result = self.make(
            {
                FaultEffect.SDC: 1,
                FaultEffect.APP_CRASH: 2,
                FaultEffect.SYS_CRASH: 3,
                FaultEffect.MASKED: 100,
            }
        )
        expected = sum(
            result.fit(effect)
            for effect in (
                FaultEffect.SDC,
                FaultEffect.APP_CRASH,
                FaultEffect.SYS_CRASH,
            )
        )
        assert result.total_fit() == pytest.approx(expected)
        # Masked events contribute nothing.
        assert result.total_fit() == pytest.approx(
            result.fit(FaultEffect.SDC) * 6
        )

    def test_interval_brackets_estimate(self):
        result = self.make({FaultEffect.SDC: 9})
        low, high = result.fit_interval(FaultEffect.SDC)
        assert low < result.fit(FaultEffect.SDC) < high

    def test_detection_limit_is_half_an_event(self):
        result = self.make({})
        one_event = self.make({FaultEffect.SDC: 1}).fit(FaultEffect.SDC)
        assert result.detection_limit_fit() == pytest.approx(one_event / 2)

    def test_round_trip(self):
        result = self.make({FaultEffect.SYS_CRASH: 4})
        clone = BeamResult.from_dict(result.to_dict())
        assert clone.fit(FaultEffect.SYS_CRASH) == pytest.approx(
            result.fit(FaultEffect.SYS_CRASH)
        )


@pytest.mark.slow
class TestLiveBeamCampaign:
    @pytest.fixture(scope="class")
    def campaign(self, tmp_path_factory):
        cache_dir = tmp_path_factory.mktemp("beamcache")
        experiment = BeamExperiment(
            BeamCampaignConfig(beam_hours=25, seed=2), cache_dir=cache_dir
        )
        result = experiment.run_workload(get_workload("Susan C"))
        return experiment, cache_dir, result

    def test_strikes_sampled_and_classified(self, campaign):
        _experiment, _cache_dir, result = campaign
        assert result.strikes_simulated > 0
        assert result.platform_strikes > 0
        total_classified = sum(result.counts.values())
        assert total_classified == result.strikes_simulated + result.platform_strikes

    def test_exposure_accounting(self, campaign):
        _experiment, _cache_dir, result = campaign
        assert result.beam_seconds == 25 * 3600
        assert result.fluence == pytest.approx(3.5e5 * result.beam_seconds)
        assert result.natural_years > 0

    def test_cache_reused(self, campaign):
        experiment, cache_dir, result = campaign
        files = list(cache_dir.glob("beam-*.json"))
        assert len(files) == 1
        payload = json.loads(files[0].read_text())
        assert payload["workload"] == "Susan C"
        again = experiment.run_workload(get_workload("Susan C"))
        assert again.to_dict() == result.to_dict()


class TestBeamCache:
    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda intact: intact[: len(intact) // 2],
            lambda intact: b"null",
            lambda intact: b"[]",
            lambda intact: json.dumps({**json.loads(intact), "counts": None}).encode(),
        ],
        ids=["truncated", "null", "array", "counts-null"],
    )
    def test_corrupt_cache_is_rerun_visibly(self, tmp_path, corrupt):
        messages: list[str] = []
        experiment = BeamExperiment(
            BeamCampaignConfig(beam_hours=5, seed=0),
            cache_dir=tmp_path,
            progress=messages.append,
        )
        workload = get_workload("StringSearch")
        result = experiment.run_workload(workload)
        (path,) = tmp_path.glob("beam-*.json")
        intact = path.read_bytes()
        path.write_bytes(corrupt(intact))

        again = experiment.run_workload(workload)
        assert again.to_dict() == result.to_dict()
        assert f"cache: ignoring corrupt {path.name}, re-running" in messages
        assert path.read_bytes() == intact
        assert list(tmp_path.glob("*.tmp")) == []
