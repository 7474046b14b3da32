"""Campaign orchestration: tallies, AVF, margins, disk caching."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.errors import InjectionError
from repro.injection import campaign as campaign_module
from repro.injection import parallel
from repro.injection.adaptive import AdaptiveCampaign
from repro.injection.campaign import (
    CampaignConfig,
    ComponentResult,
    InjectionCampaign,
    WorkloadResult,
    prepare_image,
    run_golden,
)
from repro.injection.classify import FaultEffect
from repro.injection.components import Component, component_bits, total_modeled_bits
from repro.microarch.config import SCALED_A9_CONFIG
from repro.workloads import get_workload


class TestComponentResult:
    def make(self, counts, injections=10):
        return ComponentResult(
            component=Component.L1D,
            injections=injections,
            population_bits=32768,
            counts=counts,
        )

    def test_avf_is_one_minus_masked(self):
        result = self.make({FaultEffect.MASKED: 7, FaultEffect.SDC: 3})
        assert result.avf == pytest.approx(0.3)

    def test_rates_sum_to_one(self):
        result = self.make(
            {
                FaultEffect.MASKED: 4,
                FaultEffect.SDC: 3,
                FaultEffect.APP_CRASH: 2,
                FaultEffect.SYS_CRASH: 1,
            }
        )
        total = sum(result.rate(effect) for effect in FaultEffect)
        assert total == pytest.approx(1.0)

    def test_margin_not_larger_than_conservative(self):
        result = self.make({FaultEffect.MASKED: 10})
        assert result.margin <= result.conservative_margin

    def test_round_trip_serialization(self):
        result = self.make({FaultEffect.MASKED: 9, FaultEffect.SYS_CRASH: 1})
        clone = ComponentResult.from_dict(result.to_dict())
        assert clone.component is result.component
        assert clone.counts == result.counts
        assert clone.avf == result.avf


class TestWorkloadResultSerialization:
    def test_round_trip(self):
        result = WorkloadResult(workload_name="X", golden_cycles=123)
        result.components[Component.ITLB] = ComponentResult(
            component=Component.ITLB,
            injections=5,
            population_bits=4096,
            counts={FaultEffect.MASKED: 5},
        )
        clone = WorkloadResult.from_dict(result.to_dict())
        assert clone.workload_name == "X"
        assert clone.golden_cycles == 123
        assert clone.components[Component.ITLB].injections == 5


class TestComponentSizes:
    def test_paper_coverage_claim(self):
        """The six targets cover the dominant share of modeled cells, with
        the L2 covering more than 60% (the paper reports >80% on the
        full-size hierarchy)."""
        total = total_modeled_bits(SCALED_A9_CONFIG)
        l2 = component_bits(SCALED_A9_CONFIG, Component.L2)
        assert l2 / total > 0.6

    def test_tlb_sizes_match_paper(self):
        assert component_bits(SCALED_A9_CONFIG, Component.ITLB) == 4096
        assert component_bits(SCALED_A9_CONFIG, Component.DTLB) == 4096


@pytest.mark.slow
class TestLiveCampaign:
    @pytest.fixture(scope="class")
    def campaign_result(self, tmp_path_factory):
        cache_dir = tmp_path_factory.mktemp("cache")
        campaign = InjectionCampaign(
            CampaignConfig(faults_per_component=6, seed=5),
            cache_dir=cache_dir,
        )
        workload = get_workload("Susan E")
        return campaign, cache_dir, campaign.run_workload(workload)

    def test_all_components_campaigned(self, campaign_result):
        _campaign, _cache_dir, result = campaign_result
        assert set(result.components) == set(Component)
        for component_result in result.components.values():
            assert component_result.injections == 6
            assert sum(component_result.counts.values()) == 6

    def test_cache_file_written_and_reused(self, campaign_result):
        campaign, cache_dir, result = campaign_result
        files = list(cache_dir.glob("fi-*.json"))
        assert len(files) == 1
        payload = json.loads(files[0].read_text())
        assert payload["workload"] == "Susan E"
        again = campaign.run_workload(get_workload("Susan E"))
        assert again.to_dict() == result.to_dict()

    def test_golden_run_sane(self):
        golden = run_golden(get_workload("Susan E"), SCALED_A9_CONFIG)
        assert golden.exited_cleanly
        assert golden.cycles > 10_000

    def test_confidence_rederived_on_cache_load(self, campaign_result):
        """The cache key omits confidence (raw counts are independent of
        it), so a cached result must report the *active* confidence, not
        whatever level it was first written with."""
        _campaign, cache_dir, result = campaign_result
        lax = InjectionCampaign(
            CampaignConfig(faults_per_component=6, seed=5, confidence=0.9),
            cache_dir=cache_dir,
        )
        loaded = lax.run_workload(get_workload("Susan E"))
        # Same raw tallies -> this was a cache hit, not a re-run.
        assert {
            component: component_result.counts
            for component, component_result in loaded.components.items()
        } == {
            component: component_result.counts
            for component, component_result in result.components.items()
        }
        for component_result in loaded.components.values():
            assert component_result.confidence == 0.9
        # Margins derive from the active confidence: 90% < 99%.
        sample = Component.REGFILE
        assert (
            loaded.components[sample].conservative_margin
            < result.components[sample].conservative_margin
        )


class TestCorruptCache:
    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda intact: intact[: len(intact) // 2],
            lambda intact: b"null",
            lambda intact: b"[]",
            lambda intact: json.dumps(
                {**json.loads(intact), "components": None}
            ).encode(),
        ],
        ids=["truncated", "null", "array", "components-null"],
    )
    def test_corrupt_cache_is_rerun_visibly(self, tmp_path, corrupt):
        messages: list[str] = []
        campaign = InjectionCampaign(
            CampaignConfig(faults_per_component=2, seed=5),
            cache_dir=tmp_path,
            progress=messages.append,
        )
        workload = get_workload("StringSearch")
        components = (Component.REGFILE,)
        result = campaign.run_workload(workload, components=components)
        (path,) = tmp_path.glob("fi-*.json")
        intact = path.read_bytes()
        path.write_bytes(corrupt(intact))

        again = campaign.run_workload(workload, components=components)
        assert again.to_dict() == result.to_dict()
        assert f"cache: ignoring corrupt {path.name}, re-running" in messages
        assert path.read_bytes() == intact
        assert list(tmp_path.glob("*.tmp")) == []


class TestStaleGoldenCache:
    """A cached result that lacks a requested component is a miss: every
    requested component is re-run and the file is overwritten whole,
    whichever golden run the partial file was recorded against."""

    @pytest.mark.parametrize(
        "campaign_class, config",
        [
            (InjectionCampaign, CampaignConfig(faults_per_component=4, seed=5)),
            (
                AdaptiveCampaign,
                CampaignConfig(
                    target_margin=0.3, min_faults=4, max_faults=8,
                    batch_size=8, seed=5,
                ),
            ),
        ],
        ids=["fixed", "adaptive"],
    )
    def test_stale_partial_cache_is_rerun(self, campaign_class, config, tmp_path):
        workload = get_workload("StringSearch")
        components = (Component.REGFILE, Component.L1D)
        fresh = campaign_class(config, cache_dir=tmp_path / "fresh")
        expected = fresh.run_workload(workload, components=components).to_dict()
        golden_cycles = expected["golden_cycles"]
        bogus = 999
        for recorded_cycles in (golden_cycles, golden_cycles + 1):
            partial = WorkloadResult(
                workload_name=workload.name,
                golden_cycles=recorded_cycles,
                components={
                    Component.REGFILE: ComponentResult(
                        component=Component.REGFILE,
                        injections=bogus,
                        population_bits=component_bits(
                            SCALED_A9_CONFIG, Component.REGFILE
                        ),
                        counts={FaultEffect.SDC: bogus},
                    )
                },
            )
            cache_dir = tmp_path / f"partial-{recorded_cycles}"
            cache_file = cache_dir / (config.cache_key(workload) + ".json")
            cache_dir.mkdir()
            cache_file.write_text(json.dumps(partial.to_dict()))
            messages: list[str] = []
            campaign = campaign_class(
                config, cache_dir=cache_dir, progress=messages.append
            )
            result = campaign.run_workload(workload, components=components)
            assert result.to_dict() == expected
            assert not any("cache" in message for message in messages)
            assert json.loads(cache_file.read_text()) == expected


class TestSerialInjector:
    """A serial campaign runs on one injector it builds and closes; an
    in-simulator exception renews its machine, and the rest of the window
    runs on the fresh one."""

    def test_exception_finishes_the_window_on_a_fresh_injector(
        self, tmp_path, monkeypatch
    ):
        workload = get_workload("StringSearch")
        config = CampaignConfig(faults_per_component=3, seed=5)
        expected = InjectionCampaign(
            config, cache_dir=tmp_path / "clean"
        ).run_workload(workload).to_dict()

        used: list = []
        injectors: set = set()
        real = parallel.ImageInjector.run_fault_ex

        def flaky(injector, fault):
            used.append(injector.system)
            injectors.add(injector)
            if len(used) == 1:
                raise RuntimeError("boom")
            return real(injector, fault)

        monkeypatch.setattr(parallel.ImageInjector, "run_fault_ex", flaky)
        result = InjectionCampaign(
            config, cache_dir=tmp_path / "flaky"
        ).run_workload(workload)
        assert result.to_dict() == expected
        assert len(injectors) == 1  # the campaign's one injector, renewed
        first, retry, *rest = used
        assert retry is not first
        assert all(system is retry for system in rest)
        # Both machines were closed (translator detached).
        assert first.core.translator is None
        assert retry.core.translator is None


class TestPrepareImage:
    """The capture run goes to program exit and must reproduce the golden
    run, so every image (local or on a fabric worker) checks itself."""

    def test_capture_agrees_with_the_golden_run(self):
        workload = get_workload("StringSearch")
        golden, image = prepare_image(workload, CampaignConfig())
        assert image.golden_cycles == golden.cycles
        assert image.golden_output == golden.output
        assert len(image.snapshots) == 8 and image.digests

    @pytest.mark.parametrize(
        "drift",
        [
            lambda golden: {"cycles": golden.cycles + 1},
            lambda golden: {"output": golden.output + b"!"},
        ],
        ids=["cycles", "output"],
    )
    def test_capture_that_diverges_from_golden_is_refused(
        self, monkeypatch, drift
    ):
        def drifted_golden(workload, machine, translate=True):
            golden = run_golden(workload, machine, translate=translate)
            return dataclasses.replace(golden, **drift(golden))

        monkeypatch.setattr(campaign_module, "run_golden", drifted_golden)
        with pytest.raises(InjectionError, match="diverged from its golden run"):
            prepare_image(get_workload("StringSearch"), CampaignConfig())
