"""Adaptive precision-targeted campaigns: stopping rule, determinism, resume."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.errors import ConfigurationError
from repro.injection import campaign as campaign_module
from repro.injection import parallel
from repro.injection.adaptive import (
    AdaptiveCampaign,
    _allocate,
    fixed_equivalent_faults,
    projected_remaining,
    stratum_widths,
    widths_satisfied,
)
from repro.injection.campaign import CampaignConfig, InjectionCampaign
from repro.injection.classify import FaultEffect
from repro.injection.components import Component
from repro.injection.journal import read_journal
from repro.injection.sampling import (
    readjusted_margin,
    sample_size,
    wilson_half_width,
)
from repro.injection.telemetry import CampaignTelemetry
from repro.workloads import get_workload

POP = 32768


class TestStoppingRule:
    def test_widths_match_the_published_statistics(self):
        """The rule compares exactly the quantities the paper reports:
        the re-adjusted Leveugle margin for the AVF and Wilson half-widths
        for the class rates."""
        counts = {
            FaultEffect.MASKED: 80,
            FaultEffect.SDC: 12,
            FaultEffect.APP_CRASH: 5,
            FaultEffect.SYS_CRASH: 3,
        }
        widths = stratum_widths(POP, counts, 100, confidence=0.99)
        assert widths["AVF"] == pytest.approx(
            readjusted_margin(POP, 100, 0.2, 0.99)
        )
        assert widths["SDC"] == pytest.approx(wilson_half_width(12, 100, 0.99))
        assert widths["APP_CRASH"] == pytest.approx(
            wilson_half_width(5, 100, 0.99)
        )
        assert widths["SYS_CRASH"] == pytest.approx(
            wilson_half_width(3, 100, 0.99)
        )

    def test_no_data_means_infinite_width(self):
        widths = stratum_widths(POP, {}, 0)
        assert all(width == float("inf") for width in widths.values())
        assert not widths_satisfied(widths, 0.5)

    def test_satisfaction_requires_every_criterion(self):
        widths = {"AVF": 0.01, "SDC": 0.05, "APP_CRASH": 0.01, "SYS_CRASH": 0.01}
        assert not widths_satisfied(widths, 0.02)
        assert widths_satisfied(widths, 0.05)

    def test_more_injections_never_widen(self):
        for n in (50, 100, 400, 900):
            masked = int(n * 0.9)
            counts = {
                FaultEffect.MASKED: masked,
                FaultEffect.SDC: n - masked,
            }
            wider = stratum_widths(POP, counts, n)
            counts2 = {
                FaultEffect.MASKED: masked * 2,
                FaultEffect.SDC: (n - masked) * 2,
            }
            narrower = stratum_widths(POP, counts2, n * 2)
            for key in wider:
                assert narrower[key] <= wider[key] + 1e-12

    def test_projection_reaches_zero_when_satisfied(self):
        counts = {FaultEffect.MASKED: 990, FaultEffect.SDC: 10}
        widths = stratum_widths(POP, counts, 1000)
        target = max(widths.values()) + 0.001
        assert projected_remaining(POP, counts, 1000, target) == 0

    def test_projection_positive_when_unsatisfied(self):
        counts = {FaultEffect.MASKED: 5, FaultEffect.SDC: 5}
        assert projected_remaining(POP, counts, 10, 0.02) > 0

    def test_fixed_equivalent_is_the_leveugle_size(self):
        assert fixed_equivalent_faults(POP, 0.04, 0.99) == sample_size(
            POP, 0.04, 0.99
        )


class TestAllocation:
    def test_empty_demands(self):
        assert _allocate(50, {}) == {}

    def test_proportional_to_width_score(self):
        demands = {
            Component.L1D: (3.0, 1000),
            Component.L2: (1.0, 1000),
        }
        allocation = _allocate(40, demands)
        assert allocation[Component.L1D] == 30
        assert allocation[Component.L2] == 10

    def test_respects_capacity(self):
        demands = {
            Component.L1D: (3.0, 5),
            Component.L2: (1.0, 1000),
        }
        allocation = _allocate(40, demands)
        assert allocation[Component.L1D] == 5
        assert allocation[Component.L2] == 35

    def test_every_hungry_stratum_gets_at_least_one(self):
        demands = {
            Component.L1D: (1000.0, 100),
            Component.L2: (0.001, 100),
        }
        allocation = _allocate(10, demands)
        assert allocation[Component.L2] >= 1

    def test_unseen_strata_split_evenly(self):
        demands = {
            Component.L1D: (float("inf"), 100),
            Component.L2: (float("inf"), 100),
            Component.ITLB: (float("inf"), 100),
        }
        allocation = _allocate(31, demands)
        assert sum(allocation.values()) == 31
        assert max(allocation.values()) - min(allocation.values()) <= 1

    def test_deterministic(self):
        demands = {
            Component.L1D: (2.5, 100),
            Component.L2: (1.5, 100),
            Component.REGFILE: (1.0, 100),
        }
        assert _allocate(33, demands) == _allocate(33, dict(demands))


class TestConfigValidation:
    def test_requires_target_margin(self):
        with pytest.raises(ConfigurationError):
            AdaptiveCampaign(CampaignConfig())

    def test_rejects_bad_target(self):
        with pytest.raises(ConfigurationError):
            AdaptiveCampaign(CampaignConfig(target_margin=1.5))

    def test_rejects_bad_batch(self):
        with pytest.raises(ConfigurationError):
            AdaptiveCampaign(CampaignConfig(target_margin=0.04, batch_size=0))

    def test_rejects_floor_above_cap(self):
        with pytest.raises(ConfigurationError):
            AdaptiveCampaign(
                CampaignConfig(target_margin=0.04, min_faults=100, max_faults=50)
            )

    def test_adaptive_cache_key_ignores_execution_granularity(self):
        crc32 = get_workload("CRC32")
        base = CampaignConfig(target_margin=0.02, batch_size=50, jobs=1)
        other = CampaignConfig(target_margin=0.02, batch_size=7, jobs=8)
        assert base.cache_key(crc32) == other.cache_key(crc32)
        fixed = CampaignConfig(faults_per_component=100)
        assert base.cache_key(crc32) != fixed.cache_key(crc32)
        tighter = CampaignConfig(target_margin=0.01)
        assert base.cache_key(crc32) != tighter.cache_key(crc32)


def _adaptive_config(**overrides) -> CampaignConfig:
    defaults = dict(
        target_margin=0.12,
        confidence=0.99,
        batch_size=20,
        min_faults=10,
        max_faults=60,
        seed=3,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


COMPONENTS = (Component.L1D, Component.L2)


def _tallies(result) -> dict:
    return {
        component.name: (
            tally.injections,
            {
                effect.name: count
                for effect, count in sorted(
                    tally.counts.items(), key=lambda item: item[0].name
                )
            },
        )
        for component, tally in result.components.items()
    }


@pytest.mark.slow
class TestAdaptiveLive:
    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        campaign = AdaptiveCampaign(
            _adaptive_config(), cache_dir=tmp_path_factory.mktemp("cache")
        )
        result = campaign.run_workload(
            get_workload("Susan E"), components=COMPONENTS
        )
        return campaign, result

    def test_reports_reach_target_or_cap(self, reference):
        campaign, result = reference
        diagnostics = campaign.diagnostics["Susan E"]
        for component in COMPONENTS:
            status = diagnostics.strata[component]
            assert status.satisfied or status.capped
            tally = result.components[component]
            assert tally.injections == status.reported
            assert sum(tally.counts.values()) == tally.injections
            assert tally.injections <= campaign.config.max_faults
            assert tally.injections >= campaign.config.min_faults

    def test_satisfied_strata_meet_every_criterion(self, reference):
        campaign, result = reference
        diagnostics = campaign.diagnostics["Susan E"]
        target = campaign.config.target_margin
        for component, status in diagnostics.strata.items():
            if not status.satisfied:
                continue
            tally = result.components[component]
            assert tally.margin <= target
            for effect in (
                FaultEffect.SDC,
                FaultEffect.APP_CRASH,
                FaultEffect.SYS_CRASH,
            ):
                low, high = tally.rate_interval(effect)
                assert (high - low) / 2 <= target

    def test_deterministic_across_jobs_and_batch_sizes(
        self, reference, tmp_path_factory
    ):
        """The acceptance bar: identical results for a fixed seed across
        jobs in {1, 4} and two different batch sizes."""
        _campaign, result = reference
        expected = _tallies(result)
        for jobs, batch in ((4, 20), (1, 13), (4, 27)):
            campaign = AdaptiveCampaign(
                _adaptive_config(jobs=jobs, batch_size=batch),
                cache_dir=tmp_path_factory.mktemp(f"cache-{jobs}-{batch}"),
            )
            again = campaign.run_workload(
                get_workload("Susan E"), components=COMPONENTS
            )
            assert _tallies(again) == expected, (
                f"adaptive result changed under jobs={jobs} batch={batch}"
            )

    def test_prefix_matches_fixed_campaign(self, reference, tmp_path_factory):
        """The reported tally of a stratum is literally the tally a fixed
        campaign of the same seed asked for exactly that many faults would
        produce - the same PRNG stream, cut at the stopping point."""
        _campaign, result = reference
        component = Component.L1D
        reported = result.components[component].injections
        fixed = InjectionCampaign(
            CampaignConfig(faults_per_component=reported, seed=3),
            cache_dir=tmp_path_factory.mktemp("fixed"),
        )
        fixed_result = fixed.run_workload(
            get_workload("Susan E"), components=(component,)
        )
        assert (
            fixed_result.components[component].counts
            == result.components[component].counts
        )

    def test_cache_hit_returns_identical_result_with_diagnostics(
        self, reference
    ):
        campaign, result = reference
        again = campaign.run_workload(
            get_workload("Susan E"), components=COMPONENTS
        )
        assert _tallies(again) == _tallies(result)
        diagnostics = campaign.diagnostics["Susan E"]
        assert diagnostics.rounds == 0  # recomputed from cache, not re-run
        assert set(diagnostics.strata) == set(COMPONENTS)

    def test_telemetry_carries_adaptive_progress(self, tmp_path_factory):
        telemetry = CampaignTelemetry()
        campaign = AdaptiveCampaign(
            _adaptive_config(),
            cache_dir=tmp_path_factory.mktemp("cache-telemetry"),
            telemetry=telemetry,
        )
        campaign.run_workload(get_workload("Susan E"), components=COMPONENTS)
        assert telemetry.adaptive_rounds >= 1
        summary = telemetry.summary()
        assert summary["adaptive"] is not None
        assert set(summary["adaptive"]["strata"]) == {
            component.name for component in COMPONENTS
        }
        for status in summary["adaptive"]["strata"].values():
            assert status["satisfied"] or status["capped"]
        assert "adaptive r" in telemetry.progress_line()

    def test_unreachable_target_caps_and_flags(self, tmp_path_factory):
        messages: list[str] = []
        campaign = AdaptiveCampaign(
            _adaptive_config(target_margin=0.02, max_faults=25, min_faults=5),
            cache_dir=tmp_path_factory.mktemp("cache-capped"),
            progress=messages.append,
        )
        result = campaign.run_workload(
            get_workload("Susan E"), components=(Component.L1D,)
        )
        status = campaign.diagnostics["Susan E"].strata[Component.L1D]
        assert status.capped and not status.satisfied
        assert result.components[Component.L1D].injections == 25
        assert any("not reached" in message for message in messages)


class TestOneInjectorPerSerialCampaign:
    """A serial campaign runs every window on one injector machine."""

    def test_serial_run_builds_one_injector_and_matches_a_farm(
        self, tmp_path, monkeypatch
    ):
        built: list[str] = []
        init = parallel.ImageInjector.__init__

        def spy(injector, image):
            built.append(image.name)
            init(injector, image)

        monkeypatch.setattr(parallel.ImageInjector, "__init__", spy)
        config = _adaptive_config(min_faults=5, max_faults=15, batch_size=5)
        workload = get_workload("StringSearch")
        serial = AdaptiveCampaign(
            config, cache_dir=tmp_path / "serial", journal_dir=tmp_path / "js"
        )
        result = serial.run_workload(workload, components=COMPONENTS)
        assert serial.diagnostics["StringSearch"].rounds > 1
        assert built == ["StringSearch"]

        farm = AdaptiveCampaign(
            dataclasses.replace(config, jobs=2),
            cache_dir=tmp_path / "farm",
            journal_dir=tmp_path / "jf",
        )
        assert farm.run_workload(
            workload, components=COMPONENTS
        ).to_dict() == result.to_dict()

        def faults(journal_dir):
            _meta, records, quarantines = read_journal(
                next(journal_dir.glob("*.jsonl"))
            )
            assert quarantines == []
            return {
                (record.component, record.index): (
                    record.bit_index, record.cycle, record.effect
                )
                for record in records
            }

        assert faults(tmp_path / "js") == faults(tmp_path / "jf")

    def test_a_renewed_machine_serves_every_later_round(
        self, tmp_path, monkeypatch
    ):
        """The first fault raises once: the injector renews its machine,
        closes the one that raised, and rounds 2-5 run on the fresh one
        with the tallies of an unfaulted run."""
        config = _adaptive_config(
            target_margin=0.01, min_faults=5, max_faults=15, batch_size=5
        )
        workload = get_workload("StringSearch")
        clean = AdaptiveCampaign(config, cache_dir=tmp_path / "clean")
        expected = _tallies(clean.run_workload(workload, components=COMPONENTS))
        assert clean.diagnostics["StringSearch"].rounds == 5

        rounds: list[int] = []
        machines: list = []
        closed: list = []
        real_run, real_close = (
            parallel.ImageInjector.run_fault_ex,
            parallel.ImageInjector.close,
        )
        real_plan = campaign_module.run_injection_plan

        def plan_spy(*args, **kwargs):
            rounds.append(len(rounds) + 1)
            return real_plan(*args, **kwargs)

        def run_spy(injector, fault):
            machines.append((rounds[-1], injector.system))
            if len(machines) == 1:
                raise RuntimeError("boom")
            return real_run(injector, fault)

        def close_spy(injector):
            closed.append(injector.system)
            real_close(injector)

        monkeypatch.setattr(campaign_module, "run_injection_plan", plan_spy)
        monkeypatch.setattr(parallel.ImageInjector, "run_fault_ex", run_spy)
        monkeypatch.setattr(parallel.ImageInjector, "close", close_spy)
        faulted = AdaptiveCampaign(config, cache_dir=tmp_path / "faulted")
        result = faulted.run_workload(workload, components=COMPONENTS)
        assert _tallies(result) == expected
        assert rounds == [1, 2, 3, 4, 5]

        (first_round, poisoned), *rest = machines
        fresh = rest[0][1]
        assert first_round == 1 and fresh is not poisoned
        assert {round_ for round_, _ in rest} == {1, 2, 3, 4, 5}
        assert all(machine is fresh for _, machine in rest)
        # The machine that raised is closed once, the fresh one at the end.
        assert closed == [poisoned, fresh]

    def test_resume_is_reported_once_with_the_journal_totals(self, tmp_path):
        config = _adaptive_config(min_faults=5, max_faults=15, batch_size=5)
        workload = get_workload("StringSearch")
        journal_dir = tmp_path / "journal"
        first = AdaptiveCampaign(
            config, cache_dir=tmp_path / "cache1", journal_dir=journal_dir
        )
        uninterrupted = first.run_workload(workload, components=COMPONENTS)
        journal_path = next(journal_dir.glob("*.jsonl"))
        lines = journal_path.read_text().splitlines(keepends=True)
        keep = len(lines) - 4
        journal_path.write_text("".join(lines[: keep + 1]))

        messages: list[str] = []
        resumed = AdaptiveCampaign(
            dataclasses.replace(config, batch_size=2),
            cache_dir=tmp_path / "cache2",
            journal_dir=journal_dir,
            resume=True,
            progress=messages.append,
        ).run_workload(workload, components=COMPONENTS)
        assert _tallies(resumed) == _tallies(uninterrupted)
        resumes = [message for message in messages if "resum" in message]
        assert resumes == [
            f"StringSearch: resuming from journal with {keep} "
            "injection(s) (+0 quarantined)"
        ]


@pytest.mark.slow
class TestAdaptiveResume:
    def test_resume_replays_journal_and_continues(
        self, tmp_path, monkeypatch
    ):
        """Kill-and-resume acceptance flow: truncate the journal to a
        prefix, resume, and verify (a) the journaled injections are NOT
        re-simulated and (b) the final result is bit-identical to the
        uninterrupted campaign."""
        journal_dir = tmp_path / "journal"
        first = AdaptiveCampaign(
            _adaptive_config(),
            cache_dir=tmp_path / "cache1",
            journal_dir=journal_dir,
        )
        uninterrupted = first.run_workload(
            get_workload("Susan E"), components=COMPONENTS
        )
        journal_path = next(journal_dir.glob("*.jsonl"))
        lines = journal_path.read_text().splitlines(keepends=True)
        completed = len(lines) - 1  # minus the meta header
        keep = 25
        assert completed > keep
        journal_path.write_text("".join(lines[: keep + 1]))

        live: list = []
        original = parallel.ImageInjector.run_fault_ex

        def counting(self, fault):
            live.append(fault)
            return original(self, fault)

        monkeypatch.setattr(parallel.ImageInjector, "run_fault_ex", counting)
        resumed_campaign = AdaptiveCampaign(
            _adaptive_config(),
            cache_dir=tmp_path / "cache2",
            journal_dir=journal_dir,
            resume=True,
        )
        resumed = resumed_campaign.run_workload(
            get_workload("Susan E"), components=COMPONENTS
        )
        assert _tallies(resumed) == _tallies(uninterrupted)
        # The journaled prefix was replayed, never re-simulated: live
        # injections account exactly for everything *beyond* the kept
        # records.
        executed = resumed_campaign.diagnostics["Susan E"].total_executed
        assert len(live) == executed - keep
        assert executed == completed  # this config runs every stratum to cap

    def test_resume_with_interrupt_mid_batch_is_still_deterministic(
        self, tmp_path
    ):
        """An interrupt/resume split at an arbitrary (non-batch-aligned)
        point must not change the reported result."""
        journal_dir = tmp_path / "journal"
        first = AdaptiveCampaign(
            _adaptive_config(),
            cache_dir=tmp_path / "cache1",
            journal_dir=journal_dir,
        )
        uninterrupted = first.run_workload(
            get_workload("Susan E"), components=COMPONENTS
        )
        journal_path = next(journal_dir.glob("*.jsonl"))
        lines = journal_path.read_text().splitlines(keepends=True)
        journal_path.write_text("".join(lines[:18]))  # mid-first-batch

        resumed_campaign = AdaptiveCampaign(
            _adaptive_config(batch_size=33),  # resume with a DIFFERENT batch
            cache_dir=tmp_path / "cache2",
            journal_dir=journal_dir,
            resume=True,
        )
        resumed = resumed_campaign.run_workload(
            get_workload("Susan E"), components=COMPONENTS
        )
        assert _tallies(resumed) == _tallies(uninterrupted)


def _journal_keys(lines: list[str]) -> set[tuple[str, int]]:
    """``(component, index)`` of every record line of a journal."""
    return {
        (record["component"], record["index"])
        for record in map(json.loads, lines)
        if record["type"] != "meta"
    }


@pytest.mark.slow
class TestResumeRewalksTheSchedule:
    """A resumed campaign walks the uninterrupted run's windows.

    The schedule reads only absorbed effects, so resuming at the same
    batch size must pass ``run_injection_plan`` the very same ``indices``
    windows, and the only injections simulated live are the journal's
    holes: a torn tail, a dropped interior line, and everything after the
    cut.
    """

    CASES = {
        # Every stratum of this config runs to its cap in several rounds.
        "plain": ("Susan E", COMPONENTS, _adaptive_config(jobs=1), 25),
        # The cut lies past the 30-fault pilot, inside the learned frame.
        "learned": (
            "CRC32",
            (Component.L1D,),
            _adaptive_config(
                target_margin=0.1, batch_size=10, min_faults=30,
                max_faults=200, seed=9, jobs=1, learned_sampling=True,
            ),
            47,
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_windows_and_only_holes_run_live(
        self, tmp_path, monkeypatch, case
    ):
        name, components, config, keep = self.CASES[case]
        windows: list[dict] = []
        plan_runner = campaign_module.run_injection_plan

        def spy(image, plan, **kwargs):
            windows.append(
                {c.name: list(kwargs["indices"][c]) for c in plan}
            )
            return plan_runner(image, plan, **kwargs)

        monkeypatch.setattr(campaign_module, "run_injection_plan", spy)
        journal_dir = tmp_path / "journal"
        uninterrupted = AdaptiveCampaign(
            config, cache_dir=tmp_path / "cache1", journal_dir=journal_dir
        ).run_workload(get_workload(name), components=components)
        walked = list(windows)
        assert len(walked) > 2
        journal_path = next(journal_dir.glob("*.jsonl"))
        lines = journal_path.read_text().splitlines(keepends=True)
        assert len(lines) - 1 > keep + 1
        # Keep the header and ``keep`` records minus one interior line,
        # then tear the next record mid-line.
        kept = lines[: keep + 1]
        del kept[keep // 2]
        journal_path.write_text(
            "".join(kept) + lines[keep + 1][: len(lines[keep + 1]) // 2]
        )

        live: list = []
        run_fault_ex = parallel.ImageInjector.run_fault_ex

        def counting(injector, fault):
            live.append(fault)
            return run_fault_ex(injector, fault)

        monkeypatch.setattr(parallel.ImageInjector, "run_fault_ex", counting)
        windows.clear()
        resumed = AdaptiveCampaign(
            config,
            cache_dir=tmp_path / "cache2",
            journal_dir=journal_dir,
            resume=True,
        ).run_workload(get_workload(name), components=components)
        assert windows == walked
        assert _tallies(resumed) == _tallies(uninterrupted)
        after = journal_path.read_text().splitlines(keepends=True)
        assert after[: len(kept)] == kept
        appended = after[len(kept):]
        holes = _journal_keys(lines) - _journal_keys(kept)
        assert len(live) == len(appended) == len(holes)
        assert _journal_keys(appended) == holes


class TestAdaptiveTracing:
    def test_window_spans_share_one_campaign_root(self, tmp_path):
        from repro.observability.tracing import Tracer

        tracer = Tracer()
        campaign = AdaptiveCampaign(
            _adaptive_config(min_faults=5, max_faults=15, batch_size=5),
            cache_dir=tmp_path,
            tracer=tracer,
        )
        campaign.run_workload(
            get_workload("StringSearch"), components=(Component.L1D,)
        )
        assert campaign.diagnostics["StringSearch"].rounds > 1
        spans = tracer.drain()
        roots = [span for span in spans if span["name"] == "campaign"]
        windows = [span for span in spans if span["name"] == "window"]
        assert len(roots) == 1
        assert len(windows) == campaign.diagnostics["StringSearch"].rounds
        assert all(span["parent"] == roots[0]["span"] for span in windows)
