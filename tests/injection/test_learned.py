"""Learned importance sampling: model, plan, estimator, and campaign tests.

Three layers:

1. Unit tests for the stdlib Naive Bayes, the bin assignment, the
   credit interleave, and the stratified estimator arithmetic.
2. Hypothesis property tests that the stratified post-corrected
   estimator stays statistically compatible with the plain (uncorrected)
   estimate on synthetic fault populations with *known* ground truth -
   the unbiasedness argument of docs/SAMPLING.md, executed.
3. Slow end-to-end tests mirroring the plain adaptive suite: identical
   reported results across jobs/batch sizes, bit-identical resume at
   arbitrary (non-batch-aligned) truncation points, and the calibration
   diagnostics that keep the model honest.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.injection.adaptive import AdaptiveCampaign
from repro.injection.campaign import CampaignConfig
from repro.injection.classify import FaultEffect
from repro.injection.components import Component, component_bits
from repro.injection.fault import Fault, FaultStream
from repro.injection.learned import (
    BIN_EDGES,
    MIN_CLASS_SAMPLES,
    CalibrationBuckets,
    FeatureExtractor,
    LearnedPlanner,
    MaskedPredictor,
    _interleave,
    assign_bin,
)
from repro.injection.sampling import (
    stratified_half_width,
    stratified_rate,
    wilson_half_width,
)
from repro.microarch.config import SCALED_A9_CONFIG
from repro.workloads import get_workload

MACHINE = SCALED_A9_CONFIG


class TestAssignBin:
    def test_edges_partition_the_unit_interval(self):
        assert assign_bin(0.0, (0.35, 0.85)) == 0
        assert assign_bin(0.34, (0.35, 0.85)) == 0
        assert assign_bin(0.35, (0.35, 0.85)) == 1
        assert assign_bin(0.84, (0.35, 0.85)) == 1
        assert assign_bin(0.85, (0.35, 0.85)) == 2
        assert assign_bin(1.0, (0.35, 0.85)) == 2

    @given(prob=st.floats(0.0, 1.0))
    def test_every_probability_lands_in_exactly_one_bin(self, prob):
        index = assign_bin(prob, BIN_EDGES)
        assert 0 <= index <= len(BIN_EDGES)


class TestMaskedPredictor:
    def test_untrained_predicts_half(self):
        assert MaskedPredictor().predict((("a", "x"),)) == 0.5

    def test_learns_a_separable_feature(self):
        predictor = MaskedPredictor()
        predictor.train(
            [((("hot", "1"),), False)] * 5 + [((("hot", "0"),), True)] * 5
        )
        assert predictor.predict((("hot", "0"),)) > 0.8
        assert predictor.predict((("hot", "1"),)) < 0.2

    def test_probabilities_never_saturate(self):
        predictor = MaskedPredictor()
        predictor.train([((("a", "x"),), True)] * 50)
        prob = predictor.predict((("a", "x"),))
        assert 0.0 < prob < 1.0

    def test_digest_is_order_independent_and_content_sensitive(self):
        samples = [
            ((("a", "x"), ("b", "y")), True),
            ((("a", "z"),), False),
            ((("b", "y"),), True),
        ]
        forward, backward = MaskedPredictor(), MaskedPredictor()
        forward.train(samples)
        backward.train(reversed(samples))
        assert forward.digest() == backward.digest()
        extended = MaskedPredictor()
        extended.train(samples + [((("a", "x"),), False)])
        assert extended.digest() != forward.digest()


class TestInterleave:
    def test_is_a_permutation_preserving_within_bin_order(self):
        members = [[0, 2, 4], [1, 3, 5, 7], [6, 8]]
        order = _interleave(members, [0.2, 0.5, 0.3])
        assert sorted(order) == sorted(sum(members, []))
        for group in members:
            positions = [order.index(item) for item in group]
            assert positions == sorted(positions)

    def test_prefix_shares_track_weights(self):
        members = [list(range(0, 100)), list(range(100, 200))]
        order = _interleave(members, [0.75, 0.25])
        prefix = order[:40]
        heavy = sum(1 for item in prefix if item < 100)
        assert 25 <= heavy <= 35  # ~75% of 40, +/- rounding drift

    def test_exhausted_bins_drop_out(self):
        order = _interleave([[0], list(range(1, 10))], [0.9, 0.1])
        assert sorted(order) == list(range(10))


class TestStratifiedEstimator:
    def test_recovers_exact_population_rate_from_full_census(self):
        # Two strata fully enumerated: the estimate IS the population rate.
        assert stratified_rate([30, 5], [60, 40], [0.6, 0.4]) == pytest.approx(
            0.6 * 0.5 + 0.4 * 0.125
        )

    def test_oversampling_one_stratum_does_not_move_the_estimate(self):
        balanced = stratified_rate([10, 10], [20, 20], [0.5, 0.5])
        skewed = stratified_rate([50, 10], [100, 20], [0.5, 0.5])
        assert balanced == pytest.approx(skewed)

    def test_half_width_is_rss_of_weighted_bin_widths(self):
        widths = stratified_half_width([5, 2], [20, 10], [0.7, 0.3])
        expected = math.sqrt(
            (0.7 * wilson_half_width(5, 20)) ** 2
            + (0.3 * wilson_half_width(2, 10)) ** 2
        )
        assert widths == pytest.approx(expected)

    def test_unsampled_bin_means_infinite_width(self):
        assert math.isinf(stratified_half_width([5, 0], [20, 0], [0.7, 0.3]))

    @given(
        rates=st.lists(st.floats(0.05, 0.95), min_size=2, max_size=4),
        sizes=st.lists(st.integers(50, 400), min_size=2, max_size=4),
        oversample=st.integers(1, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_estimator_is_unbiased_under_disproportionate_sampling(
        self, rates, sizes, oversample
    ):
        """Known ground truth: strata with exact per-stratum rates.  The
        stratified estimate equals the true population rate regardless of
        how disproportionately the strata are sampled - the core
        unbiasedness property importance sampling relies on."""
        bins = min(len(rates), len(sizes))
        rates, sizes = rates[:bins], sizes[:bins]
        population = sum(sizes)
        weights = [size / population for size in sizes]
        truth = sum(w * r for w, r in zip(weights, rates))
        # Deterministic "sampling": each stratum contributes its exact
        # rate at whatever sample size the sampler chose to spend on it.
        trials = [
            max(1, size // (oversample if index % 2 else 1))
            for index, size in enumerate(sizes)
        ]
        successes = [round(rate * n) for rate, n in zip(rates, trials)]
        estimate = stratified_rate(successes, trials, weights)
        exact = sum(
            w * (s / n) for w, s, n in zip(weights, successes, trials)
        )
        assert estimate == pytest.approx(exact)
        # Rounding of successes is the only distance from ground truth.
        assert abs(estimate - truth) <= sum(
            w * 0.5 / n for w, n in zip(weights, trials)
        ) + 1e-9


class TestCalibrationBuckets:
    def test_rows_report_mean_prediction_and_actual_rate(self):
        buckets = CalibrationBuckets()
        for prob, masked in ((0.1, False), (0.2, False), (0.9, True), (0.8, True)):
            buckets.add(prob, masked)
        rows = buckets.rows()
        assert [row["n"] for row in rows] == [2, 2]
        low, high = rows
        assert low["predicted"] == pytest.approx(0.15)
        assert low["actual"] == 0.0
        assert high["predicted"] == pytest.approx(0.85)
        assert high["actual"] == 1.0
        assert buckets.total == 4

    def test_to_dict_round_trips_through_json_shapes(self):
        buckets = CalibrationBuckets()
        buckets.add(0.6, True)
        payload = buckets.to_dict()
        assert payload["edges"] == [0.25, 0.5, 0.75]
        assert payload["rows"][0]["n"] == 1


class TestFeatureExtractor:
    def test_degrades_to_unknown_without_activity(self):
        extractor = FeatureExtractor(MACHINE, golden_cycles=100_000)
        fault = Fault(component=Component.L1D, bit_index=1000, cycle=5000)
        features = dict(extractor.features(fault))
        assert features["resident"] == "?"
        assert features["next_read"] == "?"
        assert features["region"].isdigit()
        assert features["phase"] == "0"

    def test_regfile_features_distinguish_arch_from_rename(self):
        extractor = FeatureExtractor(MACHINE, golden_cycles=100_000)
        arch = dict(
            extractor.features(
                Fault(component=Component.REGFILE, bit_index=0, cycle=0)
            )
        )
        assert (arch["bank"], arch["slot"]) == ("int", "arch")
        bits = component_bits(MACHINE, Component.REGFILE)
        tail = dict(
            extractor.features(
                Fault(component=Component.REGFILE, bit_index=bits - 1, cycle=0)
            )
        )
        assert tail["bank"] == "fp"


def _pilot(stream, n, effects):
    faults = stream.take(n)
    return list(zip(faults, effects))


class TestLearnedPlanner:
    def _planner(self, pilot_n=10, max_faults=60):
        extractor = FeatureExtractor(MACHINE, golden_cycles=100_000)
        return LearnedPlanner(
            extractor=extractor, pilot_n=pilot_n, max_faults=max_faults
        )

    def _stream(self, component=Component.REGFILE):
        return FaultStream(
            component, component_bits(MACHINE, component), 100_000, seed=3
        )

    def test_single_class_pilot_falls_back(self):
        planner, stream = self._planner(), self._stream()
        outcomes = _pilot(stream, 10, [FaultEffect.MASKED] * 10)
        assert planner.plan(stream, outcomes) is None

    def test_too_few_minority_samples_fall_back(self):
        planner, stream = self._planner(), self._stream()
        effects = [FaultEffect.MASKED] * (10 - (MIN_CLASS_SAMPLES - 1)) + [
            FaultEffect.SDC
        ] * (MIN_CLASS_SAMPLES - 1)
        assert planner.plan(stream, _pilot(stream, 10, effects)) is None

    def test_empty_frame_falls_back(self):
        planner = self._planner(pilot_n=10, max_faults=10)
        stream = self._stream()
        effects = [FaultEffect.MASKED] * 5 + [FaultEffect.SDC] * 5
        assert planner.plan(stream, _pilot(stream, 10, effects)) is None

    def _mixed_plan(self):
        planner, stream = self._planner(pilot_n=20, max_faults=80), self._stream()
        effects = [FaultEffect.MASKED] * 14 + [FaultEffect.SDC] * 6
        return planner.plan(stream, _pilot(stream, 20, effects)), stream

    def test_plan_is_a_permutation_of_the_frame(self):
        plan, _stream = self._mixed_plan()
        assert plan is not None
        assert sorted(plan.order) == list(range(20, 80))
        assert sum(plan.weights) == pytest.approx(1.0)
        assert plan.n_bins >= 2

    def test_positions_visit_every_global_index_once(self):
        plan, _stream = self._mixed_plan()
        globals_ = [plan.global_for(position) for position in range(80)]
        assert globals_[:20] == list(range(20))  # the pilot, in stream order
        assert sorted(globals_) == list(range(80))

    def test_plan_is_deterministic(self):
        first, _ = self._mixed_plan()
        second, _ = self._mixed_plan()
        assert first == second
        assert first.model_digest == second.model_digest


def _learned_config(**overrides) -> CampaignConfig:
    defaults = dict(
        target_margin=0.1,
        confidence=0.99,
        batch_size=10,
        min_faults=30,
        max_faults=200,
        seed=9,
        jobs=2,
        learned_sampling=True,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


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


class TestCacheKey:
    def test_learned_campaigns_get_their_own_cache_key(self):
        plain = _learned_config(learned_sampling=False)
        learned = _learned_config()
        crc32 = get_workload("CRC32")
        assert plain.cache_key(crc32) != learned.cache_key(crc32)


COMPONENTS = (Component.L1D,)


@pytest.mark.slow
class TestLearnedCampaignLive:
    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        campaign = AdaptiveCampaign(
            _learned_config(), cache_dir=tmp_path_factory.mktemp("cache")
        )
        result = campaign.run_workload(
            get_workload("CRC32"), components=COMPONENTS
        )
        return campaign, result

    def test_stratum_trains_and_reports_calibration(self, reference):
        campaign, _result = reference
        status = campaign.diagnostics["CRC32"].to_dict()["strata"]["L1D"]
        assert status["mode"] == "learned"
        assert status["bins"] >= 2
        assert status["model_digest"]
        assert status["calibration"]["rows"]

    def test_estimates_feed_the_component_result(self, reference):
        _campaign, result = reference
        tally = result.components[Component.L1D]
        assert tally.estimates is not None
        assert "AVF" in tally.estimates
        assert tally.avf == pytest.approx(1.0 - tally.estimates["MASKED"])
        assert 0.0 <= tally.avf <= 1.0

    def test_learned_avf_is_compatible_with_plain_adaptive(
        self, reference, tmp_path_factory
    ):
        """The unbiasedness bar at campaign scale: plain and learned runs
        of the same stratum agree within each other's intervals."""
        campaign, result = reference
        plain = AdaptiveCampaign(
            _learned_config(learned_sampling=False),
            cache_dir=tmp_path_factory.mktemp("plain"),
        )
        plain_result = plain.run_workload(
            get_workload("CRC32"), components=COMPONENTS
        )
        ours = result.components[Component.L1D]
        theirs = plain_result.components[Component.L1D]
        assert abs(ours.avf - theirs.avf) <= min(ours.margin, theirs.margin)

    def test_identical_results_across_jobs_and_batch_sizes(
        self, reference, tmp_path_factory
    ):
        """The determinism contract with importance sampling on: reported
        tallies, estimates, and the model digest never depend on the
        execution geometry."""
        campaign, result = reference
        expected = _tallies(result)
        digest = campaign.diagnostics["CRC32"].to_dict()["strata"]["L1D"][
            "model_digest"
        ]
        for jobs, batch in ((1, 10), (4, 7), (2, 23)):
            again_campaign = AdaptiveCampaign(
                _learned_config(jobs=jobs, batch_size=batch),
                cache_dir=tmp_path_factory.mktemp(f"cache-{jobs}-{batch}"),
            )
            again = again_campaign.run_workload(
                get_workload("CRC32"), components=COMPONENTS
            )
            assert _tallies(again) == expected, (
                f"learned result changed under jobs={jobs} batch={batch}"
            )
            status = again_campaign.diagnostics["CRC32"].to_dict()["strata"][
                "L1D"
            ]
            assert status["model_digest"] == digest


@pytest.mark.slow
class TestLearnedResume:
    @pytest.mark.parametrize("keep", [12, 45])
    def test_resume_is_bit_identical_at_arbitrary_cuts(self, tmp_path, keep):
        """Truncate the journal mid-pilot (before the model exists) and
        mid-frame (after it), resume with a different batch size, and
        require the identical reported result."""
        journal_dir = tmp_path / "journal"
        first = AdaptiveCampaign(
            _learned_config(),
            cache_dir=tmp_path / "cache1",
            journal_dir=journal_dir,
        )
        uninterrupted = first.run_workload(
            get_workload("CRC32"), components=COMPONENTS
        )
        journal_path = next(journal_dir.glob("*.jsonl"))
        # A learned-specific journal: plain campaigns key another file.
        assert journal_path.stem == _learned_config().cache_key(get_workload("CRC32"))
        assert journal_path.stem != _learned_config(learned_sampling=False).cache_key(
            get_workload("CRC32")
        )
        lines = journal_path.read_text().splitlines(keepends=True)
        assert len(lines) - 1 > keep
        journal_path.write_text("".join(lines[: keep + 1]))

        resumed = AdaptiveCampaign(
            _learned_config(batch_size=17),
            cache_dir=tmp_path / "cache2",
            journal_dir=journal_dir,
            resume=True,
        )
        again = resumed.run_workload(
            get_workload("CRC32"), components=COMPONENTS
        )
        assert _tallies(again) == _tallies(uninterrupted)
