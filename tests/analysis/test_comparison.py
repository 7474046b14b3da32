"""Beam-vs-injection comparison logic (Figures 6-10)."""

from __future__ import annotations

import pytest

from repro.analysis.comparison import (
    ComparisonRow,
    compare_combined,
    overview_aggregate,
    signed_ratio,
)
from repro.analysis.fit_model import InjectionFIT
from repro.beam.experiment import BeamResult
from repro.injection.classify import FaultEffect


def beam_result(name, sdc=0, app=0, sys_=0) -> BeamResult:
    return BeamResult(
        workload_name=name,
        beam_seconds=3600.0,
        fluence=1e9,
        golden_cycles=1,
        counts={
            FaultEffect.SDC: sdc,
            FaultEffect.APP_CRASH: app,
            FaultEffect.SYS_CRASH: sys_,
        },
    )


def injection(name, sdc=0.0, app=0.0, sys_=0.0) -> InjectionFIT:
    return InjectionFIT(
        workload=name,
        sdc=sdc,
        app_crash=app,
        sys_crash=sys_,
        by_component={},
        detection_limit=0.05,
    )


class TestSignedRatio:
    def test_beam_higher_is_positive(self):
        assert signed_ratio(10.0, 2.0) == pytest.approx(5.0)

    def test_injection_higher_is_negative(self):
        assert signed_ratio(2.0, 10.0) == pytest.approx(-5.0)

    def test_equal_is_one(self):
        assert signed_ratio(3.0, 3.0) == pytest.approx(1.0)

    def test_zero_beam_floored_at_detection_limit(self):
        ratio = signed_ratio(0.0, 1.0, beam_floor=0.1, injection_floor=0.01)
        assert ratio == pytest.approx(-10.0)

    def test_zero_both_is_unity_scale(self):
        ratio = signed_ratio(0.0, 0.0, beam_floor=0.1, injection_floor=0.1)
        assert abs(ratio) == pytest.approx(1.0)


class TestComparisonRow:
    def test_detection_limit_flag(self):
        row = ComparisonRow("X", beam_fit=0.0, injection_fit=1.0)
        assert row.at_detection_limit
        row = ComparisonRow("X", beam_fit=1.0, injection_fit=1.0)
        assert not row.at_detection_limit


class TestCompareClass:
    def test_rows_cover_all_workloads(self):
        beam = {"A": beam_result("A", sdc=2), "B": beam_result("B", sdc=4)}
        fits = {"A": injection("A", sdc=1.0), "B": injection("B", sdc=100.0)}
        rows = compare_combined(beam, fits, (FaultEffect.SDC,))
        assert [row.workload for row in rows] == ["A", "B"]
        assert rows[0].beam_higher
        assert not rows[1].beam_higher

    def test_combined_sums_classes(self):
        beam = {"A": beam_result("A", sdc=1, app=1)}
        fits = {"A": injection("A", sdc=1.0, app=1.0)}
        rows = compare_combined(beam, fits)
        expected = beam["A"].fit(FaultEffect.SDC) + beam["A"].fit(
            FaultEffect.APP_CRASH
        )
        assert rows[0].beam_fit == pytest.approx(expected)
        assert rows[0].injection_fit == pytest.approx(2.0)


class TestOverview:
    def test_three_cumulative_stages(self):
        beam = {"A": beam_result("A", sdc=1, app=2, sys_=4)}
        fits = {"A": injection("A", sdc=1.0, app=0.5, sys_=0.1)}
        bars = overview_aggregate(beam, fits)
        assert len(bars) == 3
        labels = [bar.label for bar in bars]
        assert labels[0] == "SDC"
        assert "SysCrash" in labels[2]
        # Cumulative means are non-decreasing.
        assert bars[0].beam_mean_fit <= bars[1].beam_mean_fit <= bars[2].beam_mean_fit
        assert (
            bars[0].injection_mean_fit
            <= bars[1].injection_mean_fit
            <= bars[2].injection_mean_fit
        )

    def test_suite_averaging(self):
        beam = {
            "A": beam_result("A", sdc=2),
            "B": beam_result("B", sdc=4),
        }
        fits = {
            "A": injection("A", sdc=1.0),
            "B": injection("B", sdc=3.0),
        }
        bars = overview_aggregate(beam, fits)
        expected_beam = (
            beam["A"].fit(FaultEffect.SDC) + beam["B"].fit(FaultEffect.SDC)
        ) / 2
        assert bars[0].beam_mean_fit == pytest.approx(expected_beam)
        assert bars[0].injection_mean_fit == pytest.approx(2.0)
