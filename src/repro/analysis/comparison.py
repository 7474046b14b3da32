"""Beam vs. fault-injection FIT comparison (Figures 6-10).

The paper's convention: for each code, divide the higher of the two FIT
rates by the lower; plot the value positive when the *beam* rate is higher
and negative when the *fault injection* rate is higher.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean

from repro.analysis.fit_model import InjectionFIT
from repro.beam.experiment import BeamResult
from repro.injection.classify import FaultEffect

#: Fallback floor when no detection limit is available.
_EPSILON_FIT = 1e-3


def signed_ratio(
    beam_fit: float,
    injection_fit_value: float,
    beam_floor: float = _EPSILON_FIT,
    injection_floor: float = _EPSILON_FIT,
) -> float:
    """max/min ratio, positive when beam is higher, negative otherwise.

    Zero rates are floored at the campaign's statistical *detection limit*
    (half the FIT a single observed event would contribute), so a "0 vs x"
    comparison reads as "at least x / limit" instead of blowing up against
    an arbitrary epsilon.
    """
    beam_value = max(beam_fit, beam_floor, _EPSILON_FIT)
    injection_value = max(injection_fit_value, injection_floor, _EPSILON_FIT)
    if beam_value >= injection_value:
        return beam_value / injection_value
    return -(injection_value / beam_value)


@dataclass(frozen=True)
class ComparisonRow:
    """One benchmark's beam-vs-injection comparison for one error class."""

    workload: str
    beam_fit: float
    injection_fit: float
    beam_floor: float = _EPSILON_FIT
    injection_floor: float = _EPSILON_FIT

    @property
    def ratio(self) -> float:
        """Signed beam/injection FIT ratio (positive = beam higher)."""
        return signed_ratio(
            self.beam_fit, self.injection_fit, self.beam_floor, self.injection_floor
        )

    @property
    def beam_higher(self) -> bool:
        """True when the beam measured a higher rate than injection."""
        return self.ratio >= 0

    @property
    def at_detection_limit(self) -> bool:
        """True when one side had zero events (ratio is a bound, not a value)."""
        return self.beam_fit <= 0 or self.injection_fit <= 0


def compare_combined(
    beam: dict[str, BeamResult],
    injection: dict[str, InjectionFIT],
    effects: tuple[FaultEffect, ...] = (FaultEffect.SDC, FaultEffect.APP_CRASH),
) -> list[ComparisonRow]:
    """Fig. 6-9 rows: per-benchmark ratio of the *sum* of ``effects``'
    FIT rates (one class in Figs. 6-8, SDC + Application Crash in Fig. 9)."""
    rows = []
    for name in beam:
        beam_total = sum(beam[name].fit(effect) for effect in effects)
        injection_total = sum(injection[name].fit(effect) for effect in effects)
        rows.append(
            ComparisonRow(
                workload=name,
                beam_fit=beam_total,
                injection_fit=injection_total,
                beam_floor=beam[name].detection_limit_fit(),
                injection_floor=injection[name].detection_limit,
            )
        )
    return rows


@dataclass(frozen=True)
class OverviewBar:
    """One cumulative-class bar pair of Fig. 10 (suite averages)."""

    label: str
    beam_mean_fit: float
    injection_mean_fit: float

    @property
    def ratio(self) -> float:
        """Signed ratio of the mean FIT rates behind this bar."""
        return signed_ratio(self.beam_mean_fit, self.injection_mean_fit)


def overview_aggregate(
    beam: dict[str, BeamResult], injection: dict[str, InjectionFIT]
) -> list[OverviewBar]:
    """Fig. 10: suite-average FIT, cumulatively adding crash classes."""
    stages = [
        ("SDC", (FaultEffect.SDC,)),
        ("SDC + AppCrash", (FaultEffect.SDC, FaultEffect.APP_CRASH)),
        (
            "Total (SDC + AppCrash + SysCrash)",
            (FaultEffect.SDC, FaultEffect.APP_CRASH, FaultEffect.SYS_CRASH),
        ),
    ]
    bars = []
    for label, effects in stages:
        beam_mean = mean(
            sum(result.fit(effect) for effect in effects) for result in beam.values()
        )
        injection_mean = mean(
            sum(result.fit(effect) for effect in effects)
            for result in injection.values()
        )
        bars.append(
            OverviewBar(
                label=label, beam_mean_fit=beam_mean, injection_mean_fit=injection_mean
            )
        )
    return bars
