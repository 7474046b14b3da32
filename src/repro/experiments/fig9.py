"""Figure 9: SDC + Application Crash combined FIT comparison."""

from __future__ import annotations

from repro.experiments.ratio import RatioFigure
from repro.injection.classify import FaultEffect

FIGURE = RatioFigure(
    (FaultEffect.SDC, FaultEffect.APP_CRASH),
    "Figure 9 - SDC + Application Crash FIT comparison (beam vs fault injection)",
)
data, render = FIGURE.data, FIGURE.render
