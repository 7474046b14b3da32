"""Figure 7: Application Crash FIT comparison, beam vs. fault injection."""

from __future__ import annotations

from repro.experiments.ratio import RatioFigure
from repro.injection.classify import FaultEffect

FIGURE = RatioFigure(
    (FaultEffect.APP_CRASH,),
    "Figure 7 - Application Crash FIT comparison (beam vs fault injection)",
)
data, render = FIGURE.data, FIGURE.render
