"""Figure 8: System Crash FIT comparison, beam vs. fault injection."""

from __future__ import annotations

from repro.experiments.ratio import RatioFigure
from repro.injection.classify import FaultEffect

FIGURE = RatioFigure(
    (FaultEffect.SYS_CRASH,),
    "Figure 8 - System Crash FIT comparison (beam vs fault injection)",
)
data, render = FIGURE.data, FIGURE.render
