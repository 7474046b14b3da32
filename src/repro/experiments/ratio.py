"""The per-benchmark FIT ratio figures (Figures 6-9), beam vs. injection.

Each figure compares, benchmark by benchmark, the summed FIT rate of some
error classes as the beam measured it against the fault-injection
prediction; the figures differ only in those classes and their title.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.comparison import ComparisonRow, compare_combined
from repro.analysis.report import signed_bar_chart
from repro.experiments.runner import ExperimentContext, get_context
from repro.injection.classify import FaultEffect


@dataclass(frozen=True)
class RatioFigure:
    """One ratio figure: the error classes it sums, and its title."""

    effects: tuple[FaultEffect, ...]
    title: str

    def data(self, context: ExperimentContext | None = None) -> list[ComparisonRow]:
        context = context or get_context()
        return compare_combined(
            context.beam_results(), context.injection_fits(), self.effects
        )

    def render(self, context: ExperimentContext | None = None) -> str:
        rows = self.data(context)
        chart = signed_bar_chart(
            [(row.workload, row.ratio) for row in rows], title=self.title
        )
        detail = "\n".join(
            f"  {row.workload:14s} beam={row.beam_fit:8.2f} FIT   "
            f"injection={row.injection_fit:8.2f} FIT"
            for row in rows
        )
        return chart + "\n" + detail
