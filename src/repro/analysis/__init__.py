"""Analysis: AVF aggregation, AVF-to-FIT conversion, beam-vs-FI comparison,
and the ASCII renderers used to regenerate the paper's tables and figures.
"""

from repro.analysis.avf import AVFBreakdown, avf_breakdown
from repro.analysis.fit_model import InjectionFIT, injection_fit
from repro.analysis.comparison import (
    ComparisonRow,
    compare_combined,
    overview_aggregate,
    signed_ratio,
)
from repro.analysis.report import bar_chart, format_table, signed_bar_chart

__all__ = [
    "AVFBreakdown",
    "avf_breakdown",
    "InjectionFIT",
    "injection_fit",
    "ComparisonRow",
    "compare_combined",
    "overview_aggregate",
    "signed_ratio",
    "bar_chart",
    "format_table",
    "signed_bar_chart",
]
