#!/usr/bin/env python3
"""Microarchitectural observability: where did the fault strike?

Section IV-C: unlike beam experiments, microarchitecture-level injection
"offers significant amount of observability, allowing distinction of where
exactly did the fault strike (e.g., whether it was on kernel or user mode
or data, whether the corrupted entry was used or not) but also detailed
information of what was the system effect."

This example runs a mini-campaign on the L1 data cache through the
injection engine and breaks the outcomes down by the strike site every
injection reports (``InjectionResult.site``): the privilege mode at the
flip and the memory region the struck line was holding - the analysis a
beam experiment fundamentally cannot produce.
"""

from collections import Counter, defaultdict

from repro import get_workload
from repro.injection.campaign import CampaignConfig, prepare_image
from repro.injection.components import Component, component_bits
from repro.injection.fault import generate_faults
from repro.injection.parallel import ImageInjector
from repro.microarch.config import SCALED_A9_CONFIG

FAULTS = 60


def main() -> None:
    workload = get_workload("Qsort")
    print(f"instrumented campaign: {FAULTS} L1D faults into {workload.name}\n")

    golden, image = prepare_image(workload, CampaignConfig())
    injector = ImageInjector(image)
    faults = generate_faults(
        Component.L1D,
        component_bits(SCALED_A9_CONFIG, Component.L1D),
        golden.cycles,
        count=FAULTS,
        seed=7,
    )

    by_region = defaultdict(Counter)
    modes = Counter()
    for fault in faults:
        result = injector.run_fault_ex(fault)
        region = result.site.region or "(invalid line)"
        by_region[region][result.effect.label] += 1
        modes[result.site.mode] += 1

    print(f"strike mode: {dict(modes)}\n")
    print(f"{'struck region':16s} {'strikes':>8s}  outcome breakdown")
    for region, outcomes in sorted(
        by_region.items(), key=lambda item: -sum(item[1].values())
    ):
        total = sum(outcomes.values())
        detail = ", ".join(f"{label} x{count}" for label, count in outcomes.items())
        print(f"{region:16s} {total:>8d}  {detail}")

    print(
        "\nreading: strikes on lines holding kernel text/data threaten the"
        "\nsystem; user data strikes produce SDCs; invalid lines mask."
    )


if __name__ == "__main__":
    main()
