"""Ablation: write-back vs write-through L1 data cache.

With write-through there are no dirty lines: an upset can never be written
back to memory, and clean-line evictions heal corruptions - so the L1D AVF
drops.  (The cost on a real machine is write-traffic; here we only measure
the reliability side.)
"""

from __future__ import annotations

import dataclasses

from repro.analysis.report import format_table
from repro.injection.campaign import (
    record_golden_observables,
    run_golden,
    run_single_injection,
)
from repro.injection.classify import FaultEffect
from repro.injection.components import Component, component_bits
from repro.injection.fault import generate_faults
from repro.microarch.config import SCALED_A9_CONFIG
from repro.workloads import get_workload

FAULTS = 40

WRITE_THROUGH_CONFIG = dataclasses.replace(
    SCALED_A9_CONFIG,
    name=SCALED_A9_CONFIG.name + "-wt",
    l1d=dataclasses.replace(SCALED_A9_CONFIG.l1d, write_through=True),
)


def campaign(machine) -> dict[FaultEffect, int]:
    workload = get_workload("Qsort")
    golden = run_golden(workload, machine)
    snapshots, _, _, _, _ = record_golden_observables(
        workload, machine, golden, digest_count=0
    )
    faults = generate_faults(
        Component.L1D,
        component_bits(machine, Component.L1D),
        golden.cycles,
        count=FAULTS,
        seed=55,
    )
    counts: dict[FaultEffect, int] = {}
    for fault in faults:
        effect = run_single_injection(
            workload, fault, machine, golden, snapshots=snapshots
        )
        counts[effect] = counts.get(effect, 0) + 1
    return counts


def test_ablation_write_policy(benchmark, emit):
    def run_both():
        return {
            "write-back": campaign(SCALED_A9_CONFIG),
            "write-through": campaign(WRITE_THROUGH_CONFIG),
        }

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)

    rows = []
    avf = {}
    for policy, counts in results.items():
        masked = counts.get(FaultEffect.MASKED, 0)
        avf[policy] = 1.0 - masked / FAULTS
        rows.append(
            (
                policy,
                FAULTS,
                counts.get(FaultEffect.SDC, 0),
                counts.get(FaultEffect.APP_CRASH, 0),
                counts.get(FaultEffect.SYS_CRASH, 0),
                f"{avf[policy] * 100:.0f} %",
            )
        )
    emit(
        "ablation_write_policy",
        format_table(
            ("L1D policy", "Injections", "SDC", "AppCrash", "SysCrash", "AVF"),
            rows,
            title="Ablation - write-back vs write-through L1D (Qsort)",
        ),
    )

    # Write-through can only help: same fault list, strictly fewer
    # propagation paths.
    assert avf["write-through"] <= avf["write-back"]
