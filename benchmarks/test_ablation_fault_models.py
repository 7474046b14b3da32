"""Ablation: single-bit vs multi-bit fault models (Section II discussion).

The paper notes that real strikes in modern technologies can flip multiple
adjacent bits, while injection campaigns typically use the single-bit
model - one of the identified sources of FIT underestimation.  This bench
measures how the non-masked fraction changes when every injection flips a
2-bit or 4-bit cluster instead of a single cell (the ``cluster_size``
option of :class:`repro.injection.CampaignConfig`).
"""

from __future__ import annotations

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

FAULTS = 30


def test_ablation_multibit_fault_model(benchmark, emit):
    def full_ablation():
        workload = get_workload("Susan E")
        golden = run_golden(workload, SCALED_A9_CONFIG)
        snapshots, _, _, _, _ = record_golden_observables(
            workload, SCALED_A9_CONFIG, golden, digest_count=0
        )
        faults = generate_faults(
            Component.L1D,
            component_bits(SCALED_A9_CONFIG, Component.L1D),
            golden.cycles,
            count=FAULTS,
            seed=33,
        )
        by_cluster = {}
        for bits in (1, 2, 4):
            counts: dict[FaultEffect, int] = {}
            for fault in faults:
                effect = run_single_injection(
                    workload,
                    fault,
                    SCALED_A9_CONFIG,
                    golden,
                    snapshots=snapshots,
                    cluster_size=bits,
                )
                counts[effect] = counts.get(effect, 0) + 1
            by_cluster[bits] = counts
        return by_cluster

    by_cluster = benchmark.pedantic(full_ablation, rounds=1, iterations=1)

    rows = []
    avf = {}
    for bits, counts in by_cluster.items():
        masked = counts.get(FaultEffect.MASKED, 0)
        avf[bits] = 1.0 - masked / FAULTS
        rows.append(
            (
                f"{bits}-bit flip",
                FAULTS,
                counts.get(FaultEffect.SDC, 0),
                counts.get(FaultEffect.APP_CRASH, 0),
                counts.get(FaultEffect.SYS_CRASH, 0),
                f"{avf[bits] * 100:.0f} %",
            )
        )
    emit(
        "ablation_fault_models",
        format_table(
            ("Fault model", "Injections", "SDC", "AppCrash", "SysCrash", "AVF"),
            rows,
            title="Ablation - single-bit vs multi-bit upsets (L1D, Susan E)",
        ),
    )

    # Wider clusters can only touch more live state: with the shared fault
    # list, the non-masked fraction is non-decreasing in cluster width.
    assert avf[2] >= avf[1]
    assert avf[4] >= avf[1]
