"""Early-Masked-termination speedup: pruned vs full injection throughput.

Runs the same seed-deterministic fault plan twice at ``jobs=1`` - once
with early termination (golden-digest convergence + dead-cell
short-circuits) and once without - on the masked-heavy L2 and L1I
components and on REGFILE, DTLB and ITLB, whose rename slots, invalid
entries and attribute bits end dead-cell - asserts the per-fault effect
lists are byte-identical (the equivalence guarantee), and requires the
pruned run to sustain at least 1.5x the injections/sec of the full run.
"""

from __future__ import annotations

import time

from repro.injection.campaign import record_golden_observables, run_golden
from repro.injection.components import Component, component_bits
from repro.injection.fault import generate_faults
from repro.injection.parallel import EngineOptions, MachineImage, run_injection_plan
from repro.injection.telemetry import CampaignTelemetry
from repro.microarch.config import SCALED_A9_CONFIG
from repro.workloads import get_workload

FAULTS_PER_COMPONENT = 40
COMPONENTS = (
    Component.L2,
    Component.L1I,
    Component.REGFILE,
    Component.DTLB,
    Component.ITLB,
)
SPEEDUP_BAR = 1.5


def _build():
    workload = get_workload("StringSearch")
    golden = run_golden(workload, SCALED_A9_CONFIG)
    snapshots, digests, _, _, _ = record_golden_observables(
        workload, SCALED_A9_CONFIG, golden
    )
    pruned = MachineImage(
        workload.name, workload.program(SCALED_A9_CONFIG.layout),
        SCALED_A9_CONFIG, golden.cycles, golden.output, snapshots,
        digests=digests,
        engine=EngineOptions(early_exit=True, lifetime_events=False),
    )
    full = MachineImage(
        workload.name, workload.program(SCALED_A9_CONFIG.layout),
        SCALED_A9_CONFIG, golden.cycles, golden.output, snapshots,
        engine=EngineOptions(early_exit=False, lifetime_events=False),
    )
    plan = {
        component: generate_faults(
            component,
            component_bits(SCALED_A9_CONFIG, component),
            golden.cycles,
            count=FAULTS_PER_COMPONENT,
            seed=9,
        )
        for component in COMPONENTS
    }
    return pruned, full, plan


def test_early_exit_speedup(benchmark):
    """Same plan, jobs=1: identical effects, >= 1.5x injections/sec."""
    pruned_image, full_image, plan = _build()
    total = sum(len(faults) for faults in plan.values())

    rounds: list[CampaignTelemetry] = []

    def pruned_round():
        # One telemetry per round, so the envelope's exit counts
        # describe one pass over the plan.
        rounds.append(CampaignTelemetry())
        return run_injection_plan(
            pruned_image, plan, jobs=1, telemetry=rounds[-1]
        )

    pruned_effects = benchmark.pedantic(pruned_round, rounds=3, iterations=1)
    pruned_seconds = benchmark.stats.stats.mean
    telemetry = rounds[-1]

    start = time.perf_counter()
    full_effects = run_injection_plan(full_image, plan, jobs=1)
    full_seconds = time.perf_counter() - start

    speedup = full_seconds / pruned_seconds
    benchmark.extra_info["injections"] = total
    benchmark.extra_info["pruned_inj_per_sec"] = round(
        total / pruned_seconds, 2
    )
    benchmark.extra_info["full_inj_per_sec"] = round(total / full_seconds, 2)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["digest_exits"] = telemetry.ended_digest
    benchmark.extra_info["dead_cell_exits"] = telemetry.ended_dead_cell
    benchmark.extra_info["cycles_saved"] = telemetry.cycles_saved

    # The equivalence guarantee: pruning never changes any effect.
    assert pruned_effects == full_effects
    # The pruning must have actually fired on a masked-heavy plan.
    assert telemetry.ended_digest + telemetry.ended_dead_cell > 0
    assert speedup >= SPEEDUP_BAR, (
        f"early-exit speedup {speedup:.2f}x below the {SPEEDUP_BAR}x bar "
        f"({total} injections, {telemetry.ended_digest} digest-converged, "
        f"{telemetry.ended_dead_cell} dead-cell)"
    )
