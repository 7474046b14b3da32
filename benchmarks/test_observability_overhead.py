"""Structured-tracing overhead: armed throughput >= 0.95x of tracing-off.

Tracing exists to be left on for whole fabric campaigns, so it must be
effectively free.  The design makes it cheap by construction - the hot
loops only ever test a ``tracer is not None`` local, and spans are
minted per leased *window*, never per injection - and this benchmark
pins that property: the same mini-campaign with a live
:class:`~repro.observability.tracing.Tracer` must keep at least 95% of
the tracing-off throughput, with byte-identical effects (tracing is pure
observation).
"""

from __future__ import annotations

import time

from repro.injection.campaign import (
    record_golden_observables,
    run_golden,
)
from repro.injection.components import Component, component_bits
from repro.injection.fault import generate_faults
from repro.injection.parallel import EngineOptions, MachineImage, run_injection_plan
from repro.microarch.config import SCALED_A9_CONFIG
from repro.observability.tracing import Tracer
from repro.workloads import get_workload

FAULTS_PER_COMPONENT = 24
COMPONENTS = (Component.REGFILE, Component.L1D, Component.DTLB)


def _min_seconds(fn, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_tracing_overhead(benchmark):
    """Armed-tracer campaign throughput >= 0.95x of ``tracer=None``."""
    workload = get_workload("StringSearch")
    golden = run_golden(workload, SCALED_A9_CONFIG)
    snapshots, _, _, _, _ = record_golden_observables(
        workload, SCALED_A9_CONFIG, golden, digest_count=0
    )
    image = MachineImage(
        workload.name, workload.program(SCALED_A9_CONFIG.layout),
        SCALED_A9_CONFIG, golden.cycles, golden.output, snapshots,
        engine=EngineOptions(lifetime_events=False),
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
    total = sum(len(faults) for faults in plan.values())

    tracer = Tracer()

    def armed():
        # Drain between rounds so the finished-span list cannot grow
        # without bound and distort later rounds.
        tracer.drain()
        return run_injection_plan(image, plan, jobs=1, tracer=tracer)

    effects_armed = benchmark.pedantic(
        armed, rounds=3, iterations=1, warmup_rounds=1
    )
    armed_seconds = benchmark.stats.stats.min
    spans = tracer.drain()

    effects_off = run_injection_plan(image, plan, jobs=1)
    off_seconds = _min_seconds(
        lambda: run_injection_plan(image, plan, jobs=1), rounds=3
    )

    ratio = off_seconds / armed_seconds
    benchmark.extra_info["injections"] = total
    benchmark.extra_info["spans_per_run"] = len(spans)
    benchmark.extra_info["tracing_off_seconds"] = round(off_seconds, 4)
    benchmark.extra_info["tracing_on_seconds"] = round(armed_seconds, 4)
    benchmark.extra_info["throughput_ratio"] = round(ratio, 4)

    # One span per component window, never one per injection.
    assert len(spans) == len(COMPONENTS)
    assert effects_armed == effects_off, (
        "an armed tracer changed an injection classification"
    )
    assert ratio >= 0.95, (
        f"tracing-armed throughput is {ratio:.3f}x of tracing-off "
        f"(floor 0.95x)"
    )
