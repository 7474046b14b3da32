"""Campaign engine throughput: injections/sec, serial vs. parallel.

Measures the end-to-end rate of the parallel campaign engine on a live
(uncached) mini-campaign and records the parallel speedup in
``extra_info``.  The >= 1.8x speedup acceptance bar is only asserted on
machines with at least four cores - a single-core container cannot
exhibit parallelism, only pool overhead - but the byte-identical-results
guarantee is asserted everywhere.
"""

from __future__ import annotations

import os
import statistics
import time

from repro.injection.campaign import (
    record_golden_observables,
    run_golden,
)
from repro.injection.components import Component, component_bits
from repro.injection.fault import generate_faults
from repro.injection.journal import RecordBuffer
from repro.injection.parallel import EngineOptions, MachineImage, run_injection_plan
from repro.microarch.config import SCALED_A9_CONFIG
from repro.workloads import get_workload

#: Enough work to amortize pool start-up, small enough for a quick bench.
FAULTS_PER_COMPONENT = 24
COMPONENTS = (Component.REGFILE, Component.L1D, Component.DTLB)


def _build_plan():
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
    return image, plan


def test_campaign_throughput_serial_vs_parallel(benchmark):
    """Injections/sec at jobs=1 vs jobs=cpu_count; speedup in extra_info."""
    image, plan = _build_plan()
    total = sum(len(faults) for faults in plan.values())
    cores = os.cpu_count() or 1

    serial_effects = benchmark.pedantic(
        lambda: run_injection_plan(image, plan, jobs=1), rounds=3, iterations=1
    )
    serial_seconds = benchmark.stats.stats.mean

    start = time.perf_counter()
    parallel_effects = run_injection_plan(image, plan, jobs=cores)
    parallel_seconds = time.perf_counter() - start

    speedup = serial_seconds / parallel_seconds
    benchmark.extra_info["injections"] = total
    benchmark.extra_info["translate"] = image.engine.translate
    benchmark.extra_info["serial_inj_per_sec"] = round(total / serial_seconds, 2)
    benchmark.extra_info["parallel_jobs"] = cores
    benchmark.extra_info["parallel_inj_per_sec"] = round(
        total / parallel_seconds, 2
    )
    benchmark.extra_info["speedup"] = round(speedup, 2)

    # Determinism holds at any worker count, on any machine.
    assert parallel_effects == serial_effects
    # The speedup bar only makes sense where parallelism is available.
    if cores >= 4:
        assert speedup >= 1.8, (
            f"parallel campaign speedup {speedup:.2f}x below the 1.8x bar "
            f"on a {cores}-core machine"
        )


def _min_seconds(fn, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


#: Interleaved events-off/events-on pairs the overhead gate reads.
OVERHEAD_PAIRS = 5


def test_lifetime_event_overhead(benchmark):
    """Fault-lifetime event collection must cost < 15% campaign throughput.

    Runs the same mini-campaign with and without
    ``EngineOptions.lifetime_events`` (everything else identical, early exit on
    in both) and bounds the slowdown.  Effects must be byte-identical -
    events are pure observation.

    The two sides run in interleaved pairs (which side goes first
    alternates from pair to pair) and the gate reads the median of the
    per-pair on/off ratios, so a burst of host load lands on one pair
    instead of on one whole side of the comparison.

    Both images disable the basic-block translator so the budget
    isolates the cost of the event collection itself, interpreter vs
    interpreter.  (The translated engine's behavior under armed probes -
    probe-replaying variants for data-side taint, interpretation while
    a regfile or fetch-side probe is armed - is measured separately by
    ``test_lifetime_campaign_translation_speedup``.)
    """
    workload = get_workload("StringSearch")
    golden = run_golden(workload, SCALED_A9_CONFIG)
    snapshots, digests, arch_digests, _, _ = record_golden_observables(
        workload, SCALED_A9_CONFIG, golden
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
    images = {
        "off": MachineImage(
            workload.name, workload.program(SCALED_A9_CONFIG.layout),
            SCALED_A9_CONFIG, golden.cycles, golden.output, snapshots,
            digests=digests,
            engine=EngineOptions(translate=False, lifetime_events=False),
        ),
        "on": MachineImage(
            workload.name,
            workload.program(SCALED_A9_CONFIG.layout),
            SCALED_A9_CONFIG,
            golden.cycles,
            golden.output,
            snapshots,
            digests=digests,
            arch_digests=arch_digests,
            engine=EngineOptions(translate=False, lifetime_events=True),
        ),
    }
    # Warm-up runs, one per side; they also give the effects compared below.
    effects = {
        side: run_injection_plan(image, plan, jobs=1)
        for side, image in images.items()
    }
    seconds: dict[str, list[float]] = {"off": [], "on": []}
    ratios: list[float] = []

    def pair() -> None:
        sides = ["off", "on"] if len(ratios) % 2 == 0 else ["on", "off"]
        for side in sides:
            start = time.perf_counter()
            run_injection_plan(images[side], plan, jobs=1)
            seconds[side].append(time.perf_counter() - start)
        ratios.append(seconds["on"][-1] / seconds["off"][-1])

    benchmark.pedantic(pair, rounds=OVERHEAD_PAIRS, iterations=1)
    overhead = statistics.median(ratios) - 1.0
    benchmark.extra_info["baseline_seconds"] = round(
        statistics.median(seconds["off"]), 4
    )
    benchmark.extra_info["with_events_seconds"] = round(
        statistics.median(seconds["on"]), 4
    )
    benchmark.extra_info["pair_ratios"] = [round(ratio, 4) for ratio in ratios]
    benchmark.extra_info["overhead_percent"] = round(overhead * 100, 2)

    assert effects["on"] == effects["off"], (
        "fault-lifetime events changed an injection classification"
    )
    assert overhead < 0.15, (
        f"fault-lifetime event overhead {overhead * 100:.1f}% exceeds "
        f"the 15% budget (median of {len(ratios)} paired ratios)"
    )


#: Translated-vs-interpreter floor for a lifetime-event campaign.  Taint
#: probes used to force full interpretation; probe-replaying variants
#: (data-side taint) keep the translated speedup with events on, and a
#: regfile probe interprets only until the flipped register's first
#: read (flips into unread registers end at the flip).  Conservative:
#: same-box measurements run well above this (~4x).
LIFETIME_SPEEDUP_BAR = 3.0


def test_lifetime_campaign_translation_speedup(benchmark):
    """Translation must keep >= 3x throughput with lifetime events on.

    The same mini-campaign (lifetime events armed, early exit on) runs
    once on the translated engine and once interpreter-only.  Every
    injection arms taint probes for its component: L1D and DTLB faults
    exercise the probe-replaying translated variants; REGFILE faults
    interpret while the regfile probe is armed and translate again once
    it uninstalls at the first read.  Effects and the recorded lifetime-event
    streams must be byte-identical - the speedup may never cost
    observation fidelity.
    """
    workload = get_workload("StringSearch")
    golden = run_golden(workload, SCALED_A9_CONFIG)
    snapshots, digests, arch_digests, _, _ = record_golden_observables(
        workload, SCALED_A9_CONFIG, golden
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

    def capture(translate: bool) -> MachineImage:
        return MachineImage(
            workload.name,
            workload.program(SCALED_A9_CONFIG.layout),
            SCALED_A9_CONFIG,
            golden.cycles,
            golden.output,
            snapshots,
            digests=digests,
            arch_digests=arch_digests,
            engine=EngineOptions(translate=translate, lifetime_events=True),
        )

    image_translated = capture(True)
    image_interp = capture(False)
    total = sum(len(faults) for faults in plan.values())

    translated_effects = benchmark.pedantic(
        lambda: run_injection_plan(image_translated, plan, jobs=1),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    translated_seconds = benchmark.stats.stats.min
    interp_effects = run_injection_plan(image_interp, plan, jobs=1)
    interp_seconds = _min_seconds(
        lambda: run_injection_plan(image_interp, plan, jobs=1), rounds=3
    )

    # Journaled records carry the lifetime-event payloads; diff them too
    # (minus the wall-clock field, the one legitimately varying value).
    def journal_lines(image) -> list[dict]:
        buffer = RecordBuffer()
        run_injection_plan(image, plan, jobs=1, journal=buffer)
        lines = [record.to_line() for record in buffer.records]
        for line in lines:
            line.pop("wall", None)
        return lines

    translated_lines = journal_lines(image_translated)
    interp_lines = journal_lines(image_interp)

    speedup = interp_seconds / translated_seconds
    benchmark.extra_info["injections"] = total
    benchmark.extra_info["interpreter_inj_per_sec"] = round(
        total / interp_seconds, 2
    )
    benchmark.extra_info["translated_inj_per_sec"] = round(
        total / translated_seconds, 2
    )
    benchmark.extra_info["speedup"] = round(speedup, 2)

    assert translated_effects == interp_effects, (
        "translation changed a lifetime-campaign classification"
    )
    assert translated_lines == interp_lines, (
        "translation changed a lifetime-event stream or record payload"
    )
    assert speedup >= LIFETIME_SPEEDUP_BAR, (
        f"lifetime-campaign translation speedup {speedup:.2f}x below "
        f"the {LIFETIME_SPEEDUP_BAR}x bar"
    )
