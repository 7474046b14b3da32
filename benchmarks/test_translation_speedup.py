"""Basic-block translation + COW images: accelerated vs reference engine.

Runs the same seed-deterministic fault plan twice at ``jobs=1`` - once
on the default engine (basic-block trace translator with copy-on-write
image restores) and once on the reference engine (interpreter with
full-sweep restores, ``translate=False``) - on the int-heavy CRC32
workload, asserts the per-fault effect lists are byte-identical
(translation and COW are result-neutral by construction), and requires
the accelerated run to sustain at least 8x the injections/sec of the
reference.  The committed measurement is
``results/BENCH_test_translation_speedup.json``.  Both sides keep early
termination on, so the bar measures the translator/COW contribution on
top of the existing pruning, not instead of it.

``test_taint_on_translator_equivalence`` is the companion smoke: the
same workload with fault-lifetime events and crash traces armed, run
translated and interpreter-only, asserting an empty diff on
classifications, recorded event streams, *and* the per-component
masking-mechanism histogram derived from them.

``test_translator_compile_cost`` is the translator's per-layer
microbench: with the process-wide code cache cleared, a Rijndael E golden
run plus a one-fault-per-component campaign, recording blocks compiled,
distinct sources compiled, ``compile()`` seconds and the share of retired
instructions that ran inside translated blocks.  Its envelope is
``results/BENCH_test_translator_compile_cost.json``.
"""

from __future__ import annotations

import time

from repro.injection.campaign import (
    CampaignConfig,
    InjectionCampaign,
    record_golden_observables,
    run_golden,
)
from repro.injection.components import Component, component_bits
from repro.injection.fault import generate_faults
from repro.injection.journal import RecordBuffer
from repro.injection.parallel import EngineOptions, MachineImage, run_injection_plan
from repro.microarch import translate
from repro.microarch.config import SCALED_A9_CONFIG
from repro.microarch.core import Core
from repro.observability.events import masking_mechanism
from repro.workloads import get_workload

FAULTS_PER_COMPONENT = 30
COMPONENTS = (Component.L2, Component.L1I)
SPEEDUP_BAR = 8.0


def _build():
    workload = get_workload("CRC32")
    golden = run_golden(workload, SCALED_A9_CONFIG)
    snapshots, digests, _, _, _ = record_golden_observables(
        workload, SCALED_A9_CONFIG, golden
    )
    accelerated = MachineImage(
        workload.name, workload.program(SCALED_A9_CONFIG.layout),
        SCALED_A9_CONFIG, golden.cycles, golden.output, snapshots,
        digests=digests,
        engine=EngineOptions(translate=True, lifetime_events=False),
    )
    baseline = MachineImage(
        workload.name, workload.program(SCALED_A9_CONFIG.layout),
        SCALED_A9_CONFIG, golden.cycles, golden.output, snapshots,
        digests=digests,
        engine=EngineOptions(translate=False, lifetime_events=False),
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
    return accelerated, baseline, plan


def test_translation_speedup(benchmark):
    """Same plan, jobs=1: identical effects, >= 8x injections/sec."""
    accelerated_image, baseline_image, plan = _build()
    total = sum(len(faults) for faults in plan.values())

    accelerated_effects = benchmark.pedantic(
        lambda: run_injection_plan(accelerated_image, plan, jobs=1),
        rounds=3,
        iterations=1,
    )
    accelerated_seconds = benchmark.stats.stats.mean

    start = time.perf_counter()
    baseline_effects = run_injection_plan(baseline_image, plan, jobs=1)
    baseline_seconds = time.perf_counter() - start

    speedup = baseline_seconds / accelerated_seconds
    benchmark.extra_info["injections"] = total
    benchmark.extra_info["accelerated_inj_per_sec"] = round(
        total / accelerated_seconds, 2
    )
    benchmark.extra_info["baseline_inj_per_sec"] = round(
        total / baseline_seconds, 2
    )
    benchmark.extra_info["speedup"] = round(speedup, 2)

    # The equivalence guarantee: translation + COW never change any effect.
    assert accelerated_effects == baseline_effects
    assert speedup >= SPEEDUP_BAR, (
        f"translation+COW speedup {speedup:.2f}x below the {SPEEDUP_BAR}x "
        f"bar ({total} injections, "
        f"{total / accelerated_seconds:.1f}/s vs "
        f"{total / baseline_seconds:.1f}/s)"
    )


def test_taint_on_translator_equivalence():
    """Taint probes armed: translated == interpreted, mechanisms included.

    CRC32 with fault-lifetime events and crash traces on, faults spread
    across the translator's taint regimes - REGFILE (interpretation
    until the regfile probe uninstalls; flips into unread registers end
    at the flip), L1D (probe-replaying variants), L1I (fetch-side forced
    interpretation).  The diff must be empty on classifications, on the
    journaled lifetime-event streams and crash traces, and on the
    per-component masking-mechanism histogram computed from the events -
    the analysis-facing numbers a campaign actually reports.
    """
    workload = get_workload("CRC32")
    golden = run_golden(workload, SCALED_A9_CONFIG)
    snapshots, digests, arch_digests, _, _ = record_golden_observables(
        workload, SCALED_A9_CONFIG, golden
    )
    plan = {
        component: generate_faults(
            component,
            component_bits(SCALED_A9_CONFIG, component),
            golden.cycles,
            count=8,
            seed=11,
        )
        for component in (Component.REGFILE, Component.L1D, Component.L1I)
    }

    def run(translate: bool):
        image = MachineImage(
            workload.name,
            workload.program(SCALED_A9_CONFIG.layout),
            SCALED_A9_CONFIG,
            golden.cycles,
            golden.output,
            snapshots,
            digests=digests,
            arch_digests=arch_digests,
            engine=EngineOptions(translate=translate, trace_on_crash=16),
        )
        journal = RecordBuffer()
        effects = run_injection_plan(image, plan, jobs=1, journal=journal)
        histogram: dict = {}
        observed = []
        for record in journal.records:
            observed.append(
                (record.component, record.index, record.effect,
                 record.events, record.trace)
            )
            tally = histogram.setdefault(record.component.name, {})
            mechanism = masking_mechanism(record.events)
            tally[mechanism] = tally.get(mechanism, 0) + 1
        return effects, observed, histogram

    translated = run(True)
    interpreted = run(False)
    assert translated[0] == interpreted[0], "classification diff non-empty"
    assert translated[1] == interpreted[1], "event-stream/trace diff non-empty"
    assert translated[2] == interpreted[2], (
        "masking-mechanism histogram diff non-empty"
    )


def test_translator_compile_cost(benchmark, tmp_path, monkeypatch):
    """Rijndael E golden run + ``-n 1`` campaign: what translation costs.

    Rijndael's S-box loop is load-heavy, so blocks often leave their
    region early (digest probes, lifetime events, timer interrupts).
    Heat counts only at block heads, so the interpreter walking out the
    rest of such a region compiles nothing.
    """
    translators: list = []
    totals = {"compiles": 0, "compile_s": 0.0, "retired": 0}

    init = translate.BlockTranslator.__init__

    def recording_init(self, core, **kwargs):
        init(self, core, **kwargs)
        translators.append(self)

    def timed_compile(source, filename, mode):
        start = time.perf_counter()
        try:
            return compile(source, filename, mode)
        finally:
            totals["compiles"] += 1
            totals["compile_s"] += time.perf_counter() - start

    run = Core.run

    def counting_run(self, *args, **kwargs):
        icount0 = self.icount
        try:
            return run(self, *args, **kwargs)
        finally:
            totals["retired"] += self.icount - icount0

    monkeypatch.setattr(translate.BlockTranslator, "__init__", recording_init)
    monkeypatch.setattr(translate, "compile", timed_compile, raising=False)
    monkeypatch.setattr(Core, "run", counting_run)
    workload = get_workload("Rijndael E")

    def golden_and_campaign():
        run_golden(workload, SCALED_A9_CONFIG)
        campaign = InjectionCampaign(
            CampaignConfig(faults_per_component=1), cache_dir=tmp_path
        )
        return campaign.run_workload(workload)

    translate._CODE_CACHE.clear()
    result = benchmark.pedantic(golden_and_campaign, rounds=1, iterations=1)
    compiled = sum(t.compiled for t in translators)
    translated = sum(t.translated_instructions for t in translators)
    share = translated / totals["retired"]
    benchmark.extra_info["translators"] = len(translators)
    benchmark.extra_info["blocks_compiled"] = compiled
    benchmark.extra_info["sources_compiled"] = totals["compiles"]
    benchmark.extra_info["compile_s"] = round(totals["compile_s"], 3)
    benchmark.extra_info["instructions_retired"] = totals["retired"]
    benchmark.extra_info["translated_share"] = round(share, 4)

    assert sum(c.injections for c in result.components.values()) == 6
    # The cache was cleared first: each compile() is one distinct source.
    assert len(translate._CODE_CACHE) == totals["compiles"] <= compiled
    assert share > 0.5, f"only {share:.1%} of instructions ran translated"
