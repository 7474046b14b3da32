"""Simulator performance and the design-choice ablations from DESIGN.md."""

from __future__ import annotations

import pytest

from repro.injection.campaign import (
    record_golden_observables,
    run_golden,
    run_single_injection,
)
from repro.injection.components import Component, component_bits
from repro.injection.fault import generate_faults
from repro.microarch.config import SCALED_A9_CONFIG
from repro.microarch import core as core_module
from repro.microarch.system import System
from repro.microarch.translate import attach_translator
from repro.workloads import get_workload


def _record_rate(benchmark, result) -> None:
    """Record instructions/sec in the BENCH json metrics envelope."""
    benchmark.extra_info["instructions"] = result.counters.instructions
    benchmark.extra_info["instructions_per_sec"] = round(
        result.counters.instructions / benchmark.stats.stats.mean
    )


def test_detailed_mode_throughput(benchmark):
    """Instructions per second in the detailed (full-hierarchy) mode."""
    workload = get_workload("Susan E")

    def run():
        system = System(workload.program(SCALED_A9_CONFIG.layout))
        return system.run(max_cycles=50_000_000)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.exited_cleanly
    _record_rate(benchmark, result)


def test_translated_mode_throughput(benchmark):
    """Detailed mode with the basic-block trace translator attached.

    Same machine and workload as :func:`test_detailed_mode_throughput`;
    the two BENCH envelopes together record the translator's raw
    interpreter-loop speedup (campaign-level gains are measured in
    ``test_translation_speedup.py``).
    """
    workload = get_workload("Susan E")

    def run():
        system = System(workload.program(SCALED_A9_CONFIG.layout))
        assert attach_translator(system) is not None
        return system.run(max_cycles=50_000_000)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.exited_cleanly
    _record_rate(benchmark, result)


def test_atomic_mode_throughput(benchmark):
    """Atomic mode skips cache/TLB modeling (Table I's architecture row)."""
    workload = get_workload("Susan E")
    machine = SCALED_A9_CONFIG.with_atomic()

    def run():
        system = System(workload.program(machine.layout), config=machine)
        return system.run(max_cycles=50_000_000)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.exited_cleanly
    _record_rate(benchmark, result)


def test_ablation_decode_cache(benchmark):
    """Ablation: clearing the decode memo every run (cold decoder)."""
    workload = get_workload("Susan E")

    def run_cold():
        core_module._DECODE_CACHE.clear()
        system = System(workload.program(SCALED_A9_CONFIG.layout))
        return system.run(max_cycles=50_000_000)

    result = benchmark.pedantic(run_cold, rounds=3, iterations=1)
    assert result.exited_cleanly
    _record_rate(benchmark, result)


@pytest.fixture(scope="module")
def injection_setup():
    workload = get_workload("Dijkstra")
    golden = run_golden(workload, SCALED_A9_CONFIG)
    snapshots, _, _, _, _ = record_golden_observables(
        workload, SCALED_A9_CONFIG, golden, digest_count=0
    )
    faults = generate_faults(
        Component.L1D,
        component_bits(SCALED_A9_CONFIG, Component.L1D),
        golden.cycles,
        count=4,
        seed=21,
    )
    return workload, golden, snapshots, faults


def test_injection_latency_checkpointed(benchmark, injection_setup):
    """One injection experiment with checkpoint fast-forwarding."""
    workload, golden, snapshots, faults = injection_setup

    def inject():
        return [
            run_single_injection(
                workload, fault, SCALED_A9_CONFIG, golden, snapshots=snapshots
            )
            for fault in faults
        ]

    effects = benchmark.pedantic(inject, rounds=3, iterations=1)
    assert len(effects) == 4
    benchmark.extra_info["injections_per_sec"] = round(
        len(effects) / benchmark.stats.stats.mean, 2
    )


def test_ablation_injection_without_checkpoints(benchmark, injection_setup):
    """Ablation: the same injections re-executing the full prefix."""
    workload, golden, _snapshots, faults = injection_setup

    def inject():
        return [
            run_single_injection(workload, fault, SCALED_A9_CONFIG, golden)
            for fault in faults
        ]

    effects = benchmark.pedantic(inject, rounds=3, iterations=1)
    assert len(effects) == 4
    benchmark.extra_info["injections_per_sec"] = round(
        len(effects) / benchmark.stats.stats.mean, 2
    )
