"""The benchmark's three workloads and the output checks that fail a run.

Each workload drives the same public entry points ``repro report`` and
``repro inject`` use, single-process (``jobs=1``), with every cache and
journal in a fresh directory the caller owns:

``inject``
    The injection half of the reproduction: an :class:`ExperimentContext`
    campaign over all 13 MiBench analogues x 6 components with a fixed
    number of faults per component, the default engine (translation, COW
    restores, early exit, lifetime events) and the journal on, ending with
    Fig. 4, Fig. 5 and Table IV.  Each code gets its own campaign seed (see
    :func:`code_seeds`): a component's fault stream depends on the seed but
    not on the code, so under one seed all 13 codes draw the same bits at
    the same relative cycles and the run's cost would swing with the seed
    as if it held only 6 x n faults.
``beam``
    The beam half: :class:`BeamExperiment` over all 13 codes at short beam
    hours (through the same context), ending with Fig. 3.  Strikes run on
    the interpreter-only beam executor, so injection-engine changes should
    not move it.

Both run through :class:`BenchContext`, which times each code's campaign
as one part of the round, so passes over the same inputs can be combined
part by part (see :data:`PASSES`).
``adaptive``
    ``repro inject CRC32 --target-margin 0.1 --learned-sampling
    --no-events`` with a journal, once per campaign seed: many small
    windows through ``run_injection_plan`` and the learned planner, no
    taint.

A workload returns a :class:`Outcome`; a failed check is recorded in
``Outcome.failures`` and makes the run incorrect.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from repro.analysis.report import adaptive_margins_table, calibration_table
from repro.beam.board import ZEDBOARD
from repro.beam.experiment import BeamCampaignConfig, BeamExperiment, BeamResult
from repro.beam.facility import LANSCE
from repro.experiments import fig3, fig4, fig5, table4
from repro.experiments.runner import ExperimentContext
from repro.injection.adaptive import AdaptiveCampaign
from repro.injection.campaign import (
    CampaignConfig,
    InjectionCampaign,
    WorkloadResult,
    run_single_injection,
)
from repro.injection.components import Component, component_bits
from repro.injection.fault import Fault
from repro.injection.journal import read_journal
from repro.injection.telemetry import CampaignTelemetry
from repro.microarch.config import SCALED_A9_CONFIG
from repro.workloads import MIBENCH_SUITE

MACHINE = SCALED_A9_CONFIG
PINS_PATH = Path(__file__).with_name("pins.json")

#: Adaptive campaign settings (``repro inject`` defaults apart from these).
ADAPTIVE_WORKLOAD = "CRC32"
ADAPTIVE_TARGET = 0.1
ADAPTIVE_BATCH = 25

#: Faults per component re-run through the reference engine on seeds
#: without pinned tallies.
REFERENCE_FAULTS = 1


#: Fresh-interpreter passes over the same inputs.  A run reports each
#: part's fastest pass: interference from other tenants of the host only
#: ever slows a part down, and it comes in bursts of a few seconds that
#: rarely hit the same part twice.
PASSES = {"inject": 2, "beam": 2, "adaptive": 1}


def sizes(workload: str, seconds: int) -> dict:
    """Work of one pass, scaled so a run measures about ``seconds``."""
    if workload == "inject":
        return {"faults_per_component": max(1, round(seconds / 30))}
    if workload == "beam":
        return {"beam_hours": max(1.0, seconds / 3)}
    return {"campaigns": max(1, round(seconds / 14))}


def round_seeds(workload: str, seed: int, seconds: int) -> list[int]:
    """Campaign seed of every fresh-interpreter round of one run."""
    if workload == "adaptive":
        count = sizes(workload, seconds)["campaigns"]
        return [seed * count + index for index in range(count)]
    return [seed]


def build_inputs(workload: str) -> None:
    """Assemble the programs and compute the oracle outputs the run uses."""
    names = [ADAPTIVE_WORKLOAD] if workload == "adaptive" else list(MIBENCH_SUITE)
    for name in names:
        code = MIBENCH_SUITE[name]
        code.program(MACHINE.layout)
        code.reference_output()


@dataclass
class Outcome:
    """What one round produced, plus its output checks."""

    experiments: int = 0
    quarantined: int = 0
    injections_to_target: int = 0
    failures: list[str] = field(default_factory=list)
    #: Wall seconds of the round's parts (codes, rendering), when timed.
    units: dict[str, float] | None = None
    #: Per-(code, component) effect counts (inject only; what pins hold).
    tallies: dict | None = None
    #: Arguments of the reference re-run done after the clock stopped
    #: (inject on seeds without pinned tallies).
    deferred: tuple | None = None


def _check(outcome: Outcome, condition: bool, message: str) -> None:
    if not condition:
        outcome.failures.append(message)


# -- inject -------------------------------------------------------------------


class BenchContext(ExperimentContext):
    """An :class:`ExperimentContext` that times each code's campaign.

    Each code's injection campaign is the one ``repro inject`` runs (an
    :class:`InjectionCampaign` journaled into the context's journal
    directory) under its own seed from :func:`code_seeds`; each code's beam
    campaign is :meth:`BeamExperiment.run_workload`, as ``run_suite`` calls
    it.  ``unit_seconds`` maps each code to its campaign's wall time.
    """

    def __init__(self, cache_dir: Path, **kwargs):
        super().__init__(cache_dir=cache_dir, **kwargs)
        self.cache_dir = cache_dir
        self.unit_seconds: dict[str, float] = {}
        self._injections: dict[str, WorkloadResult] | None = None
        self._beams: dict[str, BeamResult] | None = None

    def _timed(self, name: str, call, *args):
        start = time.perf_counter()
        result = call(*args)
        self.unit_seconds[name] = time.perf_counter() - start
        return result

    def injection_results(self) -> dict[str, WorkloadResult]:
        if self._injections is None:
            seeds = code_seeds(self.seed)
            self._injections = {}
            for name, code in MIBENCH_SUITE.items():
                campaign = InjectionCampaign(
                    CampaignConfig(
                        faults_per_component=self.faults_per_component,
                        seed=seeds[name],
                        machine=self.machine,
                        jobs=self.jobs,
                    ),
                    cache_dir=self.cache_dir,
                    journal_dir=self.journal_dir,
                    resume=True,
                    telemetry=self.telemetry,
                )
                self._injections[name] = self._timed(name, campaign.run_workload, code)
        return self._injections

    def beam_results(self) -> dict[str, BeamResult]:
        if self._beams is None:
            experiment = BeamExperiment(
                BeamCampaignConfig(
                    beam_hours=self.beam_hours, seed=self.seed, machine=self.machine
                ),
                cache_dir=self.cache_dir,
            )
            self._beams = {
                name: self._timed(name, experiment.run_workload, code)
                for name, code in MIBENCH_SUITE.items()
            }
        return self._beams

    def render(self, *modules) -> list[str]:
        return self._timed("render", lambda: [m.render(self) for m in modules])


def code_seeds(seed: int) -> dict[str, int]:
    """Distinct campaign seeds for every code, derived from the run seed."""
    return {
        name: seed * len(MIBENCH_SUITE) + index
        for index, name in enumerate(MIBENCH_SUITE)
    }


def run_inject(seed: int, seconds: int, tmp: Path) -> Outcome:
    faults = sizes("inject", seconds)["faults_per_component"]
    context = BenchContext(
        faults_per_component=faults,
        beam_hours=1.0,
        machine=MACHINE,
        cache_dir=tmp / "cache",
        seed=seed,
        jobs=1,
        journal_dir=tmp / "journal",
    )
    results = context.injection_results()
    rendered = context.render(fig4, fig5, table4)
    outcome = Outcome(units=context.unit_seconds)
    tallies = {}
    for name, result in results.items():
        tallies[name] = {}
        for component in Component:
            tally = result.components[component]
            outcome.experiments += tally.injections + tally.quarantined
            outcome.quarantined += tally.quarantined
            tallies[name][component.name] = {
                effect.name: count for effect, count in tally.counts.items()
            }
            _check(
                outcome,
                tally.injections + tally.quarantined == faults,
                f"{name}/{component.name}: {tally.injections} tallied "
                f"+ {tally.quarantined} quarantined != {faults}",
            )
    _check(outcome, len(results) == len(MIBENCH_SUITE), "inject: missing codes")
    _check(outcome, all(rendered), "inject: empty rendering")
    outcome.injections_to_target = outcome.experiments
    outcome.tallies = tallies
    pinned = load_pins().get(pin_key(seed, faults))
    if pinned is not None:
        outcome.failures.extend(compare_tallies(tallies, pinned))
    else:
        outcome.deferred = (seed, tmp / "journal", results)
    return outcome


def pin_key(seed: int, faults: int) -> str:
    """Pins are kept for the default seed at each pinned campaign size."""
    return f"inject-s{seed}-n{faults}"


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}


def compare_tallies(tallies: dict, pinned: dict) -> list[str]:
    """Differences between measured and pinned per-(code, component) counts."""
    failures = []
    for name in sorted(set(tallies) | set(pinned)):
        for component in sorted(set(tallies.get(name, {})) | set(pinned.get(name, {}))):
            got = tallies.get(name, {}).get(component)
            want = pinned.get(name, {}).get(component)
            if got != want:
                failures.append(f"{name}/{component}: tallies {got} != pinned {want}")
    return failures


def reference_check(seed: int, journal_dir: Path, results: dict) -> list[str]:
    """Re-run sampled journaled faults on the reference engine.

    The reference is :func:`run_single_injection` without checkpoints: a
    freshly booted, interpreter-only machine simulated to its terminal
    outcome with no early exit.  Each sampled fault must reproduce the
    effect the benchmarked engine journaled.
    """
    records = {component: [] for component in Component}
    for path in sorted(journal_dir.glob("*.jsonl")):
        meta, entries, _quarantines = read_journal(path)
        for entry in entries:
            records[entry.component].append((meta.workload, entry))
    rng = random.Random(f"reference:{seed}")
    failures = []
    for component, entries in records.items():
        if not entries:
            failures.append(f"{component.name}: nothing journaled")
            continue
        for name, entry in rng.sample(entries, min(REFERENCE_FAULTS, len(entries))):
            code = MIBENCH_SUITE[name]
            golden = SimpleNamespace(
                cycles=results[name].golden_cycles, output=code.reference_output()
            )
            fault = Fault(component, entry.bit_index, entry.cycle)
            effect = run_single_injection(code, fault, MACHINE, golden)
            if effect is not entry.effect:
                failures.append(
                    f"{name}/{component.name}[{entry.index}]: engine "
                    f"{entry.effect.name} != reference {effect.name}"
                )
    return failures


# -- beam ---------------------------------------------------------------------


def poisson_range(mean: float, sigmas: float = 6.0) -> tuple[float, float]:
    """A range a Poisson count with ``mean`` leaves only by a software bug."""
    spread = sigmas * math.sqrt(mean) + 1.0
    return mean - spread, mean + spread


def run_beam(seed: int, seconds: int, tmp: Path) -> Outcome:
    hours = sizes("beam", seconds)["beam_hours"]
    context = BenchContext(
        faults_per_component=1,
        beam_hours=hours,
        machine=MACHINE,
        cache_dir=tmp / "cache",
        seed=seed,
        jobs=1,
        journal_dir=tmp / "journal",
    )
    results = context.beam_results()
    rendered = context.render(fig3)
    outcome = Outcome(units=context.unit_seconds)
    beam_seconds = hours * 3600.0
    expected = len(results) * sum(
        LANSCE.strike_rate(component_bits(MACHINE, component)) * beam_seconds
        for component in Component
    )
    platform_expected = len(results) * beam_seconds * LANSCE.strike_rate(
        ZEDBOARD.platform_logic_bits, ZEDBOARD.platform_sensitivity
    )
    strikes = platform = 0
    for name, result in results.items():
        tallied = sum(result.counts.values())
        _check(
            outcome,
            tallied == result.strikes_simulated + result.platform_strikes,
            f"{name}: {tallied} tallied != {result.strikes_simulated} strikes "
            f"+ {result.platform_strikes} platform strikes",
        )
        strikes += result.strikes_simulated
        platform += result.platform_strikes
    low, high = poisson_range(expected)
    _check(outcome, low <= strikes <= high,
           f"beam: {strikes} strikes outside Poisson range [{low:.0f}, {high:.0f}]")
    low, high = poisson_range(platform_expected)
    _check(outcome, low <= platform <= high,
           f"beam: {platform} platform strikes outside [{low:.0f}, {high:.0f}]")
    _check(outcome, len(results) == len(MIBENCH_SUITE), "beam: missing codes")
    _check(outcome, all(rendered), "beam: empty rendering")
    outcome.experiments = strikes
    outcome.injections_to_target = strikes
    return outcome


# -- adaptive -------------------------------------------------------------------


def run_adaptive(seed: int, seconds: int, tmp: Path) -> Outcome:
    config = CampaignConfig(
        seed=seed,
        jobs=1,
        lifetime_events=False,
        target_margin=ADAPTIVE_TARGET,
        batch_size=ADAPTIVE_BATCH,
        learned_sampling=True,
    )
    campaign = AdaptiveCampaign(
        config,
        cache_dir=tmp / "cache",
        journal_dir=tmp / "journal",
        telemetry=CampaignTelemetry(),
    )
    code = MIBENCH_SUITE[ADAPTIVE_WORKLOAD]
    result = campaign.run_workload(code)
    diagnostics = campaign.diagnostics[code.name]
    rendered = adaptive_margins_table(diagnostics) + calibration_table(diagnostics)
    outcome = Outcome()
    for component in Component:
        status = diagnostics.strata.get(component)
        tally = result.components.get(component)
        if status is None or tally is None:
            outcome.failures.append(f"adaptive: no stratum {component.name}")
            continue
        outcome.quarantined += tally.quarantined
        _check(outcome, status.satisfied and not status.capped,
               f"adaptive/{component.name}: satisfied={status.satisfied} "
               f"capped={status.capped}")
        widest = max(status.widths.values())
        _check(outcome, widest <= ADAPTIVE_TARGET,
               f"adaptive/{component.name}: width {widest:.4f} > {ADAPTIVE_TARGET}")
        _check(outcome, sum(tally.counts.values()) == tally.injections,
               f"adaptive/{component.name}: tally does not add up")
    _check(outcome, bool(rendered), "adaptive: empty rendering")
    outcome.experiments = diagnostics.total_executed
    outcome.injections_to_target = diagnostics.total_executed
    return outcome


RUNNERS = {"inject": run_inject, "beam": run_beam, "adaptive": run_adaptive}
