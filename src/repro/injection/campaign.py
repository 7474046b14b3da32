"""Fault-injection campaign orchestration.

A campaign runs, per workload and per component, a statistical sample of
single-bit injections: each injection starts from a pristine machine state
(caches cold, exactly as GeFIN resets state between experiments), runs to
the injection cycle, flips the bit, runs to a terminal outcome, and
classifies it.

Execution is delegated to :mod:`repro.injection.parallel`: the golden run
and its checkpoints are captured once per (workload, machine) as a shared
:class:`~repro.injection.parallel.MachineImage`, and the injections fan out
over ``CampaignConfig.jobs`` worker processes.  Results are deterministic -
bit-identical for any ``jobs`` value - because every injection is a pure
function of (image, fault) and tallies are accumulated in fault order.

Results are cached on disk under :func:`~repro.injection.identity.result_key`
so analyses and benchmark harnesses can share one expensive campaign.
Caching, the image, the journal and the result store live in one
skeleton, :meth:`InjectionCampaign._run_campaign`; a fixed campaign runs
one plan over ``[0, n)`` inside it, and
:class:`~repro.injection.adaptive.AdaptiveCampaign` its rounds loop.

With a ``journal_dir``, every completed injection is additionally appended
to a per-workload JSONL journal (:mod:`repro.injection.journal`), and
``resume=True`` replays an interrupted campaign's journal so only the
missing fault indices are re-dispatched - the resumed tallies are
bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from contextlib import nullcontext
from functools import partial
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterable

from repro.errors import ConfigurationError, InjectionError
from repro.injection.classify import FaultEffect, classify_run
from repro.injection.components import Component, component_bits, component_target
from repro.injection.fault import Fault, generate_faults
from repro.injection.identity import program_digest, result_key
from repro.injection.journal import InjectionJournal, JournalMeta
from repro.injection.parallel import (
    DEFAULT_MAX_RETRIES,
    EngineOptions,
    ImageInjector,
    MachineImage,
    resolve_jobs,
    run_injection_plan,
    watchdog_budget,
)
from repro.injection.telemetry import CampaignTelemetry
from repro.injection.sampling import (
    error_margin,
    readjusted_margin,
    wilson_interval,
)
from repro.microarch.config import MachineConfig, SCALED_A9_CONFIG
from repro.microarch.digest import arch_digest, probe_cycles, system_digest
from repro.microarch.profile import execution_profile
from repro.microarch.snapshot import SystemSnapshot, best_snapshot
from repro.microarch.system import RunResult, System
from repro.microarch.translate import translated
from repro.workloads.base import Workload

__all__ = [
    "CampaignConfig",
    "ComponentResult",
    "WorkloadResult",
    "InjectionCampaign",
    "default_cache_dir",
    "run_golden",
    "run_single_injection",
    "record_golden_observables",
    "prepare_image",
    "build_fault_plan",
]


def default_cache_dir() -> Path:
    """Campaign-result cache location (``REPRO_CACHE_DIR`` overrides)."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))


#: Golden checkpoints per image: injections fast-forward from the latest
#: one before their cycle (results are bit-identical to a run from boot).
CHECKPOINT_COUNT = 8


def read_json_cache(path: Path, parse: Callable, progress: Callable[[str], None]):
    """``parse`` a cache file; ``None`` on a miss or (visibly) a corrupt one."""
    if not path.exists():
        return None
    try:
        return parse(json.loads(path.read_text()))
    # TypeError/AttributeError: valid JSON of the wrong shape (null, [], ...).
    except (ValueError, KeyError, TypeError, AttributeError, InjectionError):
        progress(f"cache: ignoring corrupt {path.name}, re-running")
        return None


def write_json_atomic(path: Path, payload: dict) -> None:
    """Persist a cache entry atomically (a killed run never truncates)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload, indent=1))
    os.replace(tmp, path)


@dataclass(frozen=True)
class CampaignConfig:
    """Knobs of one injection campaign."""

    faults_per_component: int = 30
    seed: int = 0
    confidence: float = 0.99
    machine: MachineConfig = SCALED_A9_CONFIG
    #: Fault model: number of adjacent bits flipped per injection.  The
    #: paper uses the single-bit model and discusses multi-cell upsets in
    #: recent technologies as a source of underestimation (Section II);
    #: setting 2 or 4 explores that uncertainty.
    cluster_size: int = 1
    #: Worker processes for the injection fan-out: 1 runs in-process, N > 1
    #: uses a supervised worker farm, 0 means one per CPU core.  Results
    #: are bit-identical regardless of the value (it is deliberately *not*
    #: part of the cache key).
    jobs: int = 1
    #: Per-injection wall-clock limit in seconds (workers only); a worker
    #: holding one injection longer is killed and the fault retried.
    #: ``None`` disables the limit.  Not part of the cache key: like
    #: ``jobs``, it cannot change a completed injection's effect.
    injection_timeout: float | None = None
    #: Bound on re-dispatches of a fault whose worker died, timed out, or
    #: raised; past it the fault is quarantined (reported, not tallied).
    max_retries: int = DEFAULT_MAX_RETRIES
    #: The result-neutral engine settings, bundled as :attr:`engine` and
    #: documented on :class:`~repro.injection.parallel.EngineOptions`.  None
    #: can change an injection's effect (the early-exit, observability and
    #: translator equivalence suites pin it), so none is in the cache key.
    early_exit: bool = True
    digest_probes: int = 24
    lifetime_events: bool = True
    trace_on_crash: int = 0
    translate: bool = True
    profile: bool = False
    #: Adaptive (sequential) stopping: when set, the campaign ignores
    #: ``faults_per_component`` and instead injects batch after batch until
    #: every tracked rate of every component - the AVF's re-adjusted
    #: Leveugle margin plus the Wilson half-widths of the SDC, AppCrash and
    #: SysCrash rates - is within this margin at ``confidence`` (see
    #: :mod:`repro.injection.adaptive`).
    target_margin: float | None = None
    #: Injections dispatched per adaptive round, split across the strata
    #: that still need precision.  Execution granularity only: the reported
    #: result is bit-identical for any batch size (like ``jobs``, it is
    #: deliberately *not* part of the cache key).
    batch_size: int = 50
    #: Adaptive safety rails: no stratum is reported from fewer than
    #: ``min_faults`` injections (degenerate intervals at tiny samples) or
    #: grows beyond ``max_faults`` (a stratum whose target is unreachable
    #: stops there and is flagged, not looped forever).  Both change the
    #: reported result, so both are part of the adaptive cache key.
    min_faults: int = 20
    max_faults: int = 1000
    #: Learned importance sampling inside adaptive campaigns (see
    #: :mod:`repro.injection.learned`): the first ``min_faults`` of each
    #: stratum train a Masked-outcome predictor, and the rest of the
    #: stream is reordered toward uncertain faults with a stratified
    #: post-corrected estimator.  Changes which injections are tallied,
    #: so it *is* part of the adaptive cache key.
    learned_sampling: bool = False

    def __post_init__(self):
        """Refuse a campaign no engine could run, before any machine is
        built (the fabric's :class:`~repro.fabric.protocol.CampaignSpec`
        validates through this too)."""
        problems = [
            f"{name} must be positive"
            for name in ("faults_per_component", "cluster_size", "batch_size")
            if getattr(self, name) < 1
        ]
        problems += [
            f"{name} must not be negative"
            for name in ("jobs", "max_retries")
            if getattr(self, name) < 0
        ]
        if not 0 < self.confidence < 1:
            problems.append("confidence must lie in (0, 1)")
        if self.injection_timeout is not None and self.injection_timeout <= 0:
            problems.append("injection_timeout must be positive")
        if self.target_margin is not None and not 0 < self.target_margin < 1:
            problems.append("target_margin must lie in (0, 1)")
        if not 0 < self.min_faults <= self.max_faults:
            problems.append(
                "need 0 < min_faults <= max_faults "
                f"(got {self.min_faults}/{self.max_faults})"
            )
        if problems:
            raise ConfigurationError("; ".join(problems))
        self.engine  # EngineOptions validates its own fields

    @property
    def engine(self) -> EngineOptions:
        """The result-neutral engine settings, bundled for the injector."""
        return EngineOptions(
            **{f.name: getattr(self, f.name) for f in fields(EngineOptions)}
        )

    @property
    def planned_faults(self) -> int:
        """Per-component plan bound: the sample size in fixed mode, the
        ``max_faults`` safety cap in adaptive mode (also the journal
        fingerprint's ``faults_per_component``)."""
        if self.target_margin is not None:
            return self.max_faults
        return self.faults_per_component

    def journal_meta(
        self, workload: str, digest: str, golden_cycles: int
    ) -> JournalMeta:
        """The fingerprint a local journal of this campaign carries and
        resumes against."""
        return JournalMeta(
            workload=workload,
            machine=self.machine.name,
            faults_per_component=self.planned_faults,
            seed=self.seed,
            cluster_size=self.cluster_size,
            golden_cycles=golden_cycles,
            program_digest=digest,
        )

    def cache_key(self, workload: Workload) -> str:
        """Filename stem identifying this exact campaign configuration."""
        if self.target_margin is None:
            return result_key(
                "fi", workload, self.machine, seed=self.seed,
                faults_per_component=self.faults_per_component,
                cluster_size=self.cluster_size,
            )
        # Everything that determines an adaptive result's raw counts - but
        # *not* batch_size or jobs, which are execution granularity with
        # bit-identical results (enforced by the adaptive equivalence suite).
        return result_key(
            "fi-adapt", workload, self.machine, seed=self.seed,
            target_margin=self.target_margin, confidence=self.confidence,
            min_faults=self.min_faults, max_faults=self.max_faults,
            cluster_size=self.cluster_size, learned_sampling=self.learned_sampling,
        )


@dataclass
class ComponentResult:
    """Tally of one (workload, component) injection campaign.

    In learned-sampling campaigns the raw ``counts`` over-represent the
    importance-favoured faults, so the stratified post-corrected
    ``estimates``/``half_widths`` (one entry per class name, plus
    ``"AVF"``) are attached and take precedence in :meth:`rate`,
    :attr:`avf` and :attr:`margin`.  ``counts`` always stays the honest
    raw tally of what was injected.
    """

    component: Component
    injections: int
    population_bits: int
    counts: dict[FaultEffect, int] = field(default_factory=dict)
    confidence: float = 0.99
    #: Faults retired by the farm after repeatedly killing/stalling
    #: workers; excluded from ``injections`` and every rate, but carried
    #: here so they are reported rather than silently dropped.
    quarantined: int = 0
    #: Stratified post-corrected rate estimates by class name (learned
    #: sampling only); ``None`` means the raw counts are unbiased as-is.
    estimates: dict[str, float] | None = None
    #: Matching half-widths by class name (root-sum-square of per-bin
    #: Wilson half-widths); ``None`` outside learned sampling.
    half_widths: dict[str, float] | None = None

    def rate(self, effect: FaultEffect) -> float:
        """Unbiased estimate of the fraction classified as ``effect``.

        The raw sample fraction normally; the stratified post-corrected
        estimate when learned importance sampling reordered the draws.
        """
        if self.estimates is not None:
            return self.estimates.get(effect.name, 0.0)
        if not self.injections:
            return 0.0
        return self.counts.get(effect, 0) / self.injections

    @property
    def avf(self) -> float:
        """Architectural Vulnerability Factor: fraction of non-masked faults."""
        if self.estimates is not None and "AVF" in self.estimates:
            return self.estimates["AVF"]
        return 1.0 - self.rate(FaultEffect.MASKED)

    @property
    def conservative_margin(self) -> float:
        """Error margin at p = 0.5 (pre-campaign, Leveugle).

        This is the *planning* margin - the worst case over every possible
        outcome rate, known before a single fault is injected.  It is NOT
        what Table IV reports; see :attr:`margin`.
        """
        return error_margin(self.population_bits, self.injections, self.confidence)

    @property
    def margin(self) -> float:
        """Margin re-adjusted with the measured AVF - **the Table IV margin**.

        The paper's Table IV reports the post-campaign margin: p = 0.5 is
        replaced by the measured AVF shifted toward 0.5 by
        :attr:`conservative_margin` (Section IV-C), which is why highly
        masked components report margins well below the 4% planning value.
        Everything downstream (``experiments/table4.py``, the CLI's AVF
        breakdown, the adaptive stopping rule's AVF criterion) uses this
        property, never :attr:`conservative_margin` - pinned by the
        margin-choice regression test.  Worked examples:
        ``docs/STATISTICS.md``.
        """
        if self.half_widths is not None and "AVF" in self.half_widths:
            return self.half_widths["AVF"]
        return readjusted_margin(
            self.population_bits, self.injections, self.avf, self.confidence
        )

    def rate_interval(self, effect: FaultEffect) -> tuple[float, float]:
        """Wilson confidence interval for one class's fault-effect rate.

        Under learned sampling this is the stratified estimate plus or
        minus its root-sum-square half-width, clipped to [0, 1].
        """
        if self.estimates is not None and self.half_widths is not None:
            estimate = self.estimates.get(effect.name, 0.0)
            half = self.half_widths.get(effect.name, 0.0)
            return max(0.0, estimate - half), min(1.0, estimate + half)
        return wilson_interval(
            self.counts.get(effect, 0), self.injections, self.confidence
        )

    def to_dict(self) -> dict:
        """JSON-friendly form (campaign cache serialization)."""
        payload = {
            "component": self.component.name,
            "injections": self.injections,
            "population_bits": self.population_bits,
            "confidence": self.confidence,
            "quarantined": self.quarantined,
            "counts": {e.name: self.counts.get(e, 0) for e in FaultEffect},
        }
        if self.estimates is not None:
            payload["estimates"] = dict(self.estimates)
        if self.half_widths is not None:
            payload["half_widths"] = dict(self.half_widths)
        return payload

    @classmethod
    def from_effects(
        cls,
        component: Component,
        effects: Iterable[FaultEffect | None],
        population_bits: int,
        confidence: float,
    ) -> "ComponentResult":
        """Tally a component's effects; a ``None`` is a quarantined slot."""
        effects = list(effects)
        counts = Counter(effect for effect in effects if effect is not None)
        return cls(
            component=component,
            injections=sum(counts.values()),
            population_bits=population_bits,
            counts=dict(counts),
            confidence=confidence,
            quarantined=effects.count(None),
        )

    @classmethod
    def from_dict(cls, payload: dict) -> "ComponentResult":
        """Rebuild a tally from :meth:`to_dict`, validating the counts."""
        counts = {
            FaultEffect[name]: count
            for name, count in payload["counts"].items()
            if count
        }
        tallied = sum(counts.values())
        if tallied != payload["injections"]:
            raise InjectionError(
                f"campaign record for {payload['component']} claims "
                f"{payload['injections']} injections but tallies {tallied}"
            )
        return cls(
            component=Component[payload["component"]],
            injections=payload["injections"],
            population_bits=payload["population_bits"],
            confidence=payload["confidence"],
            quarantined=payload.get("quarantined", 0),
            counts=counts,
            estimates=payload.get("estimates"),
            half_widths=payload.get("half_widths"),
        )


@dataclass
class WorkloadResult:
    """Per-workload campaign outcome across all components."""

    workload_name: str
    golden_cycles: int
    components: dict[Component, ComponentResult] = field(default_factory=dict)

    def avf(self, component: Component) -> float:
        """Shortcut: one component's AVF."""
        return self.components[component].avf

    def to_dict(self) -> dict:
        """JSON-friendly form (campaign cache serialization)."""
        return {
            "workload": self.workload_name,
            "golden_cycles": self.golden_cycles,
            "components": {
                comp.name: result.to_dict()
                for comp, result in self.components.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "WorkloadResult":
        """Rebuild a workload result from :meth:`to_dict`."""
        return cls(
            workload_name=payload["workload"],
            golden_cycles=payload["golden_cycles"],
            components={
                Component[name]: ComponentResult.from_dict(blob)
                for name, blob in payload["components"].items()
            },
        )


def run_golden(
    workload: Workload, machine: MachineConfig, translate: bool = True
) -> RunResult:
    """Fault-free reference run (defines golden output and duration).

    ``translate`` follows :attr:`EngineOptions.translate`: the run is
    bit-identical on either engine, only faster translated.
    """
    system = System(workload.program(machine.layout), config=machine)
    with translated(system, translate):
        result = system.run(max_cycles=200_000_000)
    if not result.exited_cleanly:
        raise RuntimeError(
            f"golden run of {workload.name} did not exit cleanly: {result.outcome}"
        )
    return result


def run_single_injection(
    workload: Workload,
    fault: Fault,
    machine: MachineConfig,
    golden: RunResult,
    snapshots: list | None = None,
    cluster_size: int = 1,
) -> FaultEffect:
    """Reference injection on a freshly booted machine (the test oracle).

    It shares no restore, translator or early-exit code with
    :meth:`~repro.injection.parallel.ImageInjector.run_fault_ex`.  With
    ``snapshots`` (from :func:`record_golden_observables`), the run is
    fast-forwarded to the latest checkpoint before the injection cycle -
    the prefix is bit-identical to the fault-free run, so skipping it
    cannot change the outcome (verified by the equivalence test suite).

    ``cluster_size`` > 1 flips that many adjacent bits (multi-cell upset
    model).
    """
    system = System(workload.program(machine.layout), config=machine)
    if snapshots:
        snapshot = best_snapshot(snapshots, fault.cycle)
        if snapshot is not None:
            snapshot.restore(system)
    target = component_target(system, fault.component)
    population = target.data_bits

    def flip():
        for offset in range(cluster_size):
            target.flip_bit((fault.bit_index + offset) % population)

    events = [(fault.cycle, flip)]
    result = system.run(max_cycles=watchdog_budget(golden.cycles), events=events)
    return classify_run(result, golden.output, system)


def record_golden_observables(
    workload: Workload,
    machine: MachineConfig,
    golden: RunResult,
    snapshot_count: int = CHECKPOINT_COUNT,
    digest_count: int = 24,
    record_activity: bool = False,
    system: System | None = None,
    translate: bool = True,
) -> tuple[
    list, dict[int, bytes], dict[int, bytes], "GoldenActivity | None", RunResult
]:
    """Capture checkpoints, digests and (optionally) activity in one run.

    Returns ``(snapshots, digests, arch_digests, activity, run)``.
    ``digests`` maps probe cycles to full-machine state digests (early
    Masked termination); ``arch_digests`` maps the *same* probe cycles to
    architectural-state digests (:func:`~repro.microarch.digest.arch_digest`),
    which the fault-lifetime layer compares against to timestamp the first
    architectural divergence of an injected run.  With ``record_activity``
    (learned sampling), the run additionally carries an observation-only
    :class:`~repro.observability.golden.ActivityRecorder` whose residency
    sweeps join the capture grid; ``activity`` is ``None`` otherwise.

    All grids are laid over ``golden.cycles`` and recorded through the
    same event mechanism the injectors use, in a single fault-free run to
    program exit; ``run`` is that run's :class:`RunResult`, so callers
    can check it against ``golden`` (:func:`prepare_image`) or use it as
    the reference itself (the beam's warm run).  Grid cycles past the
    run's exit never fire.  The run starts on ``system`` as it stands
    (default: a fresh boot; the beam campaign passes its warm boot) and
    runs translated when ``translate`` is set.
    """
    from repro.observability.golden import ActivityRecorder, activity_grid

    if system is None:
        system = System(workload.program(machine.layout), config=machine)
    step = max(1, golden.cycles // (snapshot_count + 1))
    snapshot_cycles = [step * (index + 1) for index in range(snapshot_count)]
    snapshots: list[SystemSnapshot] = []
    digests: dict[int, bytes] = {}
    arch_digests: dict[int, bytes] = {}

    def snap() -> None:
        snapshots.append(SystemSnapshot(system))

    def make_probe(cycle: int):
        def capture() -> None:
            digests[cycle] = system_digest(system)
            arch_digests[cycle] = arch_digest(system)

        return capture

    captures = [(cycle, snap) for cycle in sorted(set(snapshot_cycles))]
    captures += [
        (cycle, make_probe(cycle))
        for cycle in probe_cycles(golden.cycles, digest_count)
    ]
    recorder = None
    if record_activity:
        recorder = ActivityRecorder(system, golden.cycles).attach()
        grid = activity_grid(golden.cycles)
        captures += [(cycle, recorder.sweep) for cycle in grid]
        if grid:
            # Activity ends at the final sweep, one cycle before the golden
            # exit: the learned features, and so every learned campaign's
            # fault order, are defined over that window.
            captures.append((grid[-1], recorder.detach))
    # The activity recorder's L1I/ITLB probes make the translator refuse
    # every dispatch, so translating an activity capture would only add a
    # refused dispatch per instruction: it stays interpreted.
    with translated(system, translate and not record_activity):
        run = system.run(max_cycles=200_000_000, events=captures)
    activity = recorder.finish() if recorder is not None else None
    return snapshots, digests, arch_digests, activity, run


def prepare_image(
    workload: Workload, config: CampaignConfig
) -> tuple[RunResult, MachineImage]:
    """Golden run plus the shippable machine image the farm injects into.

    One capture run records the :data:`CHECKPOINT_COUNT` checkpoints plus
    whichever digests and activity ``config`` needs; the image bundles
    them for the workers.  The capture runs to program exit and must
    reproduce the golden run's cycles and output, or
    :class:`~repro.errors.InjectionError` is raised: an image whose
    checkpoints do not lie on the golden run would make every injection
    restored from them wrong.  This is the shared seam between
    :class:`InjectionCampaign` and the fabric worker
    (:mod:`repro.fabric.worker`) - both build *exactly* the same image
    from the same config, which is what makes a distributed campaign
    bit-identical to a local one.
    """
    machine = config.machine
    golden = run_golden(workload, machine, translate=config.translate)
    # The probe grid serves both early termination and fault-lifetime
    # divergence stamping, so either feature keeps it alive.
    digest_count = (
        config.digest_probes
        if (config.early_exit or config.lifetime_events)
        else 0
    )
    snapshots, digests, arch_digests, activity, capture = (
        record_golden_observables(
            workload,
            machine,
            golden,
            digest_count=digest_count,
            record_activity=(
                config.learned_sampling and config.target_margin is not None
            ),
            translate=config.translate,
        )
    )
    if capture.cycles != golden.cycles or capture.output != golden.output:
        raise InjectionError(
            f"capture run of {workload.name} diverged from its golden run "
            f"({capture.cycles} vs {golden.cycles} cycles, output "
            f"{'equal' if capture.output == golden.output else 'different'})"
        )
    image = MachineImage(
        name=workload.name,
        program=workload.program(machine.layout),
        machine=machine,
        golden_cycles=golden.cycles,
        golden_output=golden.output,
        snapshots=snapshots,
        cluster_size=config.cluster_size,
        digests=digests,
        arch_digests=arch_digests,
        engine=config.engine,
        activity=activity,
    )
    return golden, image


def build_fault_plan(
    config: CampaignConfig,
    golden_cycles: int,
    components: Iterable[Component] = tuple(Component),
) -> dict[Component, list[Fault]]:
    """The campaign's deterministic fault lists, one per component.

    A pure function of (config, golden duration): the same seed and
    machine regenerate byte-identical fault lists on the coordinator, on
    every fabric worker, and on a local resume - the property the
    journal's cross-checks and the fault store's identity keys rely on.
    """
    machine = config.machine
    return {
        component: generate_faults(
            component,
            component_bits(machine, component),
            golden_cycles,
            config.planned_faults,
            seed=config.seed,
        )
        for component in components
    }


class InjectionCampaign:
    """Run (and cache) fault-injection campaigns over the suite.

    With ``journal_dir``, each workload's campaign writes a per-injection
    JSONL journal (named after the cache key); ``resume=True`` replays an
    existing journal so a killed campaign continues mid-component instead
    of restarting.  ``telemetry`` (a shared
    :class:`~repro.injection.telemetry.CampaignTelemetry`) accumulates
    running tallies, throughput, and retry/quarantine counters across the
    whole run.
    """

    def __init__(
        self,
        config: CampaignConfig | None = None,
        cache_dir: Path | None = None,
        progress: Callable[[str], None] | None = None,
        journal_dir: Path | None = None,
        resume: bool = False,
        telemetry: CampaignTelemetry | None = None,
        tracer=None,
    ):
        self.config = config or CampaignConfig()
        self.cache_dir = cache_dir if cache_dir is not None else default_cache_dir()
        self.journal_dir = Path(journal_dir) if journal_dir is not None else None
        self.resume = resume
        self.telemetry = telemetry
        #: Optional :class:`~repro.observability.tracing.Tracer`; when set,
        #: each workload gets a ``campaign`` span with per-component
        #: ``window`` spans beneath it (off by default).
        self.tracer = tracer
        self._progress = progress or (lambda message: None)
        #: Per-workload :func:`~repro.microarch.profile.execution_profile`
        #: snapshots of a serial campaign's one injector machine (fixed
        #: or adaptive), filled under ``config.profile`` by a run that
        #: injected, never by a cache hit.
        self.profiles: dict[str, dict] = {}

    def _load_cached(self, path: Path) -> WorkloadResult | None:
        result = read_json_cache(path, WorkloadResult.from_dict, self._progress)
        if result is None:
            return None
        # The cache key spans everything that determines the raw counts -
        # but *confidence* only affects derived margins/intervals, so it is
        # re-derived from the active config rather than frozen at whatever
        # level the cache was first written with.
        for component_result in result.components.values():
            component_result.confidence = self.config.confidence
        return result

    def run_workload(
        self,
        workload: Workload,
        components: Iterable[Component] = tuple(Component),
        use_cache: bool = True,
    ) -> WorkloadResult:
        """Campaign for one workload across the requested components.

        A cached result that covers every requested component is returned
        as stored; one that lacks any of them is a miss, and the requested
        components are all re-run and overwrite it.
        """
        return self._run_campaign(workload, components, use_cache, self._run_fixed)

    def _run_campaign(
        self,
        workload: Workload,
        components: Iterable[Component],
        use_cache: bool,
        execute: Callable[..., dict[Component, ComponentResult]],
    ) -> WorkloadResult:
        """The campaign skeleton every sampling strategy runs in.

        A cache hit covers every requested component and returns as
        stored.  Anything else runs one way: build the image, open the
        journal (reporting a resume once, with the journal's totals) and
        the ``campaign`` span, hand ``execute(image, components,
        run_plan)`` every requested component, and store the tallies it
        returns as the whole result.  ``run_plan(plan, indices=None)`` is
        :func:`run_injection_plan` bound to this campaign's image,
        journal, farm and tracing settings.  A serial campaign binds one
        :class:`~repro.injection.parallel.ImageInjector` into it, so every
        window runs on the same machine; the skeleton reads
        :attr:`profiles` from that machine and closes it at the end.
        """
        components = tuple(components)
        config = self.config
        key = config.cache_key(workload)
        path = self.cache_dir / (key + ".json")
        cached = self._load_cached(path) if use_cache else None
        if cached is not None and set(components) <= set(cached.components):
            return cached

        golden, image = prepare_image(workload, config)
        injector = ImageInjector(image) if resolve_jobs(config.jobs) == 1 else None
        journal = None
        root = (
            self.tracer.span("campaign", workload=workload.name)
            if self.tracer is not None
            else nullcontext()
        )
        try:
            if self.journal_dir is not None:
                opener = (
                    InjectionJournal.open if self.resume else InjectionJournal.create
                )
                digest = program_digest(workload, config.machine)
                meta = config.journal_meta(workload.name, digest, golden.cycles)
                journal = opener(self.journal_dir / (key + ".jsonl"), meta)
                if journal.records or journal.quarantines:
                    self._progress(
                        f"{workload.name}: resuming from journal with "
                        f"{len(journal.records)} injection(s) "
                        f"(+{len(journal.quarantines)} quarantined)"
                    )
            with root as span:
                run_plan = partial(
                    run_injection_plan,
                    image,
                    jobs=config.jobs,
                    progress=self._progress,
                    journal=journal,
                    telemetry=self.telemetry,
                    timeout=config.injection_timeout,
                    max_retries=config.max_retries,
                    injector=injector,
                    tracer=self.tracer,
                    span_parent=span.span_id if span is not None else None,
                )
                tallies = execute(image, components, run_plan)
            if injector is not None and config.profile:
                self.profiles[workload.name] = execution_profile(
                    injector.system.core, injector.translator
                )
        finally:
            if injector is not None:
                injector.close()
            if journal is not None:
                journal.close()

        result = WorkloadResult(
            workload_name=workload.name,
            golden_cycles=golden.cycles,
            components=tallies,
        )
        if use_cache:
            write_json_atomic(path, result.to_dict())
        return result

    def _run_fixed(
        self,
        image: MachineImage,
        components: tuple[Component, ...],
        run_plan: Callable[..., dict[Component, list[FaultEffect | None]]],
    ) -> dict[Component, ComponentResult]:
        """The fixed-size sample: one plan over ``[0, n)``, tallied whole."""
        effects = run_plan(
            build_fault_plan(self.config, image.golden_cycles, components)
        )
        return {
            component: ComponentResult.from_effects(
                component,
                effects[component],
                component_bits(self.config.machine, component),
                self.config.confidence,
            )
            for component in components
        }

    def run_suite(
        self, workloads: Iterable[Workload], use_cache: bool = True
    ) -> dict[str, WorkloadResult]:
        """Campaign over many workloads; returns results by name."""
        results = {}
        for workload in workloads:
            self._progress(f"campaign: {workload.name}")
            results[workload.name] = self.run_workload(workload, use_cache=use_cache)
        return results
