"""Adaptive precision-targeted campaigns: inject until the margins are met.

The paper sizes every campaign statically - 1,000 faults per component per
benchmark - and then *reports* the error margins that sample happened to
achieve (Table IV).  This module inverts that: you state the precision you
want, and the engine runs injections in batches until every tracked rate
of every component is known to that precision, then stops.  Highly masked
components (an L2 whose AVF is a few percent) satisfy a Table-IV-grade
margin after a fraction of the fixed sample, which is where the savings
come from; components near AVF 50% keep injecting up to the safety cap.

Stopping rule (per stratum, i.e. per (workload, component)):

- the AVF's re-adjusted Leveugle margin
  (:func:`~repro.injection.sampling.readjusted_margin`, exactly the
  Table IV procedure) must be <= ``target_margin``, and
- the Wilson half-width
  (:func:`~repro.injection.sampling.wilson_half_width`) of each error
  class's rate - SDC, AppCrash, SysCrash - must be <= ``target_margin``,

all at ``CampaignConfig.confidence``, with at least
``CampaignConfig.min_faults`` injections, giving up (flagged, not looped
forever) at ``CampaignConfig.max_faults``.

Determinism guarantee: the reported result is a pure function of the
campaign seed and the stopping-rule knobs - independent of ``jobs``,
``batch_size``, and any interrupt/resume split.  Three mechanisms combine
to make that true:

1. every stratum draws its faults from the same per-stratum PRNG stream
   the fixed planner uses (:class:`~repro.injection.fault.FaultStream`;
   batch *k* is a window of that stream, not a fresh sample);
2. every injection's effect is a pure function of (image, fault), as in
   the fixed campaign;
3. the reported tally of a stratum is the *shortest prefix* of its effect
   stream that satisfies the stopping rule.  Batches only decide how much
   of the stream gets executed; because satisfaction is re-checked
   injection by injection as results arrive (in fault order), the prefix
   cut is the same wherever the batch boundaries fall.  Overshoot
   injections - executed because a batch ran past the cut - stay in the
   journal but are excluded from the tallies.

:class:`AdaptiveCampaign` runs inside the one campaign skeleton of
:class:`~repro.injection.campaign.InjectionCampaign` (cache, image,
journal, ``campaign`` span, the serial campaign's one injector, result
store) and contributes only its rounds loop.  Every round is one
:func:`~repro.injection.parallel.run_injection_plan` call whose
``indices`` list each window's global stream indices - ``range(start,
stop)`` in stream order, a permutation under learned sampling - so the
worker farm, early Masked termination, fault-lifetime events, and
crash-safe journaling all compose unchanged.  With ``resume=True`` the
campaign re-walks its ordinary schedule: the schedule is a pure function
of the effects absorbed so far, each window's journaled faults replay
instead of running, and only the holes a kill left run live.  At the
same batch size a resumed campaign passes exactly the uninterrupted
run's windows; a window whose faults are all journaled starts no
simulation.

Learned importance sampling (``CampaignConfig.learned_sampling``; see
:mod:`repro.injection.learned` and ``docs/SAMPLING.md``) reorders each
stratum's stream *after* a pilot of ``min_faults`` natural-order
injections: a Naive Bayes model trained on the pilot predicts P(Masked)
for the rest of the stream, the frame is partitioned into
predicted-probability bins with exact frame weights, and execution
interleaves the bins weighted toward the uncertain ones.  The estimator
switches to the stratified post-corrected form
(:func:`~repro.injection.sampling.stratified_rate` /
:func:`~repro.injection.sampling.stratified_half_width`), which stays
unbiased under any reordering; pilot outcomes train the model and are
excluded from the stratified estimates (no in-sample selection bias),
while the raw counts keep every tallied injection.  Everything is a pure
function of (spec, pilot outcomes) - the trained model's digest is
surfaced in diagnostics - so the jobs/batch/resume determinism guarantee
is preserved; scanning happens in *plan position* order, which is the
stream order itself until the pilot completes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Mapping

from repro.errors import ConfigurationError
from repro.injection.campaign import (
    CampaignConfig,
    ComponentResult,
    InjectionCampaign,
    WorkloadResult,
)
from repro.injection.classify import ERROR_CLASSES, FaultEffect
from repro.injection.components import Component, component_bits
from repro.injection.fault import FaultStream
from repro.injection.learned import (
    CalibrationBuckets,
    FeatureExtractor,
    LearnedPlan,
    LearnedPlanner,
)
from repro.injection.parallel import MachineImage
from repro.injection.sampling import (
    error_margin,
    projected_trials_wilson,
    readjusted_margin,
    sample_size,
    stratified_half_width,
    stratified_rate,
    wilson_half_width,
)
from repro.workloads.base import Workload

__all__ = [
    "AdaptiveCampaign",
    "AdaptiveDiagnostics",
    "StratumProgress",
    "stratum_widths",
    "widths_satisfied",
    "projected_remaining",
    "fixed_equivalent_faults",
]


def stratum_widths(
    population: int,
    counts: Mapping[FaultEffect, int],
    injections: int,
    confidence: float = 0.99,
) -> dict[str, float]:
    """Current precision of every tracked rate of one stratum.

    Returns ``{"AVF": readjusted Leveugle margin, "SDC": Wilson
    half-width, "APP_CRASH": ..., "SYS_CRASH": ...}``; every entry is
    ``inf`` when nothing has been injected yet.
    """
    if injections <= 0:
        return {"AVF": float("inf")} | {
            effect.name: float("inf") for effect in ERROR_CLASSES
        }
    masked = counts.get(FaultEffect.MASKED, 0)
    avf = 1.0 - masked / injections
    widths = {
        "AVF": readjusted_margin(population, injections, avf, confidence)
    }
    for effect in ERROR_CLASSES:
        widths[effect.name] = wilson_half_width(
            counts.get(effect, 0), injections, confidence
        )
    return widths


def widths_satisfied(widths: Mapping[str, float], target_margin: float) -> bool:
    """The stopping predicate: every tracked width within the target."""
    return all(width <= target_margin for width in widths.values())


def projected_remaining(
    population: int,
    counts: Mapping[FaultEffect, int],
    injections: int,
    target_margin: float,
    confidence: float = 0.99,
) -> int:
    """Estimated additional injections before the stratum satisfies.

    Telemetry only - a planning estimate from the current rate point
    estimates, not a promise.  The binding criterion is whichever tracked
    rate needs the most trials.
    """
    if injections <= 0:
        return sample_size(population, target_margin, confidence)
    masked = counts.get(FaultEffect.MASKED, 0)
    avf = 1.0 - masked / injections
    conservative = error_margin(population, injections, confidence)
    if avf <= 0.5:
        p = min(0.5, avf + conservative)
    else:
        p = max(0.5, avf - conservative)
    p = min(max(p, 1e-6), 1 - 1e-6)
    needed = sample_size(population, target_margin, confidence, p=p)
    for effect in ERROR_CLASSES:
        rate = counts.get(effect, 0) / injections
        needed = max(
            needed, projected_trials_wilson(rate, target_margin, confidence)
        )
    return max(0, needed - injections)


def fixed_equivalent_faults(
    population: int, target_margin: float, confidence: float = 0.99
) -> int:
    """Faults a fixed (non-adaptive) plan would budget for the same target.

    The pre-campaign Leveugle size at the conservative p = 0.5 - what you
    would have to ask ``faults_per_component`` for without sequential
    stopping.  The adaptive headline ("same margins, N% fewer
    injections") is measured against this.
    """
    return sample_size(population, target_margin, confidence)


@dataclass(frozen=True)
class StratumProgress:
    """Snapshot of one stratum's precision, taken after each round."""

    component: Component
    #: Injections actually executed (includes overshoot past the cut).
    executed: int
    #: Length of the reported prefix (the tallies the result will use).
    reported: int
    #: AVF estimate over the reported prefix.
    avf: float
    #: Current widths of every tracked rate (see :func:`stratum_widths`).
    widths: dict[str, float]
    satisfied: bool
    #: True when the stratum hit ``max_faults`` without satisfying.
    capped: bool
    #: Estimated injections still needed (0 once satisfied or capped).
    projected: int
    #: ``"plain"`` (natural stream order) or ``"learned"`` (importance
    #: sampled with a stratified estimator).
    mode: str = "plain"
    #: blake2b digest of the trained predictor (learned mode only).
    model_digest: str | None = None
    #: Non-empty predicted-probability bins (learned mode only).
    bins: int = 0
    #: Predicted-vs-actual calibration payload (learned mode only; see
    #: :class:`repro.injection.learned.CalibrationBuckets`).
    calibration: dict | None = None

    def to_dict(self) -> dict:
        """JSON-friendly snapshot (for telemetry and metrics export)."""
        payload = {
            "component": self.component.name,
            "executed": self.executed,
            "reported": self.reported,
            "avf": self.avf,
            "widths": dict(self.widths),
            "satisfied": self.satisfied,
            "capped": self.capped,
            "projected": self.projected,
            "mode": self.mode,
        }
        if self.mode == "learned":
            payload["model_digest"] = self.model_digest
            payload["bins"] = self.bins
            payload["calibration"] = self.calibration
        return payload


@dataclass
class AdaptiveDiagnostics:
    """How an adaptive campaign converged (per workload)."""

    workload_name: str
    target_margin: float
    confidence: float
    rounds: int
    strata: dict[Component, StratumProgress] = field(default_factory=dict)

    @property
    def total_executed(self) -> int:
        """Injections actually run across all strata (the cost measure)."""
        return sum(status.executed for status in self.strata.values())

    def to_dict(self) -> dict:
        """JSON-friendly snapshot of the whole campaign's convergence."""
        return {
            "workload": self.workload_name,
            "target_margin": self.target_margin,
            "confidence": self.confidence,
            "rounds": self.rounds,
            "total_executed": self.total_executed,
            "strata": {
                component.name: status.to_dict()
                for component, status in self.strata.items()
            },
        }


class _StratumState:
    """One stratum's fault stream, effect prefix, and stopping scan.

    With a ``planner`` (learned sampling), the scan runs in *plan
    position* order: positions below the pilot are the stream itself;
    the moment the scan crosses the pilot boundary unsatisfied, the
    planner trains on the pilot outcomes and either produces a
    :class:`~repro.injection.learned.LearnedPlan` (importance-ordered
    frame + stratified estimator) or declines (``None``), leaving the
    stratum on the plain path.  Either way the decision and everything
    after it are pure functions of the pilot, so determinism holds.
    """

    def __init__(
        self,
        stream: FaultStream,
        config: CampaignConfig,
        planner: LearnedPlanner | None = None,
    ):
        self.component = stream.component
        self.population = stream.component_bits
        self.stream = stream
        self.target = config.target_margin
        self.confidence = config.confidence
        self.min_faults = config.min_faults
        self.max_faults = config.max_faults
        self.planner = planner
        self.pilot_n = min(self.min_faults, self.max_faults)
        #: Effects by plan position (None = quarantined slot).  Position
        #: equals the global stream index until a plan exists.
        self.effects: dict[int, FaultEffect | None] = {}
        #: End of the scheduled/executed window so far (positions).
        self.executed_until = 0
        #: Next position the prefix scan will consume.
        self._scan_index = 0
        #: Tallies of the scanned prefix (only real effects, not holes).
        self.prefix_counts: dict[FaultEffect, int] = {}
        self.prefix_n = 0
        self.quarantined_in_prefix = 0
        #: Prefix length at which the stopping rule first held, if ever.
        self.satisfied_at: int | None = None
        #: Learned-mode state: the plan (None = plain order), per-bin
        #: tallies over the scanned phase-2 prefix, and calibration.
        self.plan: LearnedPlan | None = None
        self._plan_attempted = False
        self.bin_counts: list[dict[FaultEffect, int]] = []
        self.bin_n: list[int] = []
        self.calibration: CalibrationBuckets | None = None

    # -- ordering --------------------------------------------------------------

    def global_for(self, position: int) -> int:
        """Global stream index executed at ``position``."""
        if self.plan is None:
            return position
        return self.plan.global_for(position)

    # -- feeding ---------------------------------------------------------------

    def absorb(self, base: int, effects: list[FaultEffect | None]) -> None:
        """Record one executed window ``[base, base + len(effects))``."""
        for offset, effect in enumerate(effects):
            self.effects[base + offset] = effect
        self.executed_until = max(self.executed_until, base + len(effects))
        self._advance_scan()

    def _advance_scan(self) -> None:
        """Consume newly contiguous effects; cut at first satisfaction.

        The scan walks the effect stream in position order, re-evaluating
        the stopping rule after every injection.  It freezes at the first
        prefix that satisfies - later effects (batch overshoot) are never
        tallied, which is what makes the reported result independent of
        batch boundaries.  Crossing the pilot boundary unsatisfied
        triggers (exactly once) the learned-plan training.
        """
        while self.satisfied_at is None:
            self._maybe_train()
            if self._scan_index not in self.effects:
                break
            position = self._scan_index
            effect = self.effects[position]
            self._scan_index += 1
            if effect is None:
                self.quarantined_in_prefix += 1
                continue
            self.prefix_counts[effect] = self.prefix_counts.get(effect, 0) + 1
            self.prefix_n += 1
            if self.plan is not None and position >= self.pilot_n:
                global_index = self.plan.global_for(position)
                bin_index = self.plan.bin_of[global_index]
                self.bin_n[bin_index] += 1
                counts = self.bin_counts[bin_index]
                counts[effect] = counts.get(effect, 0) + 1
                if self.calibration is not None:
                    self.calibration.add(
                        self.plan.probs[global_index],
                        effect is FaultEffect.MASKED,
                    )
            if self.prefix_n >= self.min_faults and widths_satisfied(
                self.widths(), self.target
            ):
                self.satisfied_at = self.prefix_n

    def _maybe_train(self) -> None:
        """Train the learned plan once the pilot is fully scanned."""
        if (
            self._plan_attempted
            or self.planner is None
            or self._scan_index < self.pilot_n
        ):
            return
        self._plan_attempted = True
        pilot_faults = self.stream.take(self.pilot_n)
        pilot_outcomes = [
            (pilot_faults[position], effect)
            for position in range(self.pilot_n)
            if (effect := self.effects.get(position)) is not None
        ]
        plan = self.planner.plan(self.stream, pilot_outcomes)
        if plan is None:
            return  # deterministic plain fallback
        self.plan = plan
        self.bin_counts = [{} for _ in range(plan.n_bins)]
        self.bin_n = [0] * plan.n_bins
        self.calibration = CalibrationBuckets()

    # -- derived ---------------------------------------------------------------

    @property
    def satisfied(self) -> bool:
        return self.satisfied_at is not None

    @property
    def capped(self) -> bool:
        return not self.satisfied and self.executed_until >= self.max_faults

    @property
    def executed(self) -> int:
        """Injections executed so far (quarantined slots included)."""
        return len(self.effects)

    def _tracked_classes(self) -> list[FaultEffect]:
        return [FaultEffect.MASKED, *ERROR_CLASSES]

    def widths(self) -> dict[str, float]:
        if self.plan is None:
            return stratum_widths(
                self.population,
                self.prefix_counts,
                self.prefix_n,
                self.confidence,
            )
        # Stratified mode: the AVF criterion is the stratified half-width
        # of the Masked rate (AVF = 1 - Masked, same width), replacing
        # the readjusted Leveugle margin of the plain path; the error
        # classes use their stratified half-widths in place of the plain
        # Wilson ones.  Infinite until every bin has been visited.
        weights = list(self.plan.weights)
        widths = {}
        for effect in self._tracked_classes():
            successes = [
                counts.get(effect, 0) for counts in self.bin_counts
            ]
            half = stratified_half_width(
                successes, self.bin_n, weights, self.confidence
            )
            widths["AVF" if effect is FaultEffect.MASKED else effect.name] = half
        return widths

    def estimates(self) -> dict[str, float] | None:
        """Stratified rate estimates by class name (learned mode only)."""
        if self.plan is None:
            return None
        weights = list(self.plan.weights)
        estimates = {}
        for effect in self._tracked_classes():
            successes = [
                counts.get(effect, 0) for counts in self.bin_counts
            ]
            estimates[effect.name] = stratified_rate(
                successes, self.bin_n, weights
            )
        estimates["AVF"] = 1.0 - estimates[FaultEffect.MASKED.name]
        return estimates

    def projected(self) -> int:
        if self.satisfied or self.capped:
            return 0
        return projected_remaining(
            self.population,
            self.prefix_counts,
            self.prefix_n,
            self.target,
            self.confidence,
        )

    def width_score(self) -> float:
        """Allocation weight: how far the widest tracked rate overshoots."""
        widths = self.widths()
        worst = max(widths.values())
        if worst == float("inf"):
            return float("inf")
        return max(1e-9, worst / self.target)

    def progress(self) -> StratumProgress:
        estimates = self.estimates()
        if estimates is not None:
            avf = estimates["AVF"]
        else:
            masked = self.prefix_counts.get(FaultEffect.MASKED, 0)
            avf = 1.0 - masked / self.prefix_n if self.prefix_n else 0.0
        return StratumProgress(
            component=self.component,
            executed=self.executed,
            reported=self.prefix_n,
            avf=avf,
            widths=self.widths(),
            satisfied=self.satisfied,
            capped=self.capped,
            projected=self.projected(),
            mode="learned" if self.plan is not None else "plain",
            model_digest=self.plan.model_digest if self.plan else None,
            bins=self.plan.n_bins if self.plan else 0,
            calibration=(
                self.calibration.to_dict()
                if self.calibration is not None
                else None
            ),
        )

    def result(self, confidence: float) -> ComponentResult:
        """The stratum's final tally: the shortest satisfying prefix.

        In learned mode the raw ``counts`` honestly record everything
        tallied (pilot included), while the attached stratified
        ``estimates``/``half_widths`` - computed from the post-pilot
        frame only, bias-corrected by the exact bin weights - are what
        the rate/AVF/margin accessors report.
        """
        estimates = self.estimates()
        return ComponentResult(
            component=self.component,
            injections=self.prefix_n,
            population_bits=self.population,
            counts=dict(self.prefix_counts),
            confidence=confidence,
            quarantined=self.quarantined_in_prefix,
            estimates=estimates,
            half_widths=dict(self.widths()) if estimates is not None else None,
        )


def _allocate(budget: int, demands: dict[Component, tuple[float, int]]) -> dict[Component, int]:
    """Split ``budget`` injections across strata by width score.

    ``demands`` maps each hungry stratum to ``(score, capacity)``; wider
    intervals get proportionally more of the batch (largest-remainder
    rounding, deterministic in stratum order), every hungry stratum gets
    at least one injection while budget lasts, and nobody exceeds its
    remaining capacity to ``max_faults``.
    """
    if not demands:
        return {}
    infinite = [c for c, (score, _cap) in demands.items() if score == float("inf")]
    total_score = sum(
        score for score, _cap in demands.values() if score != float("inf")
    )
    allocation: dict[Component, int] = {}
    if infinite:
        # Strata with no data yet split the budget evenly among themselves.
        share, remainder = divmod(budget, len(infinite))
        for position, component in enumerate(infinite):
            want = share + (1 if position < remainder else 0)
            allocation[component] = min(want, demands[component][1])
        return {c: n for c, n in allocation.items() if n > 0}
    fractions = []
    for component, (score, capacity) in demands.items():
        ideal = budget * score / total_score if total_score else 0.0
        base = min(int(ideal), capacity)
        allocation[component] = base
        fractions.append((ideal - base, component))
    leftover = budget - sum(allocation.values())
    # Largest fractional remainders first; stratum order breaks ties.
    fractions.sort(key=lambda item: -item[0])
    while leftover > 0:
        progressed = False
        for _fraction, component in fractions:
            if leftover <= 0:
                break
            if allocation[component] < demands[component][1]:
                allocation[component] += 1
                leftover -= 1
                progressed = True
        if not progressed:
            break  # every stratum is at capacity
    # Budget permitting, nobody hungry is left at zero.
    for component, (_score, capacity) in demands.items():
        if allocation[component] == 0 and capacity > 0:
            allocation[component] = 1
    return {c: n for c, n in allocation.items() if n > 0}


class AdaptiveCampaign(InjectionCampaign):
    """Sequential-stopping injection campaign (see the module docstring).

    A drop-in :class:`~repro.injection.campaign.InjectionCampaign` whose
    config must set ``target_margin``; ``run_workload``/``run_suite``
    return the same :class:`WorkloadResult` shape (so AVF breakdowns, FIT
    models and the report drivers compose unchanged), with per-component
    sample sizes chosen by the stopping rule instead of
    ``faults_per_component``.  Convergence details of the last run are
    kept in :attr:`diagnostics` (by workload name).
    """

    def __init__(self, config: CampaignConfig, **kwargs):
        """Require an adaptive ``config`` (its values are checked by
        :class:`CampaignConfig` itself); ``kwargs`` are
        :class:`InjectionCampaign`'s."""
        if config.target_margin is None:
            raise ConfigurationError(
                "AdaptiveCampaign requires CampaignConfig.target_margin"
            )
        super().__init__(config, **kwargs)
        #: Convergence diagnostics of the last run, by workload name: a
        #: live run's convergence, or, for a cache hit (``rounds == 0``),
        #: the precision the stored tallies achieve.
        self.diagnostics: dict[str, AdaptiveDiagnostics] = {}

    # -- diagnostics -----------------------------------------------------------

    def _diagnostics_from_result(self, result: WorkloadResult) -> AdaptiveDiagnostics:
        """Rebuild the achieved-precision view from a (cached) result."""
        config = self.config
        diagnostics = AdaptiveDiagnostics(
            workload_name=result.workload_name,
            target_margin=config.target_margin,
            confidence=config.confidence,
            rounds=0,
        )
        for component, tally in result.components.items():
            if tally.half_widths is not None:
                # Learned-sampling result: the stored stratified
                # half-widths are the achieved precision (recomputing
                # plain widths from the raw counts would mix in the
                # importance-weighted sample).
                widths = dict(tally.half_widths)
            else:
                widths = stratum_widths(
                    tally.population_bits,
                    tally.counts,
                    tally.injections,
                    config.confidence,
                )
            satisfied = widths_satisfied(widths, config.target_margin)
            diagnostics.strata[component] = StratumProgress(
                component=component,
                executed=tally.injections,
                reported=tally.injections,
                avf=tally.avf,
                widths=widths,
                satisfied=satisfied,
                capped=not satisfied,
                projected=0,
                mode="learned" if tally.estimates is not None else "plain",
            )
        return diagnostics

    # -- execution -------------------------------------------------------------

    def run_workload(
        self,
        workload: Workload,
        components: Iterable[Component] = tuple(Component),
        use_cache: bool = True,
    ) -> WorkloadResult:
        """Adaptive campaign for one workload (cached like the fixed one).

        A cache hit reports the precision its stored tallies achieve
        (:meth:`_diagnostics_from_result`, ``rounds == 0``); a miss runs
        every requested stratum and reports its live convergence.
        """
        live = AdaptiveDiagnostics(
            workload.name, self.config.target_margin, self.config.confidence, rounds=0
        )
        result = self._run_campaign(
            workload, components, use_cache, partial(self._run_rounds, live=live)
        )
        self.diagnostics[workload.name] = (
            live if live.rounds else self._diagnostics_from_result(result)
        )
        return result

    def _run_rounds(
        self,
        image: MachineImage,
        components: tuple[Component, ...],
        run_plan: Callable[..., dict[Component, list[FaultEffect | None]]],
        live: AdaptiveDiagnostics,
    ) -> dict[Component, ComponentResult]:
        """Inject round after round until every stratum stops.

        Each round's windows come from :meth:`_next_windows` and run as
        one plan whose ``indices`` are the windows' global stream indices
        (the identity order until a learned plan reorders a stratum).
        Records the rounds and final stratum progress into ``live``.
        """
        config = self.config
        machine = config.machine
        planner = None
        if config.learned_sampling:
            planner = LearnedPlanner(
                extractor=FeatureExtractor(
                    machine, image.golden_cycles, activity=image.activity
                ),
                pilot_n=min(config.min_faults, config.max_faults),
                max_faults=config.max_faults,
            )
        states = {
            component: _StratumState(
                FaultStream(
                    component,
                    component_bits(machine, component),
                    image.golden_cycles,
                    seed=config.seed,
                ),
                config,
                planner,
            )
            for component in components
        }
        while True:
            windows = self._next_windows(states, first=live.rounds == 0)
            if not windows:
                break
            live.rounds += 1
            indices = {
                component: [
                    states[component].global_for(position)
                    for position in range(start, stop)
                ]
                for component, (start, stop) in windows.items()
            }
            plan = {
                component: states[component].stream.at(globals_)
                for component, globals_ in indices.items()
            }
            effects = run_plan(plan, indices=indices)
            for component, (start, _stop) in windows.items():
                states[component].absorb(start, effects[component])
            self._report_round(image.name, live.rounds, states)

        for component, state in states.items():
            if state.capped:
                self._progress(
                    f"{image.name}/{component.name}: target margin "
                    f"{config.target_margin:.3f} not reached at the "
                    f"max_faults cap ({config.max_faults}); reporting "
                    f"{state.prefix_n} injections"
                )
            live.strata[component] = state.progress()
        return {
            component: state.result(config.confidence)
            for component, state in states.items()
        }

    def _next_windows(
        self,
        states: dict[Component, _StratumState],
        first: bool,
    ) -> dict[Component, tuple[int, int]]:
        """Choose each hungry stratum's next window of the fault stream.

        Round 1 seeds every stratum with its ``min_faults`` floor, below
        which the stopping rule cannot hold anyway (for a learned stratum
        that window is exactly its pilot).  Later rounds split
        ``batch_size`` across the still-unsatisfied strata by current
        interval width.  The choice reads only the effects absorbed so
        far, never the journal: a resumed campaign walks the same
        windows as an uninterrupted one and
        :func:`~repro.injection.parallel.run_injection_plan` replays what
        each window finds journaled.
        """
        config = self.config
        if first:
            return {
                component: (0, min(config.min_faults, config.max_faults))
                for component in states
            }
        demands = {}
        for component, state in states.items():
            if state.satisfied or state.capped:
                continue
            capacity = config.max_faults - state.executed_until
            if capacity <= 0:
                continue
            demands[component] = (state.width_score(), capacity)
        allocation = _allocate(config.batch_size, demands)
        return {
            component: (
                states[component].executed_until,
                states[component].executed_until + count,
            )
            for component, count in allocation.items()
        }

    def _report_round(
        self,
        workload_name: str,
        round_index: int,
        states: dict[Component, _StratumState],
    ) -> None:
        """Feed per-stratum interval-width progress to telemetry + log."""
        statuses = [state.progress() for state in states.values()]
        if self.telemetry is not None:
            self.telemetry.record_adaptive_round(
                round_index, [status.to_dict() for status in statuses]
            )
        pending = [status for status in statuses if not status.satisfied]
        widest = sorted(
            pending, key=lambda status: -max(status.widths.values())
        )[:3]
        if not pending:
            self._progress(
                f"{workload_name}: adaptive round {round_index} - all "
                f"strata within ±{self.config.target_margin:.3f}"
            )
            return
        detail = ", ".join(
            f"{status.component.name} ±{max(status.widths.values()):.3f}"
            f" (~{status.projected} to go)"
            for status in widest
        )
        self._progress(
            f"{workload_name}: adaptive round {round_index} - "
            f"{len(pending)} stratum/strata above ±"
            f"{self.config.target_margin:.3f}: {detail}"
        )
