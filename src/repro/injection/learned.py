"""Learned Masked-outcome prediction and importance-ordered fault streams.

This module closes ROADMAP item 3: a stdlib-only classifier (categorical
Naive Bayes - no sklearn) predicts P(Masked) for each fault *before* it
is injected, from features derivable from the fault's identity plus the
golden-run activity observables captured alongside checkpoints and
digests (:mod:`repro.observability.golden`).  The adaptive engine
(:mod:`repro.injection.adaptive`) uses the predictions for **stratified
importance sampling**:

1. The first ``min_faults`` stream indices (the *pilot*) run in natural
   stream order and train the predictor.
2. The remaining frame ``[pilot_n, max_faults)`` is partitioned into
   predicted-probability bins with *exact, known* frame weights
   ``W_b = |bin_b| / |frame|``.
3. Faults are drawn round-robin-by-credit across bins, weighted toward
   uncertain bins (Neyman-style ``W_b * sqrt(p(1-p))`` plus an
   exploration floor), and the estimator post-corrects by the known
   ``W_b`` - a textbook stratified estimator, so the reported AVF stays
   unbiased no matter how aggressively the order favours one bin.

Determinism: the sampled order is a pure function of the campaign spec
(stream seed, component, pilot outcomes) - the model is trained on the
pilot outcomes only, which are themselves deterministic, and the trained
model's :meth:`MaskedPredictor.digest` is exposed in diagnostics so two
runs can prove they sampled identically.  The jobs/batch/resume
bit-identical guarantee of plain adaptive campaigns is preserved.

When the pilot cannot support a model (fewer than
:data:`MIN_CLASS_SAMPLES` examples of either class, or all predictions
fall in one bin), :meth:`LearnedPlanner.plan` returns ``None`` and the
stratum falls back to plain adaptive behaviour - also deterministically,
because the decision depends only on the pilot.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.injection.classify import FaultEffect
from repro.injection.components import Component
from repro.injection.fault import Fault, FaultStream
from repro.microarch.config import MachineConfig
from repro.microarch.regfile import ARCH_REGS, FP_REG_BITS, INT_REG_BITS
from repro.observability.golden import GoldenActivity

#: Predicted-P(Masked) bin edges for the sampling frame.  Two edges =
#: at most three bins (likely-unmasked / uncertain / likely-masked);
#: empty bins are dropped.  Few, wide bins keep the per-bin Wilson
#: half-widths (which combine by root-sum-square) from dominating the
#: stopping rule on rare classes.
BIN_EDGES = (0.35, 0.85)

#: Fraction of each bin's frame weight always kept in the draw weight,
#: so no bin starves even when the model is confident about it.
EXPLORATION_FLOOR = 0.10

#: Minimum pilot examples of *each* class (Masked / not-Masked) before
#: a model is trusted; below this the stratum stays plain adaptive.
MIN_CLASS_SAMPLES = 3

#: Predicted-probability bucket edges for the calibration report.
CALIBRATION_EDGES = (0.25, 0.5, 0.75)


def assign_bin(prob: float, edges: Sequence[float]) -> int:
    """Index of the bin ``prob`` falls in for ascending ``edges``."""
    index = 0
    for edge in edges:
        if prob >= edge:
            index += 1
    return index


class FeatureExtractor:
    """Categorical pre-injection features for a fault.

    Features are ``(name, value)`` string pairs drawn from the fault's
    identity (component geometry, strike position, strike phase) and the
    golden activity observables (was the struck unit holding live data,
    how soon does the golden run read it again).  When ``activity`` is
    ``None`` - legacy images captured before activity recording - the
    observable features degrade to ``"?"`` instead of crashing, so the
    predictor still trains on the identity features alone.
    """

    def __init__(
        self,
        machine: MachineConfig,
        golden_cycles: int,
        activity: GoldenActivity | None = None,
    ):
        self.machine = machine
        self.golden_cycles = max(1, golden_cycles)
        self.activity = activity

    def features(self, fault: Fault) -> tuple[tuple[str, str], ...]:
        """Extract the feature tuple for one fault."""
        component = fault.component
        phase = ("phase", str(min(3, fault.cycle * 4 // self.golden_cycles)))
        if component in (Component.L1D, Component.L1I, Component.L2):
            geometry = {
                Component.L1D: self.machine.l1d,
                Component.L1I: self.machine.l1i,
                Component.L2: self.machine.l2,
            }[component]
            unit = fault.bit_index // (geometry.line_size * 8)
            region = ("region", str(min(7, unit * 8 // geometry.n_lines)))
            return (
                region,
                self._resident(component, unit, fault.cycle),
                self._next_read(component, unit, fault.cycle),
                phase,
            )
        if component in (Component.ITLB, Component.DTLB):
            geometry = (
                self.machine.itlb
                if component is Component.ITLB
                else self.machine.dtlb
            )
            unit = fault.bit_index // geometry.entry_bits
            slot = ("slot", str(min(3, unit * 4 // geometry.entries)))
            return (
                slot,
                self._resident(component, unit, fault.cycle),
                self._next_read(component, unit, fault.cycle),
                phase,
            )
        # Register file: no probe seam, so identity features only.
        int_bits = self.machine.int_phys_regs * INT_REG_BITS
        if fault.bit_index < int_bits:
            bank, reg = "int", fault.bit_index // INT_REG_BITS
        else:
            bank = "fp"
            reg = (fault.bit_index - int_bits) // FP_REG_BITS
        slot = "arch" if reg < ARCH_REGS else "rename"
        return (("bank", bank), ("slot", slot), phase)

    def _resident(
        self, component: Component, unit: int, cycle: int
    ) -> tuple[str, str]:
        activity = self.activity
        if activity is None:
            return ("resident", "?")
        state = activity.resident(component.name, unit, cycle)
        if state is None:
            return ("resident", "?")
        return ("resident", "1" if state else "0")

    def _next_read(
        self, component: Component, unit: int, cycle: int
    ) -> tuple[str, str]:
        activity = self.activity
        if activity is None or component.name not in activity.reads:
            return ("next_read", "?")
        gap = activity.next_read_gap(component.name, unit, cycle)
        if gap is None:
            return ("next_read", "never")
        if gap == 0:
            return ("next_read", "hot")
        if gap <= 3:
            return ("next_read", "soon")
        return ("next_read", "late")


class MaskedPredictor:
    """Categorical Naive Bayes over ``(name, value)`` features.

    Laplace-smoothed (alpha = 1) on both the class prior and the
    per-feature likelihoods, so it never emits 0 or 1 and behaves
    sanely on the tiny pilot samples it trains from.  Pure stdlib,
    deterministic, and digestible.
    """

    def __init__(self) -> None:
        self.class_counts: dict[bool, int] = {True: 0, False: 0}
        self.value_counts: dict[bool, dict[tuple[str, str], int]] = {
            True: {},
            False: {},
        }
        self.vocabulary: dict[str, set[str]] = {}

    @property
    def samples(self) -> int:
        """Total training examples seen."""
        return self.class_counts[True] + self.class_counts[False]

    def train(
        self, samples: Iterable[tuple[tuple[tuple[str, str], ...], bool]]
    ) -> None:
        """Absorb ``(features, masked)`` training examples."""
        for features, masked in samples:
            self.class_counts[masked] += 1
            table = self.value_counts[masked]
            for name, value in features:
                table[(name, value)] = table.get((name, value), 0) + 1
                self.vocabulary.setdefault(name, set()).add(value)

    def predict(self, features: tuple[tuple[str, str], ...]) -> float:
        """P(Masked | features); 0.5 before any training."""
        total = self.samples
        if total == 0:
            return 0.5
        scores = {}
        for masked in (True, False):
            score = math.log((self.class_counts[masked] + 1) / (total + 2))
            for name, value in features:
                cardinality = len(self.vocabulary.get(name, ())) or 1
                count = self.value_counts[masked].get((name, value), 0)
                score += math.log(
                    (count + 1) / (self.class_counts[masked] + cardinality)
                )
            scores[masked] = score
        peak = max(scores.values())
        p_true = math.exp(scores[True] - peak)
        p_false = math.exp(scores[False] - peak)
        return p_true / (p_true + p_false)

    def digest(self) -> str:
        """Stable hash of the trained model (order-independent)."""
        payload = {
            "classes": [self.class_counts[True], self.class_counts[False]],
            "counts": {
                str(masked): sorted(
                    (f"{name}={value}", count)
                    for (name, value), count in table.items()
                )
                for masked, table in self.value_counts.items()
            },
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.blake2b(canonical.encode(), digest_size=8).hexdigest()


@dataclass
class CalibrationBuckets:
    """Predicted-vs-actual Masked tallies by predicted-probability bucket.

    Feeds the honesty report: for each bucket of predicted P(Masked),
    how many injections landed there, the mean prediction, and the
    actually observed Masked rate.  A well-calibrated model shows the
    two tracking each other.
    """

    edges: tuple[float, ...] = CALIBRATION_EDGES
    counts: list[int] = field(default_factory=list)
    masked: list[int] = field(default_factory=list)
    prob_sums: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        """Size the tally arrays off the bucket edges."""
        buckets = len(self.edges) + 1
        if not self.counts:
            self.counts = [0] * buckets
            self.masked = [0] * buckets
            self.prob_sums = [0.0] * buckets

    def add(self, prob: float, masked: bool) -> None:
        """Record one (prediction, observed outcome) pair."""
        bucket = assign_bin(prob, self.edges)
        self.counts[bucket] += 1
        self.prob_sums[bucket] += prob
        if masked:
            self.masked[bucket] += 1

    @property
    def total(self) -> int:
        """Injections recorded across all buckets."""
        return sum(self.counts)

    def rows(self) -> list[dict]:
        """Per-bucket summary rows (empty buckets skipped)."""
        labels = []
        low = 0.0
        for edge in self.edges:
            labels.append(f"[{low:.2f}, {edge:.2f})")
            low = edge
        labels.append(f"[{low:.2f}, 1.00]")
        rows = []
        for index, label in enumerate(labels):
            count = self.counts[index]
            if not count:
                continue
            rows.append(
                {
                    "bucket": label,
                    "n": count,
                    "predicted": self.prob_sums[index] / count,
                    "actual": self.masked[index] / count,
                }
            )
        return rows

    def to_dict(self) -> dict:
        """JSON-friendly payload for telemetry/diagnostics."""
        return {"edges": list(self.edges), "rows": self.rows()}


@dataclass(frozen=True)
class LearnedPlan:
    """A deterministic importance-sampled order for one stratum.

    Positions ``[0, pilot_n)`` are the pilot in natural stream order;
    position ``pilot_n + k`` executes global stream index ``order[k]``.
    ``weights[b]`` is the exact frame weight ``W_b`` of bin ``b`` and
    ``bin_of``/``probs`` map each frame index to its bin / predicted
    P(Masked) for the stratified estimator and the calibration table.
    """

    pilot_n: int
    order: tuple[int, ...]
    bin_of: Mapping[int, int]
    probs: Mapping[int, float]
    weights: tuple[float, ...]
    model_digest: str

    @property
    def n_bins(self) -> int:
        """Number of non-empty predicted-probability bins."""
        return len(self.weights)

    def global_for(self, position: int) -> int:
        """Global stream index executed at plan ``position``."""
        if position < self.pilot_n:
            return position
        return self.order[position - self.pilot_n]


def _interleave(members: Sequence[Sequence[int]], weights: Sequence[float]) -> list[int]:
    """Deterministic credit-based interleave of bins into one order.

    Each step adds every live bin's weight to its credit, picks the
    highest credit (ties to the lowest bin id), charges it the total
    live weight, and emits that bin's next member in original stream
    order.  Largest-remainder style: over any prefix each live bin's
    share tracks its weight, and exhausted bins simply drop out.
    """
    credits = [0.0] * len(members)
    cursors = [0] * len(members)
    order: list[int] = []
    total = sum(len(group) for group in members)
    while len(order) < total:
        live = [i for i in range(len(members)) if cursors[i] < len(members[i])]
        live_weight = sum(weights[i] for i in live)
        for i in live:
            credits[i] += weights[i]
        pick = max(live, key=lambda i: (credits[i], -i))
        credits[pick] -= live_weight
        order.append(members[pick][cursors[pick]])
        cursors[pick] += 1
    return order


class LearnedPlanner:
    """Builds :class:`LearnedPlan` objects from pilot outcomes.

    One planner per campaign; :meth:`plan` is a pure function of the
    (deterministic) stream and pilot outcomes, so every worker, batch
    size, and resume replays the identical plan.
    """

    def __init__(
        self,
        extractor: FeatureExtractor,
        pilot_n: int,
        max_faults: int,
        edges: Sequence[float] = BIN_EDGES,
        exploration: float = EXPLORATION_FLOOR,
    ):
        self.extractor = extractor
        self.pilot_n = pilot_n
        self.max_faults = max_faults
        self.edges = tuple(edges)
        self.exploration = exploration

    def plan(
        self,
        stream: FaultStream,
        pilot_outcomes: Sequence[tuple[Fault, FaultEffect]],
    ) -> LearnedPlan | None:
        """Train on the pilot and build the importance order.

        Returns ``None`` - meaning "stay plain adaptive" - when the
        pilot has fewer than :data:`MIN_CLASS_SAMPLES` examples of
        either class, the frame is empty, or every frame fault lands in
        a single bin (no stratification possible).  The decision is a
        pure function of the pilot, so it is identical on every
        worker/batch/resume.
        """
        masked = sum(
            1 for _, effect in pilot_outcomes if effect is FaultEffect.MASKED
        )
        other = len(pilot_outcomes) - masked
        if masked < MIN_CLASS_SAMPLES or other < MIN_CLASS_SAMPLES:
            return None
        frame = list(range(self.pilot_n, self.max_faults))
        if not frame:
            return None
        predictor = MaskedPredictor()
        predictor.train(
            (self.extractor.features(fault), effect is FaultEffect.MASKED)
            for fault, effect in pilot_outcomes
        )
        faults = stream.take(self.max_faults)
        probs = {
            index: predictor.predict(self.extractor.features(faults[index]))
            for index in frame
        }
        raw_bins: dict[int, list[int]] = {}
        for index in frame:
            raw_bins.setdefault(assign_bin(probs[index], self.edges), []).append(
                index
            )
        live_bins = sorted(raw_bins)
        if len(live_bins) <= 1:
            return None
        members = [raw_bins[raw] for raw in live_bins]
        frame_size = len(frame)
        weights = tuple(len(group) / frame_size for group in members)
        draw_weights = []
        for group, frame_weight in zip(members, weights):
            mean_prob = sum(probs[index] for index in group) / len(group)
            spread = math.sqrt(mean_prob * (1.0 - mean_prob))
            draw_weights.append(
                frame_weight * spread + self.exploration * frame_weight
            )
        order = tuple(_interleave(members, draw_weights))
        bin_of = {}
        for bin_index, group in enumerate(members):
            for index in group:
                bin_of[index] = bin_index
        return LearnedPlan(
            pilot_n=self.pilot_n,
            order=order,
            bin_of=bin_of,
            probs=probs,
            weights=weights,
            model_digest=predictor.digest(),
        )
