"""Structured campaign telemetry: running tallies, throughput, ETA.

A long campaign (the paper's scale is ~78,000 injections) needs to be
*observable* while it runs: how fast injections complete, how far along
each component is, whether the harness is retrying or quarantining
faults.  :class:`CampaignTelemetry` is the sink the execution engine
feeds; the CLI renders its progress line periodically and its summary
table at the end (via :func:`repro.analysis.report.telemetry_table`).

The sink is deliberately passive - plain counters plus formatting - so it
can be shared across workloads of a suite run and inspected from tests
with an injected clock.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable

from repro.injection.classify import FaultEffect
from repro.injection.components import Component
from repro.injection.journal import InjectionRecord, QuarantineRecord
from repro.observability.events import (
    EV_DIVERGE,
    EV_FLIP,
    EV_READ,
    first_event,
    masking_mechanism,
)


def _format_duration(seconds: float) -> str:
    seconds = max(0.0, seconds)
    if seconds < 60:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(seconds), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


class CampaignTelemetry:
    """Running counters of one campaign (possibly spanning a suite).

    Distinguishes *live* completions from *replayed* ones (journal
    resume): throughput and ETA are computed from live completions only,
    so a resumed campaign does not report a fictitious rate.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self._clock = clock
        self.started = clock()
        #: Per-component running class tallies (live + replayed).
        self.class_counts: dict[Component, dict[FaultEffect, int]] = {}
        #: Planned injections per component (grows as plans register).
        self.planned: dict[Component, int] = {}
        self.completed = 0
        self.replayed = 0
        self.retries = 0
        self.timeouts = 0
        self.worker_deaths = 0
        self.quarantined = 0
        #: Per-component quarantine counts (sums to ``quarantined``).
        self.quarantined_by: dict[Component, int] = {}
        #: Injections that carried a fault-lifetime event payload.
        self.events_observed = 0
        #: Per-component masking-mechanism tallies of Masked injections
        #: with events (overwrite-before-read / never-read / read-but-
        #: converged; see :mod:`repro.observability.events`).
        self.masked_mechanisms: dict[Component, dict[str, int]] = {}
        #: Per-component cycles from flip to the first read of a tainted
        #: cell (only injections whose taint was ever read).
        self.first_read_cycles: dict[Component, list[int]] = {}
        #: Per-component cycles from flip to the first architectural
        #: divergence probe (only injections that diverged).
        self.divergence_cycles: dict[Component, list[int]] = {}
        #: Sum of per-injection wall-clock seconds (live only).
        self.injection_seconds = 0.0
        #: Injections by termination mechanism (live + replayed).
        self.ended_full = 0
        self.ended_digest = 0
        self.ended_dead_cell = 0
        #: Golden cycles *not* simulated thanks to early termination.
        self.cycles_saved = 0
        #: Adaptive campaigns only: rounds completed so far and the latest
        #: per-stratum convergence snapshot (plain dicts from
        #: :meth:`repro.injection.adaptive.StratumProgress.to_dict`, keyed
        #: by component name; a suite run keeps the most recent workload's
        #: snapshot - this is a live progress view, not an archive).
        self.adaptive_rounds = 0
        self.adaptive_strata: dict[str, dict] = {}

    # -- feeding -------------------------------------------------------------

    def register_plan(self, component: Component, count: int) -> None:
        """Announce that ``count`` injections of ``component`` will run."""
        self.planned[component] = self.planned.get(component, 0) + count
        self.class_counts.setdefault(component, {})

    def record(self, record: InjectionRecord, replayed: bool = False) -> None:
        """Tally one completed injection (a journal replay if ``replayed``).

        The record's fault-lifetime ``events`` feed the propagation
        aggregates; its ``wall_time`` counts toward live throughput only.
        """
        component, effect = record.component, record.effect
        tally = self.class_counts.setdefault(component, {})
        tally[effect] = tally.get(effect, 0) + 1
        self.completed += 1
        if record.events:
            self.events_observed += 1
            self._aggregate_events(record)
        if record.ended_by == "digest":
            self.ended_digest += 1
        elif record.ended_by == "dead-cell":
            self.ended_dead_cell += 1
        else:
            self.ended_full += 1
        self.cycles_saved += record.cycles_saved
        if replayed:
            self.replayed += 1
        else:
            self.injection_seconds += record.wall_time

    def replay(
        self,
        records: Iterable[InjectionRecord],
        quarantines: Iterable[QuarantineRecord],
    ) -> None:
        """Tally journaled injections and quarantines as *replayed*: they
        count toward the class tallies and propagation aggregates, never
        toward live throughput."""
        for record in records:
            self.record(record, replayed=True)
        for record in quarantines:
            self.record_quarantine(record)

    def record_retry(self) -> None:
        """Count one re-dispatch of a failed injection."""
        self.retries += 1

    def record_timeout(self) -> None:
        """Count one per-injection wall-clock limit expiry."""
        self.timeouts += 1

    def record_worker_death(self) -> None:
        """Count one worker process dying mid-injection."""
        self.worker_deaths += 1

    def record_quarantine(self, record: QuarantineRecord) -> None:
        """Count one fault retired after exhausting its retries."""
        component = record.component
        self.quarantined += 1
        self.quarantined_by[component] = self.quarantined_by.get(component, 0) + 1
        self.class_counts.setdefault(component, {})

    def record_adaptive_round(self, round_index: int, strata: list[dict]) -> None:
        """Record one adaptive round's per-stratum interval-width progress.

        ``strata`` is a list of
        :meth:`repro.injection.adaptive.StratumProgress.to_dict` payloads
        (current widths, satisfaction, projected remaining injections).
        """
        self.adaptive_rounds = max(self.adaptive_rounds, round_index)
        for status in strata:
            self.adaptive_strata[status["component"]] = status

    def _aggregate_events(self, record: InjectionRecord) -> None:
        component, events = record.component, record.events
        flip = first_event(events, EV_FLIP)
        if flip is None:
            return
        if record.effect is FaultEffect.MASKED:
            mechanism = masking_mechanism(events, record.site)
            tally = self.masked_mechanisms.setdefault(component, {})
            tally[mechanism] = tally.get(mechanism, 0) + 1
        read = first_event(events, EV_READ)
        if read is not None:
            self.first_read_cycles.setdefault(component, []).append(
                read.cycle - flip.cycle
            )
        diverge = first_event(events, EV_DIVERGE)
        if diverge is not None:
            self.divergence_cycles.setdefault(component, []).append(
                diverge.cycle - flip.cycle
            )

    # -- derived -------------------------------------------------------------

    @property
    def elapsed(self) -> float:
        """Wall-clock seconds since the campaign started."""
        return self._clock() - self.started

    @property
    def live_completed(self) -> int:
        """Injections actually simulated (excluding journal replays)."""
        return self.completed - self.replayed

    def injections_per_second(self) -> float:
        """End-to-end throughput of *live* injections."""
        elapsed = self.elapsed
        if elapsed <= 0 or not self.live_completed:
            return 0.0
        return self.live_completed / elapsed

    def remaining(self) -> int:
        """Planned injections not yet completed or quarantined."""
        planned = sum(self.planned.values())
        return max(0, planned - self.completed - self.quarantined)

    def eta_seconds(self) -> float | None:
        """Estimated seconds to completion.

        ``None`` before any live run *while work remains*; a campaign with
        nothing left (for example fully replayed from a journal) is done,
        so its ETA is 0 rather than unknown.
        """
        if not self.remaining():
            return 0.0
        rate = self.injections_per_second()
        if rate <= 0:
            return None
        return self.remaining() / rate

    # -- rendering -----------------------------------------------------------

    def progress_line(self) -> str:
        """One-line running status, e.g. for periodic stderr updates."""
        planned = sum(self.planned.values())
        parts = [f"{self.completed}/{planned} inj"]
        rate = self.injections_per_second()
        if rate > 0:
            parts.append(f"{rate:.1f} inj/s")
        eta = self.eta_seconds()
        if eta is not None and self.remaining():
            parts.append(f"ETA {_format_duration(eta)}")
        pruned = self.ended_digest + self.ended_dead_cell
        if pruned:
            parts.append(
                f"{pruned} early-exit ({self.ended_digest} digest, "
                f"{self.ended_dead_cell} dead-cell, "
                f"~{self.cycles_saved / 1e6:.1f}M cycles saved)"
            )
        if self.replayed:
            parts.append(f"{self.replayed} replayed")
        if self.retries:
            parts.append(f"{self.retries} retries")
        if self.quarantined:
            parts.append(f"{self.quarantined} quarantined")
        if self.adaptive_strata:
            pending = [
                status
                for status in self.adaptive_strata.values()
                if not status.get("satisfied")
            ]
            projected = sum(status.get("projected", 0) for status in pending)
            parts.append(
                f"adaptive r{self.adaptive_rounds}: "
                f"{len(pending)}/{len(self.adaptive_strata)} strata converging"
                + (f", ~{projected} inj to go" if projected else "")
            )
        return ", ".join(parts)

    def summary(self) -> dict:
        """Plain-dict snapshot (render with ``analysis.report.telemetry_table``)."""
        return {
            "components": {
                component.name: {
                    effect.name: tally.get(effect, 0) for effect in FaultEffect
                }
                for component, tally in self.class_counts.items()
            },
            "planned": sum(self.planned.values()),
            "completed": self.completed,
            "live_completed": self.live_completed,
            "replayed": self.replayed,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "worker_deaths": self.worker_deaths,
            "quarantined": self.quarantined,
            "quarantined_by_component": {
                component.name: count
                for component, count in self.quarantined_by.items()
            },
            "elapsed_seconds": self.elapsed,
            "injections_per_second": self.injections_per_second(),
            "ended_by": {
                "full": self.ended_full,
                "digest": self.ended_digest,
                "dead-cell": self.ended_dead_cell,
            },
            "cycles_saved": self.cycles_saved,
            "events_observed": self.events_observed,
            "propagation": self._propagation_summary(),
            "adaptive": (
                {
                    "rounds": self.adaptive_rounds,
                    "strata": dict(self.adaptive_strata),
                }
                if self.adaptive_strata
                else None
            ),
        }

    def _propagation_summary(self) -> dict:
        """Per-component masking-mechanism and latency aggregates."""

        def stats(values: list[int] | None) -> dict | None:
            if not values:
                return None
            ordered = sorted(values)
            return {
                "count": len(ordered),
                "mean": sum(ordered) / len(ordered),
                "median": ordered[len(ordered) // 2],
                "max": ordered[-1],
            }

        components = (
            set(self.masked_mechanisms)
            | set(self.first_read_cycles)
            | set(self.divergence_cycles)
        )
        out = {}
        for component in sorted(components, key=lambda item: item.name):
            mechanisms = self.masked_mechanisms.get(component, {})
            out[component.name] = {
                "masked_with_events": sum(mechanisms.values()),
                "masked_mechanisms": dict(mechanisms),
                "first_read_cycles": stats(self.first_read_cycles.get(component)),
                "divergence_cycles": stats(self.divergence_cycles.get(component)),
            }
        return out
