"""Typed fault-lifetime events.

One injection produces a short, bounded sequence of events tracing the
flipped bits from injection to outcome:

``flip``
    The bits were flipped into the component.
``read``
    The machine first consumed a tainted cell (cache/TLB hit, register
    read, memory block read).  The fault is now architecturally live.
``write-over``
    A tainted cell was overwritten before ever being read - the classic
    masking mechanism the paper's SS V-VI discussion leans on.
``evict`` / ``writeback``
    A tainted cache line left its level: dropped clean, or written back
    dirty one level down (the taint travels with it).
``diverge``
    First golden-grid probe at which the *architectural* state (regs,
    CSRs, PC, output) differed from the golden run.
``converge``
    A probe at which the full machine digest matched golden again.
``outcome``
    Terminal classification (detail carries the ``FaultEffect`` label).

Events are deduplicated per ``(kind, detail)`` - the record answers
"when did this first happen", not "how many times" - and the recorder is
bounded so a pathological run cannot bloat the journal.
"""

from __future__ import annotations

from dataclasses import dataclass

EV_FLIP = "flip"
EV_READ = "read"
EV_WRITE_OVER = "write-over"
EV_EVICT = "evict"
EV_WRITEBACK = "writeback"
EV_DIVERGE = "diverge"
EV_CONVERGE = "converge"
EV_OUTCOME = "outcome"

#: Masking-mechanism labels derived from an event sequence.
MECH_OVERWRITE = "overwrite-before-read"
MECH_NEVER_READ = "never-read"
MECH_READ_CONVERGED = "read-but-converged"

#: Default cap on recorded events per injection (journal stays bounded).
DEFAULT_EVENT_LIMIT = 24


@dataclass(frozen=True)
class LifetimeEvent:
    """One step in a fault's life, stamped with the cycle it happened."""

    kind: str
    cycle: int
    detail: str = ""

    def to_payload(self):
        return (self.kind, self.cycle, self.detail)


class FaultLifetime:
    """Bounded per-injection event recorder.

    Probes call :meth:`event` at machine speed; recording is a set lookup
    plus (first time only) an append, so the hot path stays cheap.  The
    cycle stamp is read from the core at event time.
    """

    __slots__ = ("_core", "_events", "_seen", "_kinds", "_limit")

    def __init__(self, core, limit: int = DEFAULT_EVENT_LIMIT):
        self._core = core
        self._events: list[LifetimeEvent] = []
        self._seen: set = set()
        self._kinds: set = set()
        self._limit = limit

    def event(self, kind: str, detail: str = "") -> None:
        key = (kind, detail)
        if key in self._seen or len(self._events) >= self._limit:
            return
        self._seen.add(key)
        self._kinds.add(kind)
        self._events.append(LifetimeEvent(kind, self._core.cycle, detail))

    def seen(self, kind: str) -> bool:
        return kind in self._kinds

    @property
    def events(self) -> list[LifetimeEvent]:
        return self._events

    def to_payload(self) -> tuple:
        """Picklable, JSON-friendly form: ``((kind, cycle, detail), ...)``."""
        return tuple(event.to_payload() for event in self._events)


def events_from_payload(payload) -> tuple:
    """Rehydrate :class:`LifetimeEvent` objects from journal payloads."""
    return tuple(
        LifetimeEvent(str(kind), int(cycle), str(detail))
        for kind, cycle, detail in payload
    )


def _normalised(events):
    for event in events:
        if isinstance(event, LifetimeEvent):
            yield event
        else:
            kind, cycle, detail = event
            yield LifetimeEvent(str(kind), int(cycle), str(detail))


def first_event(events, kind: str):
    """First event of ``kind``, or None.  Accepts events or raw payloads."""
    for event in _normalised(events):
        if event.kind == kind:
            return event
    return None


def masking_mechanism(events, site=None) -> str:
    """Classify *why* a Masked fault masked, from its strike site and its
    event sequence.

    - the struck ``site`` (a :class:`~repro.injection.fault.StrikeSite`)
      is not live: no bit of the cluster was observable, so the fault is
      "never-read" whatever the engine recorded after the flip (with
      early exit on it records nothing; with it off, a refill of the dead
      cell can record a ``write-over``);
    - the taint was read at some point -> the machine consumed the wrong
      value yet converged back to golden state ("read-but-converged");
    - never read but overwritten/refilled -> "overwrite-before-read";
    - otherwise the cell simply never mattered -> "never-read".

    Without a ``site`` (journals that predate it) only the events count.
    """
    if site is not None and not site.live:
        return MECH_NEVER_READ
    kinds = {event.kind for event in _normalised(events)}
    if EV_READ in kinds:
        return MECH_READ_CONVERGED
    if EV_WRITE_OVER in kinds:
        return MECH_OVERWRITE
    return MECH_NEVER_READ
