"""Append-only injection journal: the crash-safe record of a campaign.

Production fault-injection harnesses (DAVOS, FAIL*) treat the *harness* as
fault-tolerant: every completed experiment is durably recorded the moment
it finishes, so a killed campaign - SIGKILL on the driver, a powered-off
node, an OOM-killed worker - loses at most the experiments that were still
in flight.  This module provides that substrate as a JSONL journal:

- line 1 is a ``meta`` record fingerprinting the campaign (workload,
  machine, program digest, sample size, seed, cluster size, golden
  duration).  Resuming against a journal whose fingerprint does not
  match the active configuration raises
  :class:`~repro.errors.InjectionError` instead of silently mixing
  incompatible samples;
- every completed injection appends one ``injection`` record (component,
  fault index, bit, cycle, effect, wall-time) with a single ``os.write``
  on an ``O_APPEND`` descriptor followed by ``fsync`` - a crash can
  truncate only the final line, never interleave or corrupt earlier ones;
- faults that repeatedly kill workers append a ``quarantine`` record, so
  they are reported rather than silently dropped.

Replay (:func:`read_journal` / :meth:`InjectionJournal.resume`) tolerates
a truncated trailing line - exactly what a SIGKILL mid-append leaves
behind - but rejects corruption anywhere else.
"""

from __future__ import annotations

import errno
import json
import os
from dataclasses import MISSING, asdict, astuple, dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import InjectionError
from repro.injection.classify import FaultEffect
from repro.injection.components import Component
from repro.injection.fault import Fault, StrikeSite

if TYPE_CHECKING:
    from repro.injection.parallel import InjectionResult

#: Bump when the journal line format changes incompatibly.
JOURNAL_VERSION = 1


@dataclass(frozen=True)
class JournalMeta:
    """Campaign fingerprint stored as the journal's first line.

    A journal is only replayable against the exact campaign that wrote
    it: the fault lists are regenerated from (seed, component population,
    golden duration), so any drift in these knobs silently remaps fault
    indices.  ``program_digest`` pins the machine, program and kernel
    (older journals read back with ``""`` and never resume);
    ``golden_cycles`` guards against simulator changes.
    """

    workload: str
    machine: str
    faults_per_component: int
    seed: int
    cluster_size: int
    golden_cycles: int
    program_digest: str = ""
    version: int = JOURNAL_VERSION

    def to_line(self) -> dict:
        """JSONL payload for the journal's header line."""
        payload = asdict(self)
        payload["type"] = "meta"
        return payload

    @classmethod
    def from_line(cls, payload: dict) -> "JournalMeta":
        """Parse the journal's header line (a missing required field is a
        ``KeyError``; a missing defaulted one takes its default)."""
        return cls(**{
            field.name: payload[field.name]
            for field in fields(cls)
            if field.name in payload or field.default is MISSING
        })


@dataclass(frozen=True)
class InjectionRecord:
    """One completed injection experiment.

    The one outcome record after the injector: the farm builds it once
    (:meth:`from_result`) and the same object reaches the journal, the
    campaign telemetry, the fabric wire and the fault store, whose row
    payload is :meth:`to_line`.

    ``ended_by`` records the termination mechanism ("full", "digest", or
    "dead-cell"; see :mod:`repro.injection.parallel`).  It is purely
    observational - the effect is identical either way - so journals
    written before the field existed replay cleanly as "full".

    ``events`` (fault-lifetime ``(kind, cycle, detail)`` tuples; see
    :mod:`repro.observability.events`) and ``trace`` (instruction tail of
    a Crash-classified run) are likewise observational and optional: they
    are serialized only when non-empty, and journals written before the
    fields existed replay cleanly as empty.  ``site`` (the
    :class:`~repro.injection.fault.StrikeSite`) is serialized as
    ``[mode, region, live]`` when set; older journals replay it as
    ``None``.  ``cycles_saved`` (golden cycles an early exit skipped) is
    serialized as ``saved`` when non-zero; older journals replay it as 0.
    """

    component: Component
    index: int
    bit_index: int
    cycle: int
    effect: FaultEffect
    wall_time: float
    ended_by: str = "full"
    events: tuple = ()
    trace: tuple = ()
    site: StrikeSite | None = None
    cycles_saved: int = 0

    @classmethod
    def from_result(
        cls,
        component: Component,
        index: int,
        fault: Fault,
        result: "InjectionResult",
        wall_time: float,
    ) -> "InjectionRecord":
        """The record of fault ``index`` of ``component``'s stream."""
        return cls(
            component, index, fault.bit_index, fault.cycle, result.effect,
            wall_time, result.ended_by, result.events, result.trace,
            result.site, result.cycles_saved,
        )

    def to_line(self) -> dict:
        """JSONL payload for one completed injection."""
        line = {
            "type": "injection",
            "component": self.component.name,
            "index": self.index,
            "bit": self.bit_index,
            "cycle": self.cycle,
            "effect": self.effect.name,
            "wall": round(self.wall_time, 6),
            "ended": self.ended_by,
        }
        if self.events:
            line["events"] = [list(event) for event in self.events]
        if self.trace:
            line["trace"] = list(self.trace)
        if self.site is not None:
            line["site"] = list(astuple(self.site))
        if self.cycles_saved:
            line["saved"] = self.cycles_saved
        return line

    @classmethod
    def from_line(cls, payload: dict) -> "InjectionRecord":
        """Parse one journaled injection line."""
        site = payload.get("site")
        saved = payload.get("saved", 0)
        if type(saved) is not int:
            raise TypeError(f"saved must be an int, not {saved!r}")
        return cls(
            component=Component[payload["component"]],
            index=payload["index"],
            bit_index=payload["bit"],
            cycle=payload["cycle"],
            effect=FaultEffect[payload["effect"]],
            wall_time=payload["wall"],
            ended_by=payload.get("ended", "full"),
            events=tuple(
                (str(kind), int(cycle), str(detail))
                for kind, cycle, detail in payload.get("events", ())
            ),
            trace=tuple(str(entry) for entry in payload.get("trace", ())),
            site=None if site is None else StrikeSite(*site),
            cycles_saved=saved,
        )


@dataclass(frozen=True)
class QuarantineRecord:
    """A fault retired after repeatedly killing or timing out workers."""

    component: Component
    index: int
    bit_index: int
    cycle: int
    reason: str

    @classmethod
    def from_fault(
        cls, component: Component, index: int, fault: Fault, reason: str
    ) -> "QuarantineRecord":
        """The record of fault ``index`` of ``component``'s stream."""
        return cls(component, index, fault.bit_index, fault.cycle, reason)

    def to_line(self) -> dict:
        """JSONL payload for one quarantined fault."""
        return {
            "type": "quarantine",
            "component": self.component.name,
            "index": self.index,
            "bit": self.bit_index,
            "cycle": self.cycle,
            "reason": self.reason,
        }

    @classmethod
    def from_line(cls, payload: dict) -> "QuarantineRecord":
        """Parse one journaled quarantine line."""
        return cls(
            component=Component[payload["component"]],
            index=payload["index"],
            bit_index=payload["bit"],
            cycle=payload["cycle"],
            reason=payload["reason"],
        )


def read_journal(
    path: Path,
) -> tuple[JournalMeta, list[InjectionRecord], list[QuarantineRecord]]:
    """Parse a journal file into (meta, injections, quarantines).

    A truncated *final* line (the footprint of a kill mid-append) is
    ignored; an unparseable line anywhere else, a missing/invalid meta
    header, or a record whose fault index lies outside the stream window
    ``[0, meta.faults_per_component)`` every plan of the campaign draws
    from raises :class:`InjectionError`.
    """
    raw = Path(path).read_bytes()
    lines = raw.split(b"\n")
    # A journal written through append() always ends every complete record
    # with a newline, so the last split element is either empty (clean) or
    # a partial record (killed mid-append) - droppable either way.
    trailing = lines.pop() if lines else b""
    if trailing:
        try:
            json.loads(trailing)
        except ValueError:
            pass  # genuinely truncated: drop it
        else:
            lines.append(trailing)  # complete record missing its newline
    if not lines or not lines[0]:
        raise InjectionError(f"journal {path} is empty")

    parsed = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            parsed.append(json.loads(line))
        except ValueError as exc:
            raise InjectionError(
                f"journal {path} line {number} is corrupt: {exc}"
            ) from None

    def malformed(number: int, exc) -> InjectionError:
        return InjectionError(f"journal {path} line {number} is malformed: {exc}")

    head = parsed[0]
    if not isinstance(head, dict):
        raise malformed(1, "not a JSON object")
    if head.get("type") != "meta" or head.get("version") != JOURNAL_VERSION:
        raise InjectionError(
            f"journal {path} has no valid meta header (found {head.get('type')!r} "
            f"version {head.get('version')!r}, expected meta v{JOURNAL_VERSION})"
        )
    try:
        meta = JournalMeta.from_line(head)
    except KeyError as exc:
        raise malformed(1, exc) from None

    records: list[InjectionRecord] = []
    quarantines: list[QuarantineRecord] = []
    planned = meta.faults_per_component
    for number, payload in enumerate(parsed[1:], start=2):
        try:
            if not isinstance(payload, dict):
                raise TypeError("not a JSON object")
            kind = payload.get("type")
            if kind == "injection":
                record = InjectionRecord.from_line(payload)
            elif kind == "quarantine":
                record = QuarantineRecord.from_line(payload)
            else:
                raise KeyError(f"unknown record type {kind!r}")
            in_plan = 0 <= record.index < planned
        # TypeError/ValueError: a field of the wrong type ("events": 5, ...).
        except (KeyError, TypeError, ValueError) as exc:
            raise malformed(number, exc) from None
        if not in_plan:
            raise InjectionError(
                f"journal {path} line {number} records fault index "
                f"{record.index} for {record.component.name}, beyond the "
                f"plan of {planned}"
            )
        (records if kind == "injection" else quarantines).append(record)
    return meta, records, quarantines


def _repair_tail(path: Path) -> None:
    """Normalize a journal's final line before appending resumes.

    A SIGKILL mid-append can leave either a truncated partial record (no
    longer parseable - dropped) or a complete record missing its newline
    (kept, newline restored).  Without this, the first post-resume append
    would concatenate onto the dangling tail and corrupt the line.
    """
    raw = path.read_bytes()
    cut = raw.rfind(b"\n") + 1
    tail = raw[cut:]
    if not tail:
        return
    try:
        json.loads(tail)
    except ValueError:
        complete = False
    else:
        complete = True
    with open(path, "r+b") as handle:
        handle.truncate(cut)
        if complete:
            handle.seek(0, os.SEEK_END)
            handle.write(tail + b"\n")


class InjectionJournal:
    """Writer/replayer for one campaign's journal file.

    Use :meth:`create` to start fresh, :meth:`resume` to replay an
    existing journal (validating its fingerprint), or :meth:`open` for
    resume-if-present semantics.  Appends are durable: one ``os.write``
    per record on an ``O_APPEND`` descriptor, followed by ``fsync``.
    """

    def __init__(
        self,
        path: Path,
        meta: JournalMeta,
        records: list[InjectionRecord] | None = None,
        quarantines: list[QuarantineRecord] | None = None,
        _write_meta: bool = True,
    ):
        self.path = Path(path)
        self.meta = meta
        self.records = list(records or [])
        self.quarantines = list(quarantines or [])
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fd = os.open(
            self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
        )
        if _write_meta:
            self._append_line(meta.to_line())

    # -- constructors --------------------------------------------------------

    @classmethod
    def create(cls, path: Path, meta: JournalMeta) -> "InjectionJournal":
        """Start a fresh journal, truncating any previous file."""
        path = Path(path)
        if path.exists():
            path.unlink()
        return cls(path, meta)

    @classmethod
    def resume(cls, path: Path, meta: JournalMeta) -> "InjectionJournal":
        """Replay an existing journal; its meta must match ``meta``.

        The torn tail a SIGKILL can leave behind is repaired *first*, and
        the replay then parses the repaired file - so the in-memory record
        list and the on-disk journal are two views of one byte sequence,
        never two independent parses of a torn one.
        """
        _repair_tail(Path(path))
        found, records, quarantines = read_journal(path)
        if found != meta:
            mismatched = [
                f"{name}: journal={getattr(found, name)!r} active={getattr(meta, name)!r}"
                for name in (field.name for field in fields(JournalMeta))
                if getattr(found, name) != getattr(meta, name)
            ]
            raise InjectionError(
                f"journal {path} was written by a different campaign "
                f"({'; '.join(mismatched)}); refusing to resume"
            )
        return cls(path, meta, records, quarantines, _write_meta=False)

    @classmethod
    def open(cls, path: Path, meta: JournalMeta) -> "InjectionJournal":
        """Resume ``path`` if it exists (and is non-empty), else create it."""
        path = Path(path)
        if path.exists() and path.stat().st_size > 0:
            return cls.resume(path, meta)
        return cls.create(path, meta)

    # -- appends -------------------------------------------------------------

    def _append_line(self, payload: dict) -> None:
        # O_APPEND makes each os.write an atomic append, but a single call
        # may still write *fewer* bytes than asked (interrupted by a
        # signal, disk nearly full) - and a silently truncated record is
        # exactly the torn tail the resume machinery would then drop or
        # mis-repair.  Loop until every byte is down; a full disk raises
        # instead of pretending the record was journaled.
        line = (json.dumps(payload, separators=(",", ":")) + "\n").encode()
        view = memoryview(line)
        written = 0
        while written < len(line):
            try:
                count = os.write(self._fd, view[written:])
            except OSError as exc:
                if exc.errno == errno.ENOSPC:
                    raise InjectionError(
                        f"journal {self.path}: disk full after "
                        f"{written}/{len(line)} bytes of a record (the "
                        f"partial tail is repaired on the next resume)"
                    ) from exc
                raise
            written += count
        os.fsync(self._fd)

    def record(self, record: InjectionRecord) -> None:
        """Durably append one completed injection."""
        self._append_line(record.to_line())
        self.records.append(record)

    def record_quarantine(self, record: QuarantineRecord) -> None:
        """Durably append one quarantined fault."""
        self._append_line(record.to_line())
        self.quarantines.append(record)

    # -- replay helpers ------------------------------------------------------

    def completed(self, component: Component) -> dict[int, InjectionRecord]:
        """Replayed records of one component, keyed by fault index."""
        return {
            record.index: record
            for record in self.records
            if record.component is component
        }

    def quarantined(self, component: Component) -> dict[int, QuarantineRecord]:
        """Replayed quarantine records of one component, by fault index."""
        return {
            record.index: record
            for record in self.quarantines
            if record.component is component
        }

    def close(self) -> None:
        """Release the journal's file descriptor (idempotent)."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "InjectionJournal":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class RecordBuffer:
    """In-memory stand-in for :class:`InjectionJournal`.

    Quacks like a journal for :func:`repro.injection.parallel.run_injection_plan`
    - ``record``/``record_quarantine`` collect instead of writing to disk,
    and the replay accessors report nothing already completed - so the
    fabric worker can run a leased index window through the exact
    campaign execution path and ship the resulting records over the wire
    (the coordinator then commits them durably to its fault store, each
    row's payload the line a local journal would append).
    """

    def __init__(self):
        self.records: list[InjectionRecord] = []
        self.quarantines: list[QuarantineRecord] = []

    def record(self, record: InjectionRecord) -> None:
        """Collect one completed injection."""
        self.records.append(record)

    def record_quarantine(self, record: QuarantineRecord) -> None:
        """Collect one quarantined fault."""
        self.quarantines.append(record)

    def completed(self, component: Component) -> dict[int, InjectionRecord]:
        """Nothing is ever pre-completed in a fresh buffer."""
        return {}

    def quarantined(self, component: Component) -> dict[int, QuarantineRecord]:
        """Nothing is ever pre-quarantined in a fresh buffer."""
        return {}

    def close(self) -> None:
        """No file descriptor to release; present for journal parity."""
