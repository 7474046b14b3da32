"""Minimal outcome records for tests that feed telemetry by hand."""

from __future__ import annotations

from repro.injection.journal import InjectionRecord, QuarantineRecord


def outcome(component, effect, wall_time=0.0, **fields) -> InjectionRecord:
    """A completed injection of ``component`` (fault 0, bit 0, cycle 0)."""
    return InjectionRecord(component, 0, 0, 0, effect, wall_time, **fields)


def quarantine(component, reason="worker died") -> QuarantineRecord:
    """A quarantined fault of ``component`` (fault 0, bit 0, cycle 0)."""
    return QuarantineRecord(component, 0, 0, 0, reason)
