"""Fault-lifetime event recorder: dedup, bounds, payloads, mechanisms."""

from __future__ import annotations

from repro.injection.fault import StrikeSite
from repro.observability.events import (
    EV_CONVERGE,
    EV_FLIP,
    EV_OUTCOME,
    EV_READ,
    EV_WRITE_OVER,
    FaultLifetime,
    LifetimeEvent,
    MECH_NEVER_READ,
    MECH_OVERWRITE,
    MECH_READ_CONVERGED,
    events_from_payload,
    first_event,
    masking_mechanism,
)


class FakeCore:
    def __init__(self, cycle: int = 0):
        self.cycle = cycle


class TestFaultLifetime:
    def test_events_are_stamped_with_the_core_cycle(self):
        core = FakeCore(cycle=100)
        lifetime = FaultLifetime(core)
        lifetime.event(EV_FLIP, "L1D")
        core.cycle = 250
        lifetime.event(EV_READ, "l1d")
        assert lifetime.events == [
            LifetimeEvent(EV_FLIP, 100, "L1D"),
            LifetimeEvent(EV_READ, 250, "l1d"),
        ]

    def test_dedup_is_per_kind_and_detail(self):
        core = FakeCore()
        lifetime = FaultLifetime(core)
        lifetime.event(EV_READ, "l1d")
        core.cycle = 7
        lifetime.event(EV_READ, "l1d")  # same (kind, detail): dropped
        lifetime.event(EV_READ, "l2")  # new detail: kept
        assert [event.to_payload() for event in lifetime.events] == [
            (EV_READ, 0, "l1d"),
            (EV_READ, 7, "l2"),
        ]

    def test_recorder_is_bounded(self):
        lifetime = FaultLifetime(FakeCore(), limit=3)
        for index in range(10):
            lifetime.event(EV_READ, f"structure-{index}")
        assert len(lifetime.events) == 3

    def test_seen_tracks_kinds_not_details(self):
        lifetime = FaultLifetime(FakeCore())
        assert not lifetime.seen(EV_READ)
        lifetime.event(EV_READ, "l1d")
        assert lifetime.seen(EV_READ)
        assert not lifetime.seen(EV_WRITE_OVER)

    def test_payload_round_trip(self):
        core = FakeCore(cycle=42)
        lifetime = FaultLifetime(core)
        lifetime.event(EV_FLIP, "REGFILE")
        core.cycle = 99
        lifetime.event(EV_OUTCOME, "MASKED")
        payload = lifetime.to_payload()
        assert payload == ((EV_FLIP, 42, "REGFILE"), (EV_OUTCOME, 99, "MASKED"))
        assert events_from_payload(payload) == tuple(lifetime.events)


class TestFirstEvent:
    def test_accepts_event_objects_and_raw_payloads(self):
        events = [LifetimeEvent(EV_FLIP, 1, "L2"), LifetimeEvent(EV_READ, 5, "l2")]
        raw = [event.to_payload() for event in events]
        assert first_event(events, EV_READ) == events[1]
        assert first_event(raw, EV_READ) == events[1]

    def test_returns_none_when_absent(self):
        assert first_event([(EV_FLIP, 1, "L2")], EV_READ) is None
        assert first_event([], EV_FLIP) is None


class TestMaskingMechanism:
    def test_read_wins_over_everything(self):
        events = [
            (EV_FLIP, 1, "L1D"),
            (EV_WRITE_OVER, 3, "l1d"),
            (EV_READ, 2, "l1d"),
            (EV_CONVERGE, 9, ""),
        ]
        assert masking_mechanism(events) == MECH_READ_CONVERGED

    def test_overwrite_without_read(self):
        events = [(EV_FLIP, 1, "REGFILE"), (EV_WRITE_OVER, 4, "regfile")]
        assert masking_mechanism(events) == MECH_OVERWRITE

    def test_untouched_cell_is_never_read(self):
        events = [(EV_FLIP, 1, "L2"), (EV_OUTCOME, 10, "MASKED")]
        assert masking_mechanism(events) == MECH_NEVER_READ

    def test_dead_site_is_never_read_whatever_the_events(self):
        events = [(EV_FLIP, 1, "REGFILE"), (EV_WRITE_OVER, 4, "regfile")]
        dead = StrikeSite("user", None, False)
        live = StrikeSite("user", None, True)
        assert masking_mechanism(events, dead) == MECH_NEVER_READ
        assert masking_mechanism(events, live) == MECH_OVERWRITE
