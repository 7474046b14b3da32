"""Campaign telemetry: tallies, throughput, ETA, harness counters."""

from __future__ import annotations

import pytest

from repro.analysis.report import propagation_table, telemetry_table
from repro.injection.classify import FaultEffect
from repro.injection.components import Component
from repro.injection.telemetry import CampaignTelemetry
from repro.observability.events import (
    MECH_OVERWRITE,
    MECH_READ_CONVERGED,
)
from tests.injection.records import outcome, quarantine


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def telemetry(clock):
    return CampaignTelemetry(clock=clock)


class TestTallies:
    def test_class_counts_accumulate_per_component(self, telemetry):
        telemetry.record(outcome(Component.L1D, FaultEffect.MASKED))
        telemetry.record(outcome(Component.L1D, FaultEffect.MASKED))
        telemetry.record(outcome(Component.L1D, FaultEffect.SDC))
        telemetry.record(outcome(Component.REGFILE, FaultEffect.SYS_CRASH))
        assert telemetry.class_counts[Component.L1D][FaultEffect.MASKED] == 2
        assert telemetry.class_counts[Component.L1D][FaultEffect.SDC] == 1
        assert telemetry.class_counts[Component.REGFILE][FaultEffect.SYS_CRASH] == 1
        assert telemetry.completed == 4

    def test_replayed_separated_from_live(self, telemetry):
        telemetry.record(outcome(Component.L1D, FaultEffect.MASKED), replayed=True)
        telemetry.record(outcome(Component.L1D, FaultEffect.MASKED, wall_time=0.5))
        assert telemetry.completed == 2
        assert telemetry.replayed == 1
        assert telemetry.live_completed == 1
        assert telemetry.injection_seconds == pytest.approx(0.5)


class TestThroughputAndEta:
    def test_rate_counts_only_live_injections(self, telemetry, clock):
        telemetry.register_plan(Component.L1D, 20)
        for _ in range(5):
            telemetry.record(outcome(Component.L1D, FaultEffect.MASKED), replayed=True)
        clock.now += 10.0
        for _ in range(10):
            telemetry.record(outcome(Component.L1D, FaultEffect.MASKED))
        assert telemetry.injections_per_second() == pytest.approx(1.0)
        # 5 remaining at 1 inj/s
        assert telemetry.remaining() == 5
        assert telemetry.eta_seconds() == pytest.approx(5.0)

    def test_eta_is_none_before_any_live_completion(self, telemetry):
        telemetry.register_plan(Component.L1D, 10)
        assert telemetry.eta_seconds() is None

    def test_eta_is_zero_when_fully_replayed(self, telemetry):
        """A journal-only resume has nothing left: ETA 0, not unknown."""
        telemetry.register_plan(Component.L1D, 2)
        telemetry.record(outcome(Component.L1D, FaultEffect.MASKED), replayed=True)
        telemetry.record(outcome(Component.L1D, FaultEffect.SDC), replayed=True)
        assert telemetry.remaining() == 0
        assert telemetry.eta_seconds() == 0.0

    def test_quarantined_reduce_remaining(self, telemetry, clock):
        telemetry.register_plan(Component.L1D, 10)
        clock.now += 1.0
        telemetry.record(outcome(Component.L1D, FaultEffect.MASKED))
        telemetry.record_quarantine(quarantine(Component.L1D))
        assert telemetry.remaining() == 8


class TestHarnessCounters:
    def test_counters(self, telemetry):
        telemetry.record_retry()
        telemetry.record_retry()
        telemetry.record_timeout()
        telemetry.record_worker_death()
        telemetry.record_quarantine(quarantine(Component.DTLB))
        assert telemetry.retries == 2
        assert telemetry.timeouts == 1
        assert telemetry.worker_deaths == 1
        assert telemetry.quarantined == 1

    def test_progress_line_mentions_anomalies(self, telemetry, clock):
        telemetry.register_plan(Component.L1D, 4)
        clock.now += 2.0
        telemetry.record(outcome(Component.L1D, FaultEffect.MASKED))
        telemetry.record_retry()
        telemetry.record_quarantine(quarantine(Component.L1D))
        line = telemetry.progress_line()
        assert "1/4 inj" in line
        assert "1 retries" in line
        assert "1 quarantined" in line
        assert "ETA" in line


class TestSummaryRendering:
    def test_summary_is_plain_data(self, telemetry, clock):
        telemetry.register_plan(Component.L1D, 2)
        clock.now += 4.0
        telemetry.record(outcome(Component.L1D, FaultEffect.SDC, wall_time=1.5))
        telemetry.record(outcome(Component.L1D, FaultEffect.MASKED), replayed=True)
        summary = telemetry.summary()
        assert summary["components"]["L1D"]["SDC"] == 1
        assert summary["completed"] == 2
        assert summary["replayed"] == 1
        assert summary["elapsed_seconds"] == pytest.approx(4.0)
        assert summary["injections_per_second"] == pytest.approx(0.25)

    def test_telemetry_table_renders_components_and_health(self, telemetry, clock):
        telemetry.register_plan(Component.L1D, 3)
        clock.now += 1.0
        telemetry.record(outcome(Component.L1D, FaultEffect.SDC))
        telemetry.record(outcome(Component.L1D, FaultEffect.MASKED))
        telemetry.record_retry()
        telemetry.record_quarantine(quarantine(Component.L1D))
        text = telemetry_table(telemetry.summary())
        assert "Campaign telemetry" in text
        assert "L1D" in text and "SDC" in text
        assert "retries 1" in text and "quarantined 1" in text
        # The object itself is accepted too.
        assert telemetry_table(telemetry) == text

    def test_replay_only_throughput_is_explained_not_zero(self, telemetry, clock):
        """All completions from the journal: 0.00 inj/s would misread as a
        stall, so the table says what happened instead."""
        telemetry.register_plan(Component.L1D, 2)
        clock.now += 3.0
        telemetry.record(outcome(Component.L1D, FaultEffect.MASKED), replayed=True)
        telemetry.record(outcome(Component.L1D, FaultEffect.SDC), replayed=True)
        text = telemetry_table(telemetry.summary())
        assert "n/a" in text
        assert "replayed from journal, none run live" in text
        assert "0.00 inj/s" not in text

    def test_quarantines_break_down_per_component(self, telemetry):
        telemetry.register_plan(Component.L1D, 4)
        telemetry.register_plan(Component.DTLB, 4)
        telemetry.record_quarantine(quarantine(Component.L1D))
        telemetry.record_quarantine(quarantine(Component.L1D))
        telemetry.record_quarantine(quarantine(Component.DTLB))
        summary = telemetry.summary()
        assert summary["quarantined"] == 3
        assert summary["quarantined_by_component"] == {"L1D": 2, "DTLB": 1}
        text = telemetry_table(summary)
        assert "Quarantined" in text


class TestEventAggregation:
    def test_masked_mechanisms_and_latencies(self, telemetry):
        telemetry.register_plan(Component.L1D, 3)
        telemetry.record(
            outcome(
                Component.L1D,
                FaultEffect.MASKED,
                events=[
                    ("flip", 100, "L1D"),
                    ("write-over", 150, "l1d"),
                    ("outcome", 5000, "MASKED"),
                ],
            ),
        )
        telemetry.record(
            outcome(
                Component.L1D,
                FaultEffect.MASKED,
                events=[
                    ("flip", 200, "L1D"),
                    ("read", 230, "l1d"),
                    ("converge", 900, ""),
                    ("outcome", 5000, "MASKED"),
                ],
            ),
        )
        telemetry.record(
            outcome(
                Component.L1D,
                FaultEffect.SDC,
                events=[
                    ("flip", 300, "L1D"),
                    ("read", 340, "l1d"),
                    ("diverge", 700, ""),
                    ("outcome", 6000, "SDC"),
                ],
            ),
        )
        assert telemetry.events_observed == 3
        assert telemetry.masked_mechanisms[Component.L1D] == {
            MECH_OVERWRITE: 1,
            MECH_READ_CONVERGED: 1,
        }
        assert telemetry.first_read_cycles[Component.L1D] == [30, 40]
        assert telemetry.divergence_cycles[Component.L1D] == [400]
        entry = telemetry.summary()["propagation"]["L1D"]
        assert entry["masked_with_events"] == 2
        assert entry["masked_mechanisms"] == {
            MECH_OVERWRITE: 1,
            MECH_READ_CONVERGED: 1,
        }
        assert entry["first_read_cycles"]["median"] == 40
        assert entry["first_read_cycles"]["count"] == 2
        assert entry["divergence_cycles"]["max"] == 400

    def test_propagation_table_renders_shares_and_medians(self, telemetry):
        telemetry.record(
            outcome(
                Component.REGFILE,
                FaultEffect.MASKED,
                events=[
                    ("flip", 10, "REGFILE"),
                    ("write-over", 25, "regfile"),
                    ("outcome", 90, "MASKED"),
                ],
            ),
        )
        text = propagation_table(telemetry.summary())
        assert "Fault propagation" in text
        assert "REGFILE" in text
        assert "1 (100%)" in text  # overwrite-before-read share
        assert "1 injection(s) carried lifetime events" in text

    def test_no_events_means_no_propagation_section(self, telemetry):
        telemetry.register_plan(Component.L1D, 1)
        telemetry.record(outcome(Component.L1D, FaultEffect.MASKED))
        summary = telemetry.summary()
        assert summary["events_observed"] == 0
        assert summary["propagation"] == {}
        assert propagation_table(summary) == ""


class TestFabricReplayIsolation:
    """Pin: journal replays must never pollute live throughput or ETA.

    A fabric coordinator activating a half-done campaign feeds every
    journaled record with ``replayed=True``; the progress line a polling
    client renders must compute inj/s and ETA from live completions only
    (a resumed 90%-replayed campaign is not "fast").
    """

    def test_progress_line_rate_ignores_replays(self, telemetry, clock):
        telemetry.register_plan(Component.L1D, 100)
        # 60 replayed instantly at activation (a coordinator restart)...
        for _ in range(60):
            telemetry.record(outcome(Component.L1D, FaultEffect.MASKED), replayed=True)
        # ... then 20 live completions over 10 seconds.
        clock.now += 10.0
        for _ in range(20):
            telemetry.record(outcome(Component.L1D, FaultEffect.SDC, wall_time=0.5))
        line = telemetry.progress_line()
        assert "80/100 inj" in line
        assert "2.0 inj/s" in line  # 20 live / 10 s, NOT 80 / 10 s
        assert "60 replayed" in line
        # ETA covers the 20 remaining at the live rate: 10 s, not 2.5 s.
        assert telemetry.eta_seconds() == pytest.approx(10.0)
        assert "ETA 10s" in line

    def test_interleaved_replays_do_not_shift_the_rate(self, telemetry, clock):
        telemetry.register_plan(Component.REGFILE, 40)
        clock.now += 4.0
        for index in range(20):
            telemetry.record(
                outcome(
                    Component.REGFILE,
                    FaultEffect.MASKED,
                    wall_time=0.1,
                ),
                replayed=(index % 2 == 0),
            )
        assert telemetry.live_completed == 10
        assert telemetry.injections_per_second() == pytest.approx(10 / 4.0)
        summary = telemetry.summary()
        assert summary["completed"] == 20
        assert summary["live_completed"] == 10
        assert summary["injections_per_second"] == pytest.approx(2.5)

    def test_class_tallies_count_replays_and_live_alike(self, telemetry):
        """Tallies (unlike rates) must include replays - they are the
        journal's record of truth and back the exported gauges."""
        telemetry.register_plan(Component.L1D, 3)
        telemetry.record(outcome(Component.L1D, FaultEffect.SDC), replayed=True)
        telemetry.record(outcome(Component.L1D, FaultEffect.SDC))
        telemetry.record(outcome(Component.L1D, FaultEffect.MASKED))
        assert telemetry.class_counts[Component.L1D][FaultEffect.SDC] == 2
        assert telemetry.class_counts[Component.L1D][FaultEffect.MASKED] == 1
