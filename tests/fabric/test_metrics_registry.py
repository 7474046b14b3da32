"""Dashboard rendering of fabric status and ``/metrics`` samples."""

from __future__ import annotations

from repro.fabric.dashboard import render_dashboard


class TestDashboardRendering:
    STATUS = {
        "campaigns": {
            "abc123": {
                "counts": {"pending": 2, "leased": 1, "done": 7,
                           "quarantined": 0},
                "total": 10,
                "complete": False,
            },
        },
        "workers": {
            "w0": {"completed": 7, "leases": 4, "last_seen": 1.0,
                   "age": 2.0, "stale": False,
                   "health": {"rss_kb": 2048}},
            "ghost": {"completed": 1, "leases": 1, "last_seen": 1.0,
                      "age": 99.0, "stale": True, "health": {}},
        },
        "stale_workers": ["ghost"],
        "worker_ttl": 30.0,
        "executed_total": 8,
    }

    def test_progress_bar_and_counts(self):
        frame = render_dashboard(self.STATUS, None, "http://c:1")
        assert "campaign abc123" in frame
        assert "7/10 (running, leased 1, pending 2)" in frame
        assert "[" in frame and "#" in frame

    def test_stale_worker_is_loud(self):
        frame = render_dashboard(self.STATUS, None, "http://c:1")
        assert "** STALE **" in frame
        assert "WARNING: 1 stale worker(s)" in frame
        assert "ghost" in frame

    def test_rates_and_metrics_summary(self):
        metrics = {
            ("repro_injections_total", frozenset({("campaign", "abc123")})): 8.0,
            ("repro_injections_per_second",
             frozenset({("campaign", "fabric")})): 2.5,
        }
        frame = render_dashboard(
            self.STATUS, metrics, "http://c:1", rates={"w0": 3.25}
        )
        assert "3.2" in frame  # w0's delta rate column
        assert "8 injections recorded" in frame
        assert "2.5 inj/s live" in frame

    def test_empty_fabric_renders(self):
        frame = render_dashboard(
            {"campaigns": {}, "workers": {}}, None, "http://c:1"
        )
        assert "no campaigns submitted" in frame
        assert "no workers seen yet" in frame
