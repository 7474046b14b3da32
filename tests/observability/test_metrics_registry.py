"""Prometheus registry, text exposition, HTTP exporter and the
telemetry collector (:mod:`repro.observability.metrics`)."""

from __future__ import annotations

import urllib.request

import pytest

from repro.injection.classify import FaultEffect
from repro.injection.components import Component
from repro.injection.telemetry import CampaignTelemetry
from repro.observability.metrics import (
    MetricsRegistry,
    parse_exposition,
    start_metrics_server,
    telemetry_collector,
)
from tests.injection.records import outcome


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounterAndGauge:
    def test_counter_increments_per_label_set(self, registry):
        counter = registry.counter("repro_injections_total", "help")
        counter.inc(campaign="a")
        counter.inc(2, campaign="a")
        counter.inc(campaign="b")
        assert counter.value(campaign="a") == 3.0
        assert counter.value(campaign="b") == 1.0
        assert counter.value(campaign="never") == 0.0

    def test_counter_rejects_negative_increments(self, registry):
        with pytest.raises(ValueError, match="cannot decrease"):
            registry.counter("c_total").inc(-1)

    def test_peg_never_lowers(self, registry):
        counter = registry.counter("c_total")
        counter.peg(10, worker="w")
        counter.peg(4, worker="w")
        assert counter.value(worker="w") == 10.0
        counter.peg(12, worker="w")
        assert counter.value(worker="w") == 12.0

    def test_gauge_moves_both_ways(self, registry):
        gauge = registry.gauge("g")
        gauge.set(5.0)
        gauge.inc(-2.0)
        assert gauge.value() == 3.0

    def test_get_or_create_is_idempotent_but_type_checked(self, registry):
        first = registry.counter("x_total", "the help")
        assert registry.counter("x_total") is first
        assert first.help == "the help"
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x_total")

    def test_invalid_names_are_rejected(self, registry):
        with pytest.raises(ValueError, match="metric name"):
            registry.counter("bad-name")
        with pytest.raises(ValueError, match="label name"):
            registry.counter("ok_total").inc(**{"bad-label": "v"})


class TestExposition:
    def test_render_parse_round_trip(self, registry):
        registry.counter("repro_reports_total", "Reports").inc(
            3, campaign="abc", worker="w0"
        )
        registry.gauge("repro_workers_connected", "Live workers").set(2)
        samples = parse_exposition(registry.render())
        assert samples[
            ("repro_reports_total",
             frozenset({("campaign", "abc"), ("worker", "w0")}))
        ] == 3.0
        assert samples[("repro_workers_connected", frozenset())] == 2.0

    def test_render_has_help_and_type_lines(self, registry):
        registry.counter("repro_leases_total", "Windows handed out").inc()
        text = registry.render()
        assert "# HELP repro_leases_total Windows handed out" in text
        assert "# TYPE repro_leases_total counter" in text
        assert text.endswith("\n")

    def test_label_values_are_escaped(self, registry):
        registry.gauge("g").set(1, name='quo"te\\back\nnl')
        samples = parse_exposition(registry.render())
        ((_, labels),) = list(samples)
        assert dict(labels)["name"] == 'quo"te\\back\nnl'

    def test_parser_rejects_malformed_lines(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_exposition("this is not a metric line")
        with pytest.raises(ValueError, match="line 2"):
            parse_exposition("ok_total 1\nbad{unclosed 3")
        with pytest.raises(ValueError, match="malformed comment"):
            parse_exposition("# NOPE foo bar")

    def test_parser_accepts_float_and_scientific_values(self):
        samples = parse_exposition("a 1.5\nb 2e3\nc -4\n")
        assert samples[("a", frozenset())] == 1.5
        assert samples[("b", frozenset())] == 2000.0
        assert samples[("c", frozenset())] == -4.0

    def test_collectors_run_at_render_time(self, registry):
        state = {"value": 1.0}
        registry.register_collector(
            lambda reg: reg.gauge("live").set(state["value"])
        )
        assert parse_exposition(registry.render())[("live", frozenset())] == 1.0
        state["value"] = 7.0
        assert parse_exposition(registry.render())[("live", frozenset())] == 7.0

    def test_snapshot_is_json_friendly(self, registry):
        registry.counter("c_total", "h").inc(campaign="a")
        snap = registry.snapshot()
        assert snap["c_total"]["type"] == "counter"
        assert snap["c_total"]["samples"] == [
            {"labels": {"campaign": "a"}, "value": 1.0}
        ]


class TestHttpExporter:
    def test_scrape_over_http(self, registry):
        registry.counter("repro_injections_total").inc(5, campaign="x")
        server = start_metrics_server(registry, port=0)
        try:
            host, port = server.server_address
            with urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=10
            ) as response:
                assert response.status == 200
                assert "text/plain" in response.headers["Content-Type"]
                text = response.read().decode()
            samples = parse_exposition(text)
            key = ("repro_injections_total", frozenset({("campaign", "x")}))
            assert samples[key] == 5.0
        finally:
            server.shutdown()
            server.server_close()

    def test_other_paths_are_404(self, registry):
        server = start_metrics_server(registry, port=0)
        try:
            host, port = server.server_address
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://{host}:{port}/nope", timeout=10
                )
            assert excinfo.value.code == 404
        finally:
            server.shutdown()
            server.server_close()


class TestTelemetryCollector:
    def test_mirrors_telemetry_into_registry(self, registry):
        telemetry = CampaignTelemetry()
        telemetry.register_plan(Component.L1D, 4)
        telemetry.record(outcome(Component.L1D, FaultEffect.MASKED,
                                 ended_by="digest", cycles_saved=1000))
        telemetry.record(outcome(Component.L1D, FaultEffect.SDC))
        telemetry.record(outcome(Component.L1D, FaultEffect.MASKED), replayed=True)
        registry.register_collector(telemetry_collector(telemetry, "camp"))
        samples = parse_exposition(registry.render())
        labels = frozenset({("campaign", "camp")})
        assert samples[("repro_injections_total", labels)] == 3.0
        assert samples[("repro_injections_replayed_total", labels)] == 1.0
        assert samples[("repro_cycles_saved_total", labels)] == 1000.0
        assert samples[
            ("repro_fault_effects_total",
             frozenset({("campaign", "camp"), ("component", "L1D"),
                        ("effect", "SDC")}))
        ] == 1.0
        assert samples[
            ("repro_early_exit_total",
             frozenset({("campaign", "camp"), ("mechanism", "digest")}))
        ] == 1.0
