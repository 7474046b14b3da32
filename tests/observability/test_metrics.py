"""Metrics envelopes and the telemetry collector behind ``/metrics``."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.injection.classify import FaultEffect
from repro.injection.components import Component
from repro.injection.telemetry import CampaignTelemetry
from repro.observability.metrics import (
    METRICS_SCHEMA,
    SUPPORTED_SCHEMAS,
    Counter,
    MetricsRegistry,
    campaign_metrics,
    metrics_payload,
    parse_exposition,
    read_metrics,
    telemetry_collector,
    write_metrics,
)
from tests.injection.records import outcome


class TestEnvelope:
    def test_payload_shape(self):
        payload = metrics_payload(
            "benchmark", "test_x", {"min": 0.5}, context={"file": "t.py"}
        )
        assert payload == {
            "schema": METRICS_SCHEMA,
            "kind": "benchmark",
            "name": "test_x",
            "values": {"min": 0.5},
            "context": {"file": "t.py"},
        }

    def test_context_defaults_to_empty_dict(self):
        assert metrics_payload("campaign", "X", {})["context"] == {}

    def test_campaign_metrics_wraps_summary(self):
        summary = {"completed": 12, "propagation": {}}
        payload = campaign_metrics(summary, "StringSearch", {"seed": 7})
        assert payload["kind"] == "campaign"
        assert payload["name"] == "StringSearch"
        assert payload["values"] == summary
        assert payload["context"] == {"seed": 7}


class TestReadWrite:
    def test_round_trip(self, tmp_path):
        payload = metrics_payload("campaign", "Qsort", {"completed": 3})
        path = write_metrics(tmp_path / "out" / "metrics.json", payload)
        assert path.exists()  # parent directories are created
        assert read_metrics(path) == payload

    def test_written_file_is_pretty_json(self, tmp_path):
        path = write_metrics(
            tmp_path / "m.json", metrics_payload("benchmark", "b", {})
        )
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text)["schema"] == METRICS_SCHEMA

    def test_write_rejects_unstamped_payload(self, tmp_path):
        with pytest.raises(ValueError, match="schema"):
            write_metrics(tmp_path / "m.json", {"kind": "campaign"})

    def test_read_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "foreign.json"
        path.write_text('{"schema": "other/9", "values": {}}\n')
        with pytest.raises(ValueError, match="repro-metrics"):
            read_metrics(path)


class TestSchemaV2:
    def test_current_schema_is_v2(self):
        assert METRICS_SCHEMA == "repro-metrics/2"
        assert METRICS_SCHEMA in SUPPORTED_SCHEMAS

    def test_optional_keys_are_omitted_not_null(self):
        payload = metrics_payload("campaign", "X", {})
        assert "spans" not in payload
        assert "registry" not in payload

    def test_spans_and_registry_ride_along(self, tmp_path):
        spans = [{"trace": "t", "span": "s", "name": "submit"}]
        registry = {"repro_injections_total": {"type": "counter"}}
        payload = campaign_metrics(
            {"completed": 1}, "Qsort", spans=spans, registry=registry
        )
        path = write_metrics(tmp_path / "m.json", payload)
        loaded = read_metrics(path)
        assert loaded["spans"] == spans
        assert loaded["registry"] == registry

    def test_read_refuses_unknown_future_version(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text('{"schema": "repro-metrics/3", "values": {}}\n')
        with pytest.raises(ValueError, match="repro-metrics"):
            read_metrics(path)

    def test_write_refuses_unknown_version(self, tmp_path):
        payload = metrics_payload("campaign", "X", {})
        payload["schema"] = "repro-metrics/9"
        with pytest.raises(ValueError, match="schema"):
            write_metrics(tmp_path / "m.json", payload)

    def test_v1_envelopes_still_load(self, tmp_path):
        """Back-compat: a v1 payload reads and re-writes unchanged."""
        v1 = {
            "schema": "repro-metrics/1",
            "kind": "benchmark",
            "name": "test_x",
            "values": {"min": 0.25},
            "context": {"file": "t.py"},
        }
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(v1) + "\n")
        assert read_metrics(path) == v1
        # write_metrics accepts any supported version, not just current.
        assert read_metrics(write_metrics(tmp_path / "copy.json", v1)) == v1

    def test_existing_bench_artifacts_still_load(self):
        """Every checked-in results/BENCH_*.json keeps loading."""
        results = Path(__file__).resolve().parents[2] / "results"
        artifacts = sorted(results.glob("BENCH_*.json"))
        if not artifacts:
            pytest.skip("no benchmark artifacts checked in")
        for path in artifacts:
            payload = read_metrics(path)
            assert payload["schema"] in SUPPORTED_SCHEMAS
            assert payload["kind"] == "benchmark"
            assert "values" in payload


class TestTelemetryCollectorRace:
    def test_scrape_survives_tallies_growing_mid_render(self, monkeypatch):
        """A ``--metrics-port`` scrape runs while the campaign thread
        records: a first SDC and a first L2 result landing mid-render
        must not break the scrape."""
        telemetry = CampaignTelemetry()
        telemetry.record(outcome(Component.L1D, FaultEffect.MASKED))
        registry = MetricsRegistry()
        registry.register_collector(telemetry_collector(telemetry, "camp"))
        peg = Counter.peg
        landed = []

        def racing_peg(counter, total, **labels):
            if counter.name == "repro_fault_effects_total" and not landed:
                landed.append(True)
                telemetry.record(outcome(Component.L1D, FaultEffect.SDC))
                telemetry.record(outcome(Component.L2, FaultEffect.MASKED))
            peg(counter, total, **labels)

        monkeypatch.setattr(Counter, "peg", racing_peg)
        registry.render()
        assert landed
        samples = parse_exposition(registry.render())
        sdc = frozenset(
            {("campaign", "camp"), ("component", "L1D"), ("effect", "SDC")}
        )
        assert samples[("repro_fault_effects_total", sdc)] == 1.0
        assert samples[
            ("repro_injections_total", frozenset({("campaign", "camp")}))
        ] == 3.0
