"""Observability end-to-end: /metrics, worker health, trace reconstruction.

The acceptance sweep for the fabric observability layer, all in-process:

- ``/metrics`` scraped mid-campaign parses and every ``*_total`` counter
  is monotonic across successive scrapes;
- at completion the exported per-class tallies are *exactly* the
  store's tallies - the exposition is a view of the record of truth,
  never an approximation;
- a worker that heartbeats once and then goes silent past the TTL shows
  up stale in ``/status`` (and the gauges), while a freshly-heartbeating
  worker does not;
- the campaign's trace JSONL reconstructs a complete
  submit -> lease -> window span path plus a sibling report span for at
  least one executed fault, across the coordinator/worker process split;
- and the distributed per-fault effects are bit-identical to serial.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.fabric.client import FabricClient
from repro.fabric.coordinator import Coordinator, create_server
from repro.fabric.protocol import get_text, post_json
from repro.fabric.store import FaultStore, stored_records
from repro.fabric.worker import FabricWorker
from repro.injection.campaign import (
    CampaignConfig,
    build_fault_plan,
    prepare_image,
)
from repro.injection.components import Component
from repro.injection.parallel import run_injection_plan
from repro.observability.metrics import parse_exposition
from repro.observability.tracing import read_spans, span_path
from repro.workloads import get_workload

WORKLOAD = "StringSearch"
COMPONENTS = (Component.REGFILE, Component.DTLB)
FAULTS = 4
WORKER_TTL = 0.5
LEASE_SIZE = 2
WORKERS = 2
WINDOWS_PER_WORKER = FAULTS * len(COMPONENTS) // LEASE_SIZE // WORKERS


@pytest.fixture(scope="module")
def workload():
    return get_workload(WORKLOAD)


@pytest.fixture(scope="module")
def config():
    return CampaignConfig(faults_per_component=FAULTS, seed=23)


@pytest.fixture(scope="module")
def serial(workload, config):
    golden, image = prepare_image(workload, config)
    plan = build_fault_plan(config, golden.cycles, COMPONENTS)
    effects = run_injection_plan(image, plan, jobs=1)
    return {"golden": golden, "plan": plan, "effects": effects}


@pytest.fixture(scope="module")
def outcome(tmp_path_factory, workload, config, serial):
    """One traced campaign over two workers, scraped while it runs."""
    tmp_path = tmp_path_factory.mktemp("obs_fabric")
    coordinator = Coordinator(
        FaultStore(tmp_path / "faults.sqlite"),
        trace_dir=tmp_path,
        lease_size=LEASE_SIZE,
        worker_ttl=WORKER_TTL,
    )
    server = create_server(coordinator)
    url = f"http://127.0.0.1:{server.server_address[1]}"
    threading.Thread(target=server.serve_forever, daemon=True).start()

    # A worker that says hello once and is never heard from again.
    post_json(f"{url}/heartbeat", {"worker": "ghost", "health": {"pid": 1}})

    client = FabricClient(url, poll_interval=0.05)
    box = {}
    client_thread = threading.Thread(
        target=lambda: box.update(
            result=client.run_workload(workload, config, COMPONENTS)
        )
    )
    client_thread.start()
    workers = [
        FabricWorker(url, name=f"w{index}", poll_interval=0.05,
                     heartbeat_interval=0.1)
        for index in range(WORKERS)
    ]
    # Capping each worker at its share of the leases makes both of them
    # run windows however the lease requests race.
    worker_threads = [
        threading.Thread(
            target=worker.run,
            kwargs={"max_idle_polls": 40, "max_windows": WINDOWS_PER_WORKER},
        )
        for worker in workers
    ]
    for thread in worker_threads:
        thread.start()

    # Scrape while the campaign runs: every scrape must parse.
    scrapes = []
    while client_thread.is_alive():
        scrapes.append(parse_exposition(get_text(f"{url}/metrics")))
        time.sleep(0.05)
    client_thread.join(timeout=300)
    for thread in worker_threads:
        thread.join(timeout=60)
    assert "result" in box, "client never received a result"

    # Staleness is an age property: let everyone age past the TTL, then
    # refresh only w0 - now w0 is demonstrably live and ghost is not.
    time.sleep(WORKER_TTL + 0.2)
    post_json(f"{url}/heartbeat", {"worker": "w0", "health": {"pid": 2}})
    final_status = coordinator.status()
    scrapes.append(parse_exposition(get_text(f"{url}/metrics")))

    yield {
        "result": box["result"],
        "workers": workers,
        "coordinator": coordinator,
        "tmp_path": tmp_path,
        "scrapes": scrapes,
        "final": scrapes[-1],
        "status": final_status,
        "url": url,
    }
    server.shutdown()
    server.server_close()
    coordinator.close()


def _campaign_id(outcome) -> str:
    (campaign_id,) = outcome["coordinator"]._campaigns
    return campaign_id


def _stored(outcome):
    """The campaign's (injections, quarantines) from the store."""
    coordinator = outcome["coordinator"]
    (campaign,) = coordinator._campaigns.values()
    return stored_records(coordinator.store, campaign.spec)


def _trace_file(outcome):
    return outcome["tmp_path"] / f"{_campaign_id(outcome)}.trace.jsonl"


class TestMetricsEndpoint:
    def test_mid_run_scrapes_parse(self, outcome):
        # parse_exposition already validated each scrape; there must have
        # been at least one mid-run (pre-completion) scrape to make the
        # monotonicity claim meaningful.
        assert len(outcome["scrapes"]) >= 2

    def test_counters_are_monotonic_across_scrapes(self, outcome):
        previous: dict = {}
        for samples in outcome["scrapes"]:
            for (name, labels), value in samples.items():
                if not name.endswith("_total"):
                    continue
                before = previous.get((name, labels), 0.0)
                assert value >= before, (
                    f"{name}{dict(labels)} went backwards: "
                    f"{before} -> {value}"
                )
                previous[(name, labels)] = value

    def test_final_effect_tallies_equal_store(self, outcome):
        campaign_id = _campaign_id(outcome)
        records, quarantines = _stored(outcome)
        assert quarantines == []
        expected: dict[tuple[str, str], int] = {}
        for record in records:
            key = (record.component.name, record.effect.name)
            expected[key] = expected.get(key, 0) + 1
        exported = {
            (dict(labels)["component"], dict(labels)["effect"]): value
            for (name, labels), value in outcome["final"].items()
            if name == "repro_fault_effects_total"
            and dict(labels)["campaign"] == campaign_id
        }
        assert exported == {
            key: float(count) for key, count in expected.items()
        }

    def test_injections_total_equals_stored_records(self, outcome):
        campaign_id = _campaign_id(outcome)
        key = (
            "repro_injections_total",
            frozenset({("campaign", campaign_id)}),
        )
        records, _quarantines = _stored(outcome)
        assert outcome["final"][key] == len(records)
        assert len(records) == FAULTS * len(COMPONENTS)

    def test_campaign_gauges_report_completion(self, outcome):
        campaign_id = _campaign_id(outcome)
        final = outcome["final"]
        assert final[
            ("repro_campaign_complete",
             frozenset({("campaign", campaign_id)}))
        ] == 1.0
        assert final[
            ("repro_campaign_faults",
             frozenset({("campaign", campaign_id), ("status", "done")}))
        ] == FAULTS * len(COMPONENTS)

    def test_early_exit_mechanisms_sum_to_total(self, outcome):
        campaign_id = _campaign_id(outcome)
        by_mechanism = sum(
            value
            for (name, labels), value in outcome["final"].items()
            if name == "repro_early_exit_total"
            and dict(labels)["campaign"] == campaign_id
        )
        assert by_mechanism == FAULTS * len(COMPONENTS)


class TestWorkerHealth:
    def test_silent_worker_is_stale_fresh_worker_is_not(self, outcome):
        status = outcome["status"]
        assert "ghost" in status["stale_workers"]
        assert "w0" not in status["stale_workers"]
        assert status["workers"]["ghost"]["stale"]
        assert not status["workers"]["w0"]["stale"]
        assert status["workers"]["ghost"]["age"] > WORKER_TTL
        assert status["worker_ttl"] == WORKER_TTL

    def test_health_reaches_the_gauges(self, outcome):
        final = outcome["final"]
        # Workers ship pid/rss/window counts with every report.
        for worker in ("w0", "w1"):
            key = ("repro_worker_windows",
                   frozenset({("worker", worker)}))
            assert final[key] >= 1.0
            rss = ("repro_worker_rss_kb", frozenset({("worker", worker)}))
            assert final[rss] > 0.0
        stale_gauge = ("repro_workers_stale", frozenset())
        assert final[stale_gauge] >= 1.0

    def test_heartbeats_were_counted(self, outcome):
        final = outcome["final"]
        assert final[
            ("repro_heartbeats_total", frozenset({("worker", "ghost")}))
        ] >= 1.0


class TestTraceReconstruction:
    def test_trace_log_lands_in_the_trace_dir(self, outcome):
        """A traced coordinator writes its span logs, and nothing else,
        beside the store."""
        names = sorted(path.name for path in outcome["tmp_path"].iterdir())
        assert names == [
            f"{_campaign_id(outcome)}.trace.jsonl", "faults.sqlite"
        ]

    def test_one_fault_path_is_complete(self, outcome):
        """submit -> lease -> window, plus a sibling report span."""
        spans = read_spans(_trace_file(outcome))
        assert spans, "trace log is empty"
        assert len({span["trace"] for span in spans}) == 1

        windows = [span for span in spans if span["name"] == "window"]
        assert windows, "no worker window spans shipped back"
        window = windows[0]
        path = span_path(spans, window["span"])
        assert [span["name"] for span in path] == [
            "submit", "lease", "window"
        ]
        lease = path[1]
        assert lease["attributes"]["component"] == (
            window["attributes"]["component"]
        )
        reports = [
            span for span in spans
            if span["name"] == "report"
            and span["parent"] == lease["span"]
        ]
        assert reports, "no report span parented on the lease"
        assert any(
            span["attributes"].get("accepted", 0) >= 1 for span in reports
        )

    def test_every_span_is_closed_and_stamped(self, outcome):
        spans = read_spans(_trace_file(outcome))
        for span in spans:
            assert span["end"] is not None
            assert span["end"] >= span["start"]

    def test_window_spans_cover_every_executed_fault(self, outcome):
        spans = read_spans(_trace_file(outcome))
        covered = sum(
            span["attributes"].get("completed", 0)
            for span in spans
            if span["name"] == "window"
        )
        assert covered == FAULTS * len(COMPONENTS)


class TestDistributedStillEqualsSerial:
    def test_per_fault_effects_match_serial(self, outcome, serial):
        """Tracing and metrics are observation-only: the distributed
        per-fault effects stay bit-identical to a serial run."""
        records, _quarantines = _stored(outcome)
        by_fault = {
            (record.component, record.index): record.effect
            for record in records
        }
        for component in COMPONENTS:
            for index, effect in enumerate(serial["effects"][component]):
                assert by_fault[(component, index)] is effect
        assert len(by_fault) == FAULTS * len(COMPONENTS)
