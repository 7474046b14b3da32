"""Fabric end-to-end: distributed == serial, per fault and per tally.

Acceptance scenarios from the fault-farm correctness sweep:

- a campaign sharded over two workers produces per-fault effects and
  final tallies bit-identical to a serial ``jobs=1`` run;
- a coordinator that dies mid-campaign (server torn down without any
  cleanup, new coordinator pointed at the same store) resumes with zero
  duplicated injections;
- a second campaign over a longer prefix of the same fault stream
  reuses every completed fault from the first (identity dedup);
- the store is the one record: the coordinator leaves no other file,
  and ``repro stats <store>`` equals ``repro stats <local journal>``.

Everything runs in-process on threads; the subprocess/SIGKILL flavor
lives in ``test_cli_smoke.py``.
"""

from __future__ import annotations

import dataclasses
import threading

import pytest

from repro.cli import main
from repro.fabric.client import FabricClient
from repro.fabric.protocol import CampaignSpec
from repro.fabric.coordinator import Coordinator, create_server
from repro.fabric.store import FaultStore, stored_records
from repro.fabric.worker import FabricWorker
from repro.injection.campaign import (
    CampaignConfig,
    build_fault_plan,
    prepare_image,
)
from repro.injection.components import Component, component_bits
from repro.injection.journal import RecordBuffer
from repro.injection.parallel import run_injection_plan
from repro.observability.metrics import read_metrics
from repro.workloads import get_workload

WORKLOAD = "StringSearch"
COMPONENTS = (Component.REGFILE, Component.DTLB)
FAULTS = 6


@pytest.fixture(scope="module")
def workload():
    return get_workload(WORKLOAD)


@pytest.fixture(scope="module")
def config():
    return CampaignConfig(faults_per_component=FAULTS, seed=11)


@pytest.fixture(scope="module")
def serial(workload, config):
    """Ground truth: golden run, image, plan, serial effects and the
    serial run's records."""
    golden, image = prepare_image(workload, config)
    plan = build_fault_plan(config, golden.cycles, COMPONENTS)
    buffer = RecordBuffer()
    effects = run_injection_plan(image, plan, jobs=1, journal=buffer)
    return {
        "golden": golden,
        "plan": plan,
        "effects": effects,
        "records": buffer.records,
    }


class _Fabric:
    """One in-process coordinator + HTTP server on a private store."""

    def __init__(self, tmp_path):
        self.tmp_path = tmp_path
        self.coordinator = None
        self.server = None
        self.url = None
        self.start()

    def start(self):
        self.coordinator = Coordinator(
            FaultStore(self.tmp_path / "faults.sqlite"), lease_size=2
        )
        self.server = create_server(self.coordinator)
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}"
        threading.Thread(target=self.server.serve_forever, daemon=True).start()

    def kill(self):
        """Tear down the HTTP server with *no* coordinator cleanup -
        the in-process approximation of a SIGKILL (the store committed
        everything; open fds just leak until the test ends)."""
        self.server.shutdown()
        self.server.server_close()

    def stop(self):
        self.kill()
        self.coordinator.close()

    def stored(self):
        """The one campaign's (injections, quarantines) from the store."""
        (campaign,) = self.coordinator._campaigns.values()
        return stored_records(self.coordinator.store, campaign.spec)


def run_client_and_workers(
    fabric, workload, config, worker_count=2, client=None,
    components=COMPONENTS,
):
    """Drive one campaign to completion; returns (result, workers)."""
    client = client or FabricClient(fabric.url, poll_interval=0.05)
    box = {}

    def submit():
        box["result"] = client.run_workload(workload, config, components)

    client_thread = threading.Thread(target=submit)
    client_thread.start()
    workers = [
        FabricWorker(fabric.url, name=f"w{index}", poll_interval=0.05)
        for index in range(worker_count)
    ]
    worker_threads = [
        threading.Thread(target=worker.run, kwargs={"max_idle_polls": 40})
        for worker in workers
    ]
    for thread in worker_threads:
        thread.start()
    client_thread.join(timeout=300)
    for thread in worker_threads:
        thread.join(timeout=60)
    assert "result" in box, "client never received a result"
    return box["result"], workers


class TestDistributedEqualsSerial:
    @pytest.fixture(scope="class")
    def outcome(self, tmp_path_factory, workload, config, serial):
        fabric = _Fabric(tmp_path_factory.mktemp("fabric"))
        result, workers = run_client_and_workers(fabric, workload, config)
        yield {"result": result, "workers": workers, "fabric": fabric}
        fabric.stop()

    def test_tallies_are_bit_identical_to_serial(
        self, outcome, config, serial
    ):
        result = outcome["result"]
        for component in COMPONENTS:
            counts = {}
            for effect in serial["effects"][component]:
                counts[effect] = counts.get(effect, 0) + 1
            tally = result.components[component]
            assert tally.counts == counts
            assert tally.injections == FAULTS
            assert tally.population_bits == component_bits(
                config.machine, component
            )
            assert tally.quarantined == 0
        assert result.golden_cycles == serial["golden"].cycles

    def test_per_fault_effects_match_serial(self, outcome, serial):
        """Stronger than tally equality: every stored fault's effect
        equals the serial run's effect at the same index."""
        records, quarantines = outcome["fabric"].stored()
        assert quarantines == []
        by_fault = {
            (record.component, record.index): record for record in records
        }
        for component in COMPONENTS:
            for index, effect in enumerate(serial["effects"][component]):
                record = by_fault.pop((component, index))
                assert record.effect is effect
                fault = serial["plan"][component][index]
                assert record.bit_index == fault.bit_index
                assert record.cycle == fault.cycle
        assert not by_fault, f"extra stored records: {sorted(by_fault)}"

    def test_strike_sites_reach_the_coordinator_store(self, outcome):
        """Workers' strike sites ride the record lines into the
        coordinator's store, with no protocol change."""
        records, _quarantines = outcome["fabric"].stored()
        assert records
        assert all(record.site is not None for record in records)
        assert {record.site.mode for record in records} <= {"user", "kernel"}

    def test_every_hop_carries_the_serial_record(self, outcome, serial):
        """A fault's record is the same object's value at every hop: the
        store payload equals the serial run's record in everything but
        the wall-clock time, in the serial run's order."""

        def timeless(record):
            return dataclasses.replace(record, wall_time=0.0)

        expected = [timeless(record) for record in serial["records"]]
        assert len(expected) == FAULTS * len(COMPONENTS)
        assert all(record.events for record in expected)
        records, _quarantines = outcome["fabric"].stored()
        assert [timeless(record) for record in records] == expected

    def test_coordinator_leaves_only_the_store(self, outcome):
        """No journal, no span log: the store is the one durable record
        of an untraced coordinator."""
        tmp_path = outcome["fabric"].tmp_path
        assert [path.name for path in tmp_path.iterdir()] == ["faults.sqlite"]

    def test_no_fault_was_executed_twice(self, outcome):
        executed = sum(worker.executed for worker in outcome["workers"])
        assert executed == FAULTS * len(COMPONENTS)

    def test_both_workers_participated(self, outcome):
        # Not a determinism property - just evidence the fan-out fanned
        # out (each worker had time to lease at least one window).
        assert all(worker.executed > 0 for worker in outcome["workers"])

    def test_status_reports_completion(self, outcome):
        coordinator = outcome["fabric"].coordinator
        status = coordinator.status()
        (campaign_status,) = status["campaigns"].values()
        assert campaign_status["complete"]
        assert status["executed_total"] == FAULTS * len(COMPONENTS)
        assert set(status["workers"]) == {"w0", "w1"}
        completed = sum(
            entry["completed"] for entry in status["workers"].values()
        )
        assert completed == FAULTS * len(COMPONENTS)


class TestCoordinatorKillAndResume:
    def test_restart_resumes_with_zero_duplicates(
        self, tmp_path, workload, config, serial
    ):
        fabric = _Fabric(tmp_path)
        client = FabricClient(fabric.url, poll_interval=0.05, patience=60.0)

        # Phase 1: one worker executes a couple of windows, then the
        # coordinator "dies" (no cleanup at all).
        early = FabricWorker(fabric.url, name="early", poll_interval=0.05)
        summary = client.submit(
            CampaignSpec.from_config(
                workload, config, serial["golden"].cycles, COMPONENTS
            )
        )
        campaign_id = summary["campaign_id"]
        assert early.run(max_windows=2) > 0
        done_before = fabric.coordinator.store.executed_total()
        assert 0 < done_before < FAULTS * len(COMPONENTS)
        fabric.kill()

        # Phase 2: a fresh coordinator on the same store and journal dir
        # (as after a SIGKILL + restart) finishes the campaign.
        restarted = _Fabric(tmp_path)
        result, workers = run_client_and_workers(
            restarted,
            workload,
            config,
            client=FabricClient(restarted.url, poll_interval=0.05),
        )
        executed_after = sum(worker.executed for worker in workers)
        assert early.executed + executed_after == FAULTS * len(COMPONENTS), (
            "restart re-executed already-completed faults"
        )
        # Identity: the resumed campaign is the same campaign.
        assert restarted.coordinator.status(campaign_id)["complete"]
        for component in COMPONENTS:
            counts = {}
            for effect in serial["effects"][component]:
                counts[effect] = counts.get(effect, 0) + 1
            assert result.components[component].counts == counts
        restarted.stop()


class TestCrossCampaignDedup:
    def test_longer_campaign_reuses_completed_prefix(
        self, tmp_path, workload, serial
    ):
        short_config = CampaignConfig(faults_per_component=3, seed=11)
        long_config = CampaignConfig(faults_per_component=FAULTS, seed=11)
        fabric = _Fabric(tmp_path)

        short_result, short_workers = run_client_and_workers(
            fabric, workload, short_config, worker_count=1
        )
        executed_short = sum(worker.executed for worker in short_workers)
        assert executed_short == 3 * len(COMPONENTS)

        long_result, long_workers = run_client_and_workers(
            fabric, workload, long_config, worker_count=1
        )
        executed_long = sum(worker.executed for worker in long_workers)
        # Only the new tail ran: indices [3, 6) of each component.
        assert executed_long == (FAULTS - 3) * len(COMPONENTS)

        for component in COMPONENTS:
            counts = {}
            for effect in serial["effects"][component]:
                counts[effect] = counts.get(effect, 0) + 1
            assert long_result.components[component].counts == counts
            short_counts = {}
            for effect in serial["effects"][component][:3]:
                short_counts[effect] = short_counts.get(effect, 0) + 1
            assert short_result.components[component].counts == short_counts
        fabric.stop()


class TestStatsOfTheStore:
    def test_store_stats_equal_local_journal_stats(
        self, tmp_path, monkeypatch
    ):
        """``repro stats`` of a fabric store and of a local ``jobs=1``
        journal of the same CRC32 campaign export the same telemetry."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        config = CampaignConfig(faults_per_component=2)
        fabric = _Fabric(tmp_path / "farm")
        run_client_and_workers(
            fabric, get_workload("CRC32"), config, components=tuple(Component)
        )
        fabric.stop()
        journal_dir = tmp_path / "journal"
        assert main(
            ["inject", "CRC32", "-n", "2", "--journal", str(journal_dir)]
        ) == 0

        exported = {}
        for name, path in (
            ("store", tmp_path / "farm" / "faults.sqlite"),
            ("journal", journal_dir),
        ):
            metrics = tmp_path / f"{name}.json"
            assert main(["stats", str(path), "--metrics", str(metrics)]) == 0
            exported[name] = read_metrics(metrics)["values"]
        assert exported["store"]["completed"] == 2 * len(Component)
        assert exported["store"]["propagation"]
        for section in (
            "components", "propagation", "ended_by", "cycles_saved",
            "completed",
        ):
            assert exported["store"][section] == exported["journal"][section]
