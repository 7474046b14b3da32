"""Fabric wire protocol: specs, program digests, fault identity, and the
campaign counts a coordinator exports."""

from __future__ import annotations

import dataclasses
import json
import sqlite3
import threading
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.fabric.coordinator import Coordinator, create_server
from repro.fabric.protocol import (
    CampaignSpec,
    FabricError,
    FabricUnavailable,
    identity_base,
)
from repro.fabric.store import FaultStore, stored_records
from repro.fabric.worker import _CampaignContext
from repro.injection.campaign import CampaignConfig, build_fault_plan
from repro.injection.classify import FaultEffect
from repro.injection.components import Component
from repro.injection.identity import machine_digest, program_digest
from repro.injection.journal import InjectionRecord, QuarantineRecord
from repro.injection.parallel import EngineOptions
from repro.microarch.config import (
    CORTEX_A9_CONFIG,
    SCALED_A9_CONFIG,
)
from repro.observability.metrics import parse_exposition
from repro.workloads import get_workload
from tests.injection.test_identity import edited

CRC32 = get_workload("CRC32")


def make_spec(**overrides) -> CampaignSpec:
    config = CampaignConfig(faults_per_component=10, seed=7)
    spec = CampaignSpec.from_config(CRC32, config, golden_cycles=123_456)
    return dataclasses.replace(spec, **overrides) if overrides else spec


class TestMachineDigest:
    def test_stable_for_equal_configs(self):
        assert machine_digest(SCALED_A9_CONFIG) == machine_digest(
            dataclasses.replace(SCALED_A9_CONFIG)
        )

    def test_sensitive_to_any_geometry_field(self):
        drifted = dataclasses.replace(SCALED_A9_CONFIG, mem_latency=31)
        assert machine_digest(drifted) != machine_digest(SCALED_A9_CONFIG)

    def test_distinguishes_the_named_configs(self):
        assert machine_digest(SCALED_A9_CONFIG) != machine_digest(
            CORTEX_A9_CONFIG
        )

    def test_worker_refuses_a_spec_for_another_program(self):
        assert make_spec().to_config().machine is SCALED_A9_CONFIG
        with pytest.raises(FabricUnavailable, match="not the program"):
            _CampaignContext(make_spec(program_digest="0" * 32))
        with pytest.raises(FabricError, match="unknown machine"):
            make_spec(machine="cortex-m0")


class TestCampaignSpec:
    def test_payload_round_trip(self):
        spec = make_spec()
        assert CampaignSpec.from_payload(spec.to_payload()) == spec

    def test_round_trip_rebuilds_an_equivalent_config(self):
        config = CampaignConfig(
            faults_per_component=10, seed=7, cluster_size=2, early_exit=False
        )
        spec = CampaignSpec.from_config(CRC32, config, golden_cycles=999)
        rebuilt = spec.to_config()
        assert rebuilt.faults_per_component == 10
        assert rebuilt.seed == 7
        assert rebuilt.cluster_size == 2
        assert rebuilt.early_exit is False
        assert rebuilt.machine is SCALED_A9_CONFIG

    def test_campaign_id_is_stable_and_content_derived(self):
        assert make_spec().campaign_id == make_spec().campaign_id
        assert make_spec().campaign_id != make_spec(seed=8).campaign_id

    def test_adaptive_configs_are_rejected(self):
        config = CampaignConfig(target_margin=0.02)
        with pytest.raises(FabricError, match="adaptive"):
            CampaignSpec.from_config(CRC32, config, golden_cycles=1)

    def test_foreign_protocol_version_is_rejected(self):
        payload = make_spec().to_payload()
        payload["version"] = 99
        with pytest.raises(FabricError, match="protocol"):
            CampaignSpec.from_payload(payload)

    def test_component_list_resolves_enum_members(self):
        spec = make_spec(components=("L1D", "REGFILE"))
        assert spec.component_list() == (Component.L1D, Component.REGFILE)

    def test_engine_travels_nested_and_round_trips(self):
        config = CampaignConfig(
            faults_per_component=10, seed=7, translate=False, digest_probes=5
        )
        spec = CampaignSpec.from_config(CRC32, config, golden_cycles=999)
        assert spec.engine == config.engine
        assert spec.to_payload()["engine"]["translate"] is False
        assert CampaignSpec.from_payload(spec.to_payload()) == spec
        assert spec.to_config().engine == config.engine
        assert spec.campaign_id != make_spec().campaign_id

    def test_protocol_v1_payload_names_both_versions(self):
        payload = make_spec().to_payload()
        payload["version"] = 1
        with pytest.raises(FabricError, match="protocol v1.*speaks v4"):
            CampaignSpec.from_payload(payload)

    @pytest.mark.parametrize(
        "mutate",
        [
            pytest.param(lambda p: p.update(turbo=True), id="unknown-field"),
            pytest.param(lambda p: p.pop("workload"), id="missing-field"),
            pytest.param(
                lambda p: p["engine"].update(turbo=True),
                id="unknown-engine-field",
            ),
            pytest.param(
                lambda p: p.update(engine=[1, 2]), id="engine-not-object"
            ),
            pytest.param(
                lambda p: p.update(components=7), id="components-not-list"
            ),
        ],
    )
    def test_malformed_payloads_raise_fabric_errors(self, mutate):
        payload = make_spec().to_payload()
        mutate(payload)
        with pytest.raises(FabricError, match="malformed campaign spec"):
            CampaignSpec.from_payload(payload)

    @pytest.mark.parametrize("payload", [None, [], "spec", 3])
    def test_non_object_payloads_raise_fabric_errors(self, payload):
        with pytest.raises(FabricError, match="JSON object"):
            CampaignSpec.from_payload(payload)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("components", ["BOGUS"], "known names"),
            ("components", "L1D", "list of names"),
            ("components", [], "known names"),
            ("faults_per_component", -5, "must be positive"),
            ("faults_per_component", 2.5, "must be int"),
            ("golden_cycles", 0, "must be positive"),
            ("seed", True, "must be int"),
            ("confidence", 1.5, r"\(0, 1\)"),
            ("workload", "Nope", "unknown workload"),
            ("machine", "cortex-m0", "unknown machine"),
            ("program_digest", 7, "must be str"),
            ("engine", {"translate": "yes"}, "engine.translate must be bool"),
            ("engine", {"digest_probes": -1}, "must not be negative"),
        ],
    )
    def test_invalid_values_raise_fabric_errors(self, field, value, message):
        payload = make_spec().to_payload()
        payload[field] = value
        with pytest.raises(FabricError, match=message):
            CampaignSpec.from_payload(payload)


class TestFaultIdentity:
    def test_identity_base_carries_the_campaign_invariants(self):
        spec = make_spec()
        base = identity_base(spec)
        assert base == {
            "workload": "CRC32",
            "machine": program_digest(CRC32, SCALED_A9_CONFIG),
            "cluster": 1,
            "seed": 7,
        }

    def test_sample_size_is_not_part_of_the_identity(self):
        # Campaigns with different n over the same stream must share
        # fault rows (the prefix property makes their faults identical).
        small = identity_base(make_spec(faults_per_component=5))
        large = identity_base(make_spec(faults_per_component=50))
        assert small == large

    @pytest.mark.parametrize("faults", [50, 1000])
    def test_an_edited_workload_registers_new_rows(self, tmp_path, faults):
        """The same name with another program (and so another golden
        duration) must never reuse, or collide with, the old rows."""
        store_path = tmp_path / "faults.sqlite"
        coordinator = Coordinator(FaultStore(store_path))
        config = CampaignConfig(faults_per_component=faults, seed=0)
        for workload, golden_cycles in ((CRC32, 274_908), (edited(CRC32), 275_726)):
            spec = CampaignSpec.from_config(workload, config, golden_cycles)
            summary = coordinator.submit(spec.to_payload())
            assert summary["already_done"] == 0
        coordinator.close()
        with sqlite3.connect(store_path) as conn:
            ((rows,),) = conn.execute("SELECT COUNT(*) FROM faults")
        assert rows == 2 * faults * len(Component)

    def test_rows_of_an_older_store_match_no_new_identity(self, tmp_path):
        """A store written before identities covered the program opens,
        and its machine-digest rows never answer a new campaign."""
        store = FaultStore(tmp_path / "faults.sqlite")
        spec = make_spec()
        plan = build_fault_plan(spec.to_config(), 999, (Component.L1D,))
        old_base = {**identity_base(spec), "machine": machine_digest(SCALED_A9_CONFIG)}
        store.register(old_base, "L1D", plan[Component.L1D])
        fault = plan[Component.L1D][0]
        store.complete(
            old_base,
            InjectionRecord(Component.L1D, 0, fault.bit_index, fault.cycle,
                            FaultEffect.SDC, 0.1),
        )
        store.close()
        store = FaultStore(tmp_path / "faults.sqlite")
        base = identity_base(spec)
        assert sum(store.counts(base, {"L1D": 10}).values()) == 0
        fresh = build_fault_plan(spec.to_config(), spec.golden_cycles, (Component.L1D,))
        assert store.register(base, "L1D", fresh[Component.L1D]) == 10
        store.close()


class TestCampaignMetrics:
    """A coordinator exports each campaign's counts from its telemetry,
    which replays the campaign's store rows at activation - as a local
    run replays its journal."""

    @staticmethod
    def _sample(coordinator, name: str, campaign_id: str):
        samples = parse_exposition(coordinator.registry.render())
        return samples.get((name, frozenset({("campaign", campaign_id)})))

    def test_quarantines_survive_a_restart(self, tmp_path):
        store_path = tmp_path / "faults.sqlite"
        coordinator = Coordinator(FaultStore(store_path))
        campaign_id = coordinator.submit(make_spec().to_payload())["campaign_id"]
        fault = coordinator._campaigns[campaign_id].plan[Component.L1D][0]
        quarantine = QuarantineRecord(
            Component.L1D, 0, fault.bit_index, fault.cycle, "worker died"
        )
        coordinator.report({
            "campaign_id": campaign_id,
            "worker": "w0",
            "quarantines": [quarantine.to_line()],
        })
        assert self._sample(coordinator, "repro_quarantines_total", campaign_id) == 1
        coordinator.close()

        restarted = Coordinator(FaultStore(store_path))
        try:
            _records, quarantines = stored_records(
                restarted.store, restarted._campaigns[campaign_id].spec
            )
            assert quarantines == [quarantine]
            assert self._sample(
                restarted, "repro_quarantines_total", campaign_id
            ) == len(quarantines)
        finally:
            restarted.close()

    def test_reported_cycles_saved_reach_the_counter(self, tmp_path):
        coordinator = Coordinator(FaultStore())
        try:
            campaign_id = coordinator.submit(make_spec().to_payload())[
                "campaign_id"
            ]
            faults = coordinator._campaigns[campaign_id].plan[Component.L2]
            saved = (1000, 0, 2345)
            records = [
                InjectionRecord(
                    Component.L2, index, fault.bit_index, fault.cycle,
                    FaultEffect.MASKED, 0.01, ended_by="digest",
                    cycles_saved=cycles,
                )
                for index, (fault, cycles) in enumerate(zip(faults, saved))
            ]
            coordinator.report({
                "campaign_id": campaign_id,
                "worker": "w0",
                "records": [record.to_line() for record in records],
            })
            assert self._sample(
                coordinator, "repro_cycles_saved_total", campaign_id
            ) == sum(saved)
        finally:
            coordinator.close()


class TestTheStoreIsTheOneRecord:
    """The coordinator writes nothing but the store (and, when asked,
    span logs), and ``repro stats`` reads that store."""

    @staticmethod
    def _campaign_with_one_of_each(store_path):
        """A stored campaign with one injection and one quarantine."""
        coordinator = Coordinator(FaultStore(store_path))
        campaign_id = coordinator.submit(make_spec().to_payload())["campaign_id"]
        faults = coordinator._campaigns[campaign_id].plan[Component.L1D]
        coordinator.report({
            "campaign_id": campaign_id,
            "worker": "w0",
            "records": [
                InjectionRecord(
                    Component.L1D, 0, faults[0].bit_index, faults[0].cycle,
                    FaultEffect.SDC, 0.01, ended_by="digest",
                    cycles_saved=500,
                ).to_line()
            ],
            "quarantines": [
                QuarantineRecord.from_fault(
                    Component.L1D, 1, faults[1], "worker died"
                ).to_line()
            ],
        })
        coordinator.close()
        return campaign_id

    def test_stats_reads_a_store_by_its_header(self, tmp_path, capsys):
        # A store is recognised by content, whatever its suffix.
        store_path = tmp_path / "f.db"
        campaign_id = self._campaign_with_one_of_each(store_path)
        metrics_path = tmp_path / "stats.json"
        assert main(
            ["stats", str(store_path), "--metrics", str(metrics_path)]
        ) == 0
        out = capsys.readouterr().out
        assert (
            f"{campaign_id}: CRC32 on {SCALED_A9_CONFIG.name}, "
            f"1 injection(s), 1 quarantined"
        ) in out
        values = json.loads(metrics_path.read_text())["values"]
        assert values["completed"] == 1
        assert values["quarantined"] == 1
        assert values["cycles_saved"] == 500
        assert values["components"]["L1D"]["SDC"] == 1
        assert values["ended_by"]["digest"] == 1

    def test_coordinator_leaves_only_the_store(self, tmp_path):
        self._campaign_with_one_of_each(tmp_path / "faults.sqlite")
        assert [path.name for path in tmp_path.iterdir()] == ["faults.sqlite"]

    def test_trace_dir_is_keyword_only(self, tmp_path):
        with pytest.raises(TypeError):
            Coordinator(FaultStore(), tmp_path)  # type: ignore[misc]

    def test_serve_has_no_journal_dir(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["serve", "--journal-dir", str(tmp_path)])


def _post(url: str, body: bytes) -> tuple[int, dict]:
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


class TestBadRequests:
    """Malformed requests and stores are client errors, never 500s or
    tracebacks."""

    def test_handler_answers_400_to_bad_bodies(self, tmp_path):
        coordinator = Coordinator(FaultStore())
        server = create_server(coordinator)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        url = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            bad_spec = make_spec().to_payload()
            bad_spec["turbo"] = True
            cases = {
                "not-json": (f"{url}/submit", b"{not json"),
                "not-object": (f"{url}/lease", b"[1, 2]"),
                "unknown-field": (
                    f"{url}/submit",
                    json.dumps({"spec": bad_spec}).encode(),
                ),
                "no-spec": (f"{url}/submit", b"{}"),
            }
            for name, (endpoint, body) in cases.items():
                code, reply = _post(endpoint, body)
                assert code == 400, (name, reply)
                assert reply["error"], name
            # The server keeps serving after the bad requests.
            assert _post(f"{url}/heartbeat", b'{"worker": "w"}')[0] == 200
        finally:
            server.shutdown()
            server.server_close()
            coordinator.close()

    def test_submit_answers_400_to_invalid_specs(self, tmp_path):
        store = FaultStore(tmp_path / "faults.sqlite")
        coordinator = Coordinator(store)
        server = create_server(coordinator)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        url = f"http://127.0.0.1:{server.server_address[1]}/submit"
        try:
            for field, value in (
                ("components", ["BOGUS"]),
                ("components", "L1D"),
                ("faults_per_component", -5),
                ("workload", "Nope"),
                ("engine", {"translate": "yes"}),
            ):
                spec = {**make_spec().to_payload(), field: value}
                code, reply = _post(url, json.dumps({"spec": spec}).encode())
                assert code == 400, (field, reply)
                assert "malformed campaign spec" in reply["error"]
            assert store.campaigns() == {}
        finally:
            server.shutdown()
            server.server_close()
            coordinator.close()
        with sqlite3.connect(tmp_path / "faults.sqlite") as conn:
            assert conn.execute("SELECT COUNT(*) FROM faults").fetchone() == (0,)

    def test_coordinator_refuses_a_store_with_a_malformed_spec(self, tmp_path):
        store = FaultStore(tmp_path / "faults.sqlite")
        payload = make_spec().to_payload()
        payload["turbo"] = True
        store.save_campaign("abc123", payload)
        with pytest.raises(FabricError, match="stored campaign abc123"):
            Coordinator(store)
        store.close()

    def test_serve_over_a_v1_store_exits_2(self, tmp_path, capsys):
        store_path = tmp_path / "faults.sqlite"
        store = FaultStore(store_path)
        payload = make_spec().to_payload()
        payload["version"] = 1
        store.save_campaign("v1campaign", payload)
        store.close()
        code = main(["serve", "--store", str(store_path), "--port", "0"])
        assert code == 2
        assert "protocol v1" in capsys.readouterr().err
