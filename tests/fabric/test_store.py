"""Fault store: identity dedup, lease exclusivity, crash durability.

The satellite property tests live here: same fault identity registered
by two concurrent campaigns yields exactly one row, and no interleaving
of lease / complete / expiry operations ever hands the same index to
two live leases.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.protocol import FabricError
from repro.fabric.store import (
    DONE,
    FaultStore,
    LEASED,
    PENDING,
    QUARANTINED,
)
from repro.injection.components import Component
from repro.injection.fault import Fault
from repro.injection.journal import InjectionRecord, QuarantineRecord

BASE = {"workload": "CRC32", "machine": "aa" * 8, "cluster": 1, "seed": 7}
OTHER_BASE = {**BASE, "seed": 8}


def make_faults(count: int, component=Component.L1D) -> list[Fault]:
    return [
        Fault(component=component, bit_index=13 * index, cycle=100 + index)
        for index in range(count)
    ]


def make_store() -> FaultStore:
    # A controllable clock so lease-expiry tests don't sleep.
    clock = {"now": 0.0}
    store = FaultStore(":memory:", clock=lambda: clock["now"])
    store.test_clock = clock  # type: ignore[attr-defined]
    return store


def payload_for(index: int) -> dict:
    return {
        "type": "injection",
        "component": "L1D",
        "index": index,
        "bit": 13 * index,
        "cycle": 100 + index,
        "effect": "MASKED",
        "wall": 0.1,
        "ended": "full",
    }


def record_for(index: int, effect: str = "MASKED") -> InjectionRecord:
    return InjectionRecord.from_line({**payload_for(index), "effect": effect})


class TestRegistrationDedup:
    def test_second_registration_inserts_nothing(self):
        store = make_store()
        faults = make_faults(10)
        assert store.register(BASE, "L1D", faults) == 10
        assert store.register(BASE, "L1D", faults) == 0
        counts = store.counts(BASE, {"L1D": 10})
        assert counts[PENDING] == 10 and sum(counts.values()) == 10

    def test_longer_campaign_extends_the_shared_prefix(self):
        store = make_store()
        faults = make_faults(12)
        store.register(BASE, "L1D", faults[:5])
        assert store.register(BASE, "L1D", faults) == 7  # only the new tail

    def test_completed_rows_survive_re_registration(self):
        store = make_store()
        faults = make_faults(3)
        store.register(BASE, "L1D", faults)
        assert store.complete(BASE, record_for(1, "SDC"))
        store.register(BASE, "L1D", faults)  # a second campaign submits
        assert store.records(BASE, "L1D", 3) == [record_for(1, "SDC")]

    def test_different_identity_does_not_collide(self):
        store = make_store()
        store.register(BASE, "L1D", make_faults(4))
        store.register(OTHER_BASE, "L1D", make_faults(4))
        assert store.counts(BASE, {"L1D": 4})[PENDING] == 4
        assert store.counts(OTHER_BASE, {"L1D": 4})[PENDING] == 4

    def test_coordinate_drift_under_one_identity_is_an_error(self):
        store = make_store()
        store.register(BASE, "L1D", make_faults(4))
        drifted = [
            Fault(component=Component.L1D, bit_index=fault.bit_index + 1,
                  cycle=fault.cycle)
            for fault in make_faults(4)
        ]
        with pytest.raises(FabricError, match="drift"):
            store.register(BASE, "L1D", drifted)

    @settings(max_examples=50, deadline=None)
    @given(
        first=st.integers(min_value=1, max_value=30),
        second=st.integers(min_value=1, max_value=30),
    )
    def test_property_two_campaigns_one_row_per_identity(self, first, second):
        """Same identity from two concurrent campaigns -> one row each."""
        store = make_store()
        faults = make_faults(max(first, second))
        new_first = store.register(BASE, "L1D", faults[:first])
        new_second = store.register(BASE, "L1D", faults[:second])
        assert new_first == first
        assert new_second == max(0, second - first)
        counts = store.counts(BASE, {"L1D": max(first, second)})
        assert sum(counts.values()) == max(first, second)
        store.close()


class TestLeases:
    def test_lease_is_a_contiguous_pending_prefix(self):
        store = make_store()
        store.register(BASE, "L1D", make_faults(10))
        lease = store.lease(BASE, {"L1D": 10}, count=4, ttl=60)
        assert (lease.component, lease.start, lease.stop) == ("L1D", 0, 4)
        counts = store.counts(BASE, {"L1D": 10})
        assert counts[LEASED] == 4 and counts[PENDING] == 6

    def test_second_worker_gets_the_next_window(self):
        store = make_store()
        store.register(BASE, "L1D", make_faults(10))
        first = store.lease(BASE, {"L1D": 10}, count=4, ttl=60)
        second = store.lease(BASE, {"L1D": 10}, count=4, ttl=60)
        assert (first.start, first.stop) == (0, 4)
        assert (second.start, second.stop) == (4, 8)

    def test_drained_store_leases_nothing(self):
        store = make_store()
        store.register(BASE, "L1D", make_faults(2))
        store.lease(BASE, {"L1D": 2}, count=2, ttl=60)
        assert store.lease(BASE, {"L1D": 2}, count=2, ttl=60) is None

    def test_scope_limit_hides_larger_campaigns_rows(self):
        store = make_store()
        store.register(BASE, "L1D", make_faults(10))
        lease = store.lease(BASE, {"L1D": 3}, count=8, ttl=60)
        assert (lease.start, lease.stop) == (0, 3)

    def test_expired_lease_is_reclaimed_and_reissued(self):
        store = make_store()
        store.register(BASE, "L1D", make_faults(4))
        store.lease(BASE, {"L1D": 4}, count=4, ttl=60)
        assert store.lease(BASE, {"L1D": 4}, count=4, ttl=60) is None
        store.test_clock["now"] = 61.0
        reissued = store.lease(BASE, {"L1D": 4}, count=4, ttl=60)
        assert (reissued.start, reissued.stop) == (0, 4)
        assert reissued.lease_id != ""

    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(["lease", "complete", "expire"]),
                st.integers(min_value=0, max_value=11),
            ),
            max_size=30,
        )
    )
    def test_property_no_index_in_two_live_leases(self, steps):
        """Random lease/complete/expiry interleavings never double-lease.

        After every operation, the live leases (non-expired ``leased``
        rows) must partition their indices: each index appears in at
        most one lease, and completed/quarantined rows appear in none.
        """
        total = 12
        store = make_store()
        store.register(BASE, "L1D", make_faults(total))
        for action, value in steps:
            if action == "lease":
                store.lease(
                    BASE, {"L1D": total}, count=max(1, value % 5), ttl=10.0
                )
            elif action == "complete":
                store.complete(BASE, record_for(value))
            else:  # expire: advance time past every outstanding TTL
                store.test_clock["now"] += 11.0
            live = store.live_leases()
            indices = [index for _lease, _comp, index in live]
            assert len(indices) == len(set(indices)), (
                f"index double-leased after {action}: {live}"
            )
            by_lease = {}
            for lease_id, _comp, index in live:
                by_lease.setdefault(lease_id, []).append(index)
            for lease_id, members in by_lease.items():
                terminal = {
                    record.index
                    for record in store.records(BASE, "L1D", total)
                }
                assert not terminal & set(members), (
                    f"terminal row still leased: {lease_id} {members}"
                )
        store.close()


class TestCompletion:
    def test_first_completion_wins(self):
        store = make_store()
        store.register(BASE, "L1D", make_faults(2))
        assert store.complete(BASE, record_for(0))
        # A stale report after a lease expiry changes nothing.
        assert not store.complete(BASE, record_for(0, "SDC"))
        assert store.records(BASE, "L1D", 2) == [record_for(0)]

    def test_quarantine_is_terminal_too(self):
        store = make_store()
        store.register(BASE, "L1D", make_faults(1))
        quarantine = QuarantineRecord(Component.L1D, 0, 0, 100, "worker died")
        assert store.quarantine(BASE, quarantine)
        assert not store.complete(BASE, record_for(0))
        assert store.records(BASE, "L1D", 1) == [quarantine]
        assert store.counts(BASE, {"L1D": 1})[QUARANTINED] == 1

    def test_records_come_back_in_index_order(self):
        store = make_store()
        store.register(BASE, "L1D", make_faults(5))
        for index in (3, 0, 4, 1, 2):
            store.complete(BASE, record_for(index))
        rows = store.records(BASE, "L1D", 5)
        assert [record.index for record in rows] == [0, 1, 2, 3, 4]


class TestDurability:
    def test_store_survives_reopen(self, tmp_path):
        path = tmp_path / "faults.sqlite"
        store = FaultStore(path)
        store.register(BASE, "L1D", make_faults(3))
        store.complete(BASE, record_for(1))
        store.save_campaign("abc123", {"workload": "CRC32"})
        store.close()
        reopened = FaultStore(path)
        assert reopened.campaigns() == {"abc123": {"workload": "CRC32"}}
        assert reopened.records(BASE, "L1D", 3) == [record_for(1)]
        reopened.close()

    def test_newer_schema_is_refused(self, tmp_path):
        path = tmp_path / "faults.sqlite"
        store = FaultStore(path)
        store._conn.execute("PRAGMA user_version = 99")
        store._conn.commit()
        store.close()
        with pytest.raises(FabricError, match="schema"):
            FaultStore(path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_older_store_migrates_and_keeps_its_rows(
        self, tmp_path, monkeypatch, version
    ):
        """A store written at schema v1 or v2 opens at the current
        version without the dropped columns, and its terminal rows read
        back as the same records."""
        from repro.fabric import store as store_module

        migrations = store_module.MIGRATIONS
        path = tmp_path / "faults.sqlite"
        monkeypatch.setattr(store_module, "MIGRATIONS", migrations[:version])
        old = FaultStore(path)
        assert old.schema_version == version
        old.register(BASE, "L1D", make_faults(3))
        # The old schema's write path, with its since-dropped columns.
        quarantine = QuarantineRecord(Component.L1D, 2, 26, 102, "boom")
        for record, status, reason in (
            (record_for(0, "SDC"), DONE, None),
            (quarantine, QUARANTINED, "boom"),
        ):
            old._conn.execute(
                "UPDATE faults SET status = ?, payload = ?, reason = ?, "
                "worker = 'w' WHERE idx = ?",
                (status, json.dumps(record.to_line()), reason, record.index),
            )
        old._conn.commit()
        old.close()
        monkeypatch.undo()

        store = FaultStore(path)
        assert store.schema_version == len(migrations) == 3
        columns = {
            row[1] for row in store._conn.execute("PRAGMA table_info(faults)")
        }
        assert not columns & {"effect", "ended", "wall", "reason", "worker"}
        assert store.records(BASE, "L1D", 3) == [
            record_for(0, "SDC"), quarantine
        ]
        store.close()

    def test_schema_version_matches_the_migration_count(self):
        from repro.fabric.store import MIGRATIONS

        assert make_store().schema_version == len(MIGRATIONS)
