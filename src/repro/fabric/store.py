"""Central sqlite fault store: dedup, leases, and durable campaign state.

One database holds every fault the fabric has ever been asked to run,
keyed by fault identity ``(workload, program digest, component, cluster,
index, seed)`` (``machine`` column: the program digest).  That key is the
whole design:

- **dedup**: registering a campaign is ``INSERT OR IGNORE`` - a fault
  already completed by any prior or concurrent campaign keeps its row
  (and its recorded effect), so it is never executed twice.  Identity
  collisions are *correct* collisions: the effect of a fault is a pure
  function of its identity (PynqSEUInj's ``is_fault_executed`` dedup,
  made sound by determinism);
- **leases**: pending rows are handed out as contiguous index windows
  with an expiry.  A window whose worker vanishes is reclaimed and
  re-issued; a live index is never in two leases at once (the property
  test pins this);
- **resume**: every completion is committed before it is acknowledged,
  so the store survives a coordinator SIGKILL and the restarted
  coordinator continues from exactly the completed set - the store is
  the fabric's only durable record (:func:`stored_records` reads a
  campaign back for its result, its telemetry and ``repro stats``).

A terminal row keeps the :class:`~repro.injection.journal.InjectionRecord`
or :class:`~repro.injection.journal.QuarantineRecord` it was finished
with as its ``payload``: the record's ``to_line()`` as JSON, the same
line a local journal appends.  No other column repeats the record
(schema v2 dropped the ``effect``/``ended``/``wall`` columns, v3 the
``reason`` and ``worker`` columns; nothing read any of them).

The store is deliberately passive - no HTTP, no campaign logic - so the
coordinator owns all policy and tests can drive the store directly.

Schema changes append a migration to :data:`MIGRATIONS`; the applied
version is tracked in sqlite's ``user_version`` pragma and upgrades run
automatically on open.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
import uuid
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from repro.fabric.protocol import CampaignSpec, FabricError, identity_base
from repro.injection.fault import Fault
from repro.injection.journal import InjectionRecord, QuarantineRecord

#: Row lifecycle states.
PENDING = "pending"
LEASED = "leased"
DONE = "done"
QUARANTINED = "quarantined"

#: Ordered migration scripts; ``user_version`` records how many applied.
MIGRATIONS: tuple[str, ...] = (
    """
    CREATE TABLE campaigns (
        id      TEXT PRIMARY KEY,
        spec    TEXT NOT NULL,
        created REAL NOT NULL
    );
    CREATE TABLE faults (
        workload      TEXT NOT NULL,
        machine       TEXT NOT NULL,
        component     TEXT NOT NULL,
        cluster       INTEGER NOT NULL,
        idx           INTEGER NOT NULL,
        seed          INTEGER NOT NULL,
        bit           INTEGER NOT NULL,
        cycle         INTEGER NOT NULL,
        status        TEXT NOT NULL DEFAULT 'pending',
        lease_id      TEXT,
        lease_expires REAL,
        worker        TEXT,
        effect        TEXT,
        ended         TEXT,
        wall          REAL,
        reason        TEXT,
        payload       TEXT,
        PRIMARY KEY (workload, machine, component, cluster, idx, seed)
    );
    CREATE INDEX faults_by_status
        ON faults (workload, machine, cluster, seed, component, status, idx);
    """,
    # v2: a terminal row's record lives in ``payload``; the effect,
    # termination and wall-clock columns were never written or read.
    # (DROP COLUMN needs sqlite >= 3.35.)
    """
    ALTER TABLE faults DROP COLUMN effect;
    ALTER TABLE faults DROP COLUMN ended;
    ALTER TABLE faults DROP COLUMN wall;
    """,
    # v3: a quarantine's reason is in its payload, and per-worker counts
    # are the coordinator's; the reason and worker columns went unread.
    """
    ALTER TABLE faults DROP COLUMN reason;
    ALTER TABLE faults DROP COLUMN worker;
    """,
)

_KEY = "workload = ? AND machine = ? AND cluster = ? AND seed = ?"


def _key_values(base: Mapping) -> tuple:
    return (base["workload"], base["machine"], base["cluster"], base["seed"])


class Lease:
    """One issued index window: ``[start, stop)`` of one component."""

    def __init__(
        self,
        lease_id: str,
        component: str,
        start: int,
        stop: int,
        expires: float,
    ):
        self.lease_id = lease_id
        self.component = component
        self.start = start
        self.stop = stop
        self.expires = expires

    def to_payload(self) -> dict:
        """JSON-friendly form (sent to the leasing worker)."""
        return {
            "lease_id": self.lease_id,
            "component": self.component,
            "start": self.start,
            "stop": self.stop,
            "expires": self.expires,
        }


class FaultStore:
    """Identity-keyed fault database shared by every campaign on a pool.

    All public methods are safe to call from multiple threads (the
    coordinator's HTTP handlers): a single re-entrant lock serializes
    access, and every mutation commits before returning - a kill between
    two calls can lose at most acknowledged-but-unsent responses, never
    acknowledged work.
    """

    def __init__(
        self,
        path: str | Path = ":memory:",
        clock: Callable[[], float] = time.monotonic,
    ):
        self.path = str(path)
        self._clock = clock
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._migrate()

    def _migrate(self) -> None:
        with self._lock:
            (version,) = self._conn.execute("PRAGMA user_version").fetchone()
            if version > len(MIGRATIONS):
                raise FabricError(
                    f"fault store {self.path} has schema v{version}, newer "
                    f"than this code's v{len(MIGRATIONS)} - refusing to "
                    f"write with stale code"
                )
            for script in MIGRATIONS[version:]:
                self._conn.executescript(script)
                version += 1
                self._conn.execute(f"PRAGMA user_version = {version}")
            self._conn.commit()

    @property
    def schema_version(self) -> int:
        """The applied migration count (sqlite ``user_version``)."""
        with self._lock:
            (version,) = self._conn.execute("PRAGMA user_version").fetchone()
            return version

    def close(self) -> None:
        """Release the sqlite connection."""
        with self._lock:
            self._conn.close()

    # -- campaigns -----------------------------------------------------------

    def save_campaign(self, campaign_id: str, spec_payload: dict) -> None:
        """Persist a campaign spec so a restarted coordinator resumes it."""
        with self._lock:
            self._conn.execute(
                "INSERT OR IGNORE INTO campaigns (id, spec, created) "
                "VALUES (?, ?, ?)",
                (campaign_id, json.dumps(spec_payload), time.time()),
            )
            self._conn.commit()

    def campaigns(self) -> dict[str, dict]:
        """Every persisted campaign spec, keyed by campaign id."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT id, spec FROM campaigns ORDER BY created"
            ).fetchall()
        return {campaign_id: json.loads(spec) for campaign_id, spec in rows}

    # -- registration & dedup ------------------------------------------------

    def register(
        self, base: Mapping, component: str, faults: Sequence[Fault]
    ) -> int:
        """Insert one component's fault rows; returns how many were *new*.

        Rows that already exist - from a prior or concurrent campaign
        with the same identity base - are left untouched (that is the
        dedup), but their (bit, cycle) coordinates are validated against
        the regenerated fault list: a mismatch means seed or simulator
        drift and raises :class:`FabricError` rather than silently mixing
        two different fault spaces under one identity.
        """
        key = _key_values(base)
        with self._lock:
            existing = dict(
                self._conn.execute(
                    f"SELECT idx, bit || ':' || cycle FROM faults "
                    f"WHERE {_KEY} AND component = ? AND idx < ?",
                    key + (component, len(faults)),
                ).fetchall()
            )
            for index, fault in enumerate(faults):
                coords = f"{fault.bit_index}:{fault.cycle}"
                if index in existing and existing[index] != coords:
                    raise FabricError(
                        f"fault store row {component}[{index}] has "
                        f"coordinates {existing[index]} but the campaign "
                        f"regenerates {coords}: identity collision from "
                        f"seed or simulator drift"
                    )
            cursor = self._conn.executemany(
                "INSERT OR IGNORE INTO faults "
                "(workload, machine, component, cluster, idx, seed, bit, "
                "cycle, status) VALUES (?, ?, ?, ?, ?, ?, ?, ?, 'pending')",
                [
                    (
                        base["workload"], base["machine"], component,
                        base["cluster"], index, base["seed"],
                        fault.bit_index, fault.cycle,
                    )
                    for index, fault in enumerate(faults)
                ],
            )
            self._conn.commit()
            return cursor.rowcount

    # -- leases --------------------------------------------------------------

    def release_expired(self) -> int:
        """Return expired leases to the pending pool; count reclaimed."""
        with self._lock:
            cursor = self._conn.execute(
                "UPDATE faults SET status = 'pending', lease_id = NULL, "
                "lease_expires = NULL "
                "WHERE status = 'leased' AND lease_expires < ?",
                (self._clock(),),
            )
            self._conn.commit()
            return cursor.rowcount

    def lease(
        self,
        base: Mapping,
        limits: Mapping[str, int],
        count: int,
        ttl: float,
    ) -> Lease | None:
        """Issue one contiguous pending index window, or ``None``.

        ``limits`` maps component names to the campaign's index bound
        (rows at ``idx >= limit`` belong to larger campaigns on the same
        pool and are out of scope).  Expired leases are reclaimed first;
        issued rows atomically flip to ``leased`` under the store lock,
        so no index can appear in two live leases.
        """
        key = _key_values(base)
        with self._lock:
            self.release_expired()
            for component, limit in limits.items():
                rows = self._conn.execute(
                    f"SELECT idx FROM faults WHERE {_KEY} AND component = ? "
                    f"AND idx < ? AND status = 'pending' "
                    f"ORDER BY idx LIMIT ?",
                    key + (component, limit, max(1, count)),
                ).fetchall()
                if not rows:
                    continue
                start = rows[0][0]
                stop = start + 1
                for (index,) in rows[1:]:
                    if index != stop:
                        break
                    stop += 1
                lease = Lease(
                    lease_id=uuid.uuid4().hex,
                    component=component,
                    start=start,
                    stop=stop,
                    expires=self._clock() + ttl,
                )
                self._conn.execute(
                    f"UPDATE faults SET status = 'leased', lease_id = ?, "
                    f"lease_expires = ? "
                    f"WHERE {_KEY} AND component = ? "
                    f"AND idx >= ? AND idx < ?",
                    (lease.lease_id, lease.expires)
                    + key
                    + (component, start, stop),
                )
                self._conn.commit()
                return lease
        return None

    def live_leases(self) -> list[tuple[str, str, int]]:
        """Currently leased (lease_id, component, idx) rows (telemetry)."""
        with self._lock:
            self.release_expired()
            return self._conn.execute(
                "SELECT lease_id, component, idx FROM faults "
                "WHERE status = 'leased'"
            ).fetchall()

    # -- completion ----------------------------------------------------------

    def complete(self, base: Mapping, record: InjectionRecord) -> bool:
        """Durably record one injection's result; first writer wins.

        Returns ``False`` when the row was already terminal (a stale
        report after a lease expired and another worker finished first) -
        the caller must then *not* tally the duplicate.
        """
        return self._finish(base, DONE, record)

    def quarantine(self, base: Mapping, record: QuarantineRecord) -> bool:
        """Durably retire one fault that exhausted its retries."""
        return self._finish(base, QUARANTINED, record)

    def _finish(self, base, status, record) -> bool:
        """Make one non-terminal row terminal, its payload the record's
        journal line; ``False`` if it already was terminal."""
        with self._lock:
            cursor = self._conn.execute(
                f"UPDATE faults SET status = ?, payload = ?, "
                f"lease_id = NULL, lease_expires = NULL "
                f"WHERE {_KEY} AND component = ? AND idx = ? "
                f"AND status NOT IN ('done', 'quarantined')",
                (status, json.dumps(record.to_line()))
                + _key_values(base)
                + (record.component.name, record.index),
            )
            self._conn.commit()
            return cursor.rowcount == 1

    # -- queries -------------------------------------------------------------

    def counts(self, base: Mapping, limits: Mapping[str, int]) -> dict[str, int]:
        """Row counts by status within one campaign's scope."""
        key = _key_values(base)
        tally = {PENDING: 0, LEASED: 0, DONE: 0, QUARANTINED: 0}
        with self._lock:
            for component, limit in limits.items():
                for status, count in self._conn.execute(
                    f"SELECT status, COUNT(*) FROM faults "
                    f"WHERE {_KEY} AND component = ? AND idx < ? "
                    f"GROUP BY status",
                    key + (component, limit),
                ):
                    tally[status] = tally.get(status, 0) + count
        return tally

    def records(
        self, base: Mapping, component: str, limit: int
    ) -> list[InjectionRecord | QuarantineRecord]:
        """Terminal rows of one component as the records they were
        finished with, in fault-index order (the order campaign tallies
        are accumulated in), restricted to ``idx < limit``.
        """
        with self._lock:
            rows = self._conn.execute(
                f"SELECT status, payload FROM faults "
                f"WHERE {_KEY} AND component = ? AND idx < ? "
                f"AND status IN ('done', 'quarantined') ORDER BY idx",
                _key_values(base) + (component, limit),
            ).fetchall()
        return [
            (InjectionRecord if status == DONE else QuarantineRecord).from_line(
                json.loads(payload)
            )
            for status, payload in rows
        ]

    def executed_total(self) -> int:
        """Terminal rows across the whole pool (dedup accounting)."""
        with self._lock:
            (count,) = self._conn.execute(
                "SELECT COUNT(*) FROM faults "
                "WHERE status IN ('done', 'quarantined')"
            ).fetchone()
            return count


def stored_records(
    store: FaultStore, spec: CampaignSpec
) -> tuple[list[InjectionRecord], list[QuarantineRecord]]:
    """One campaign's terminal rows as (injections, quarantines).

    Every row in the campaign's identity base and index limits -
    including rows another campaign on the same pool finished (the
    dedup) - in component order, then fault-index order: the order a
    serial ``jobs=1`` run records them in.
    """
    base = identity_base(spec)
    injections: list[InjectionRecord] = []
    quarantines: list[QuarantineRecord] = []
    for component in spec.component_list():
        for record in store.records(
            base, component.name, spec.faults_per_component
        ):
            if isinstance(record, QuarantineRecord):
                quarantines.append(record)
            else:
                injections.append(record)
    return injections, quarantines
