"""Per-layer microbenches: what one state digest and one restore cost.

Both run on StringSearch's golden checkpoints (the default
:data:`~repro.injection.campaign.CHECKPOINT_COUNT` of them) on the scaled
machine and record seconds per call in ``extra_info``:

- ``test_digest_cost``: :func:`~repro.microarch.digest.system_digest` on
  a plain machine (every memory page re-hashed), the same with
  :meth:`~repro.microarch.memory.MainMemory.enable_digest_cache` armed
  and its page memo warm (what a probe pays between two probes that
  wrote no memory), and :func:`~repro.microarch.digest.arch_digest`.
  Envelope: ``results/BENCH_test_digest_cost.json``.
- ``test_restore_cost``: :meth:`SystemSnapshot.restore` (full
  compare-and-skip sweep) and :meth:`DeltaRestorer.restore`
  (copy-on-write pages), visiting the checkpoints forward then backward
  with a short run from each restored state (untimed), so every restore
  undoes a real divergence as a campaign's restores do.
  Envelope: ``results/BENCH_test_restore_cost.json``.

These are envelopes, not gates: the asserts check only that every
measured call ran and that the measured paths agree with each other.
"""

from __future__ import annotations

import time

import pytest

from repro.injection.campaign import record_golden_observables, run_golden
from repro.microarch.config import SCALED_A9_CONFIG
from repro.microarch.digest import arch_digest, system_digest
from repro.microarch.snapshot import DeltaRestorer
from repro.microarch.system import System
from repro.workloads import get_workload

#: Timed calls per checkpoint and measured path.
REPEAT = 10
#: Forward-and-back passes over the checkpoints in the restore bench.
RESTORE_PASSES = 3
#: Cycles run from each restored state before the next restore.
RUN_CYCLES = 3000


@pytest.fixture(scope="module")
def checkpoints():
    workload = get_workload("StringSearch")
    golden = run_golden(workload, SCALED_A9_CONFIG)
    snapshots = record_golden_observables(
        workload, SCALED_A9_CONFIG, golden, digest_count=0
    )[0]
    return workload.program(SCALED_A9_CONFIG.layout), snapshots


def _timed(totals: dict, calls: dict, name: str, fn):
    start = time.perf_counter()
    value = fn()
    totals[name] = totals.get(name, 0.0) + time.perf_counter() - start
    calls[name] = calls.get(name, 0) + 1
    return value


def _record(benchmark, totals: dict, calls: dict) -> None:
    for name, seconds in totals.items():
        benchmark.extra_info[f"{name}_us"] = round(seconds / calls[name] * 1e6, 1)
        benchmark.extra_info[f"{name}_calls"] = calls[name]


def test_digest_cost(benchmark, checkpoints):
    program, snapshots = checkpoints
    plain = System(program, config=SCALED_A9_CONFIG)
    cached = System(program, config=SCALED_A9_CONFIG)
    cached.memory.enable_digest_cache()
    totals: dict = {}
    calls: dict = {}

    def sweep() -> None:
        for snapshot in snapshots:
            snapshot.restore(plain)
            snapshot.restore(cached)
            system_digest(cached)  # re-hash the pages the restore rewrote
            for _ in range(REPEAT):
                full = _timed(
                    totals, calls, "system_digest", lambda: system_digest(plain)
                )
                memo = _timed(
                    totals,
                    calls,
                    "system_digest_cached",
                    lambda: system_digest(cached),
                )
                _timed(totals, calls, "arch_digest", lambda: arch_digest(plain))
                assert full == memo

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    _record(benchmark, totals, calls)
    assert calls and all(count > 0 for count in calls.values())


def test_restore_cost(benchmark, checkpoints):
    program, snapshots = checkpoints
    full = System(program, config=SCALED_A9_CONFIG)
    delta = System(program, config=SCALED_A9_CONFIG)
    restorer = DeltaRestorer(delta)
    totals: dict = {}
    calls: dict = {}

    def sweep() -> None:
        for _ in range(RESTORE_PASSES):
            for snapshot in snapshots + snapshots[::-1]:
                _timed(
                    totals, calls, "snapshot_restore",
                    lambda: snapshot.restore(full),
                )
                _timed(
                    totals, calls, "delta_restore",
                    lambda: restorer.restore(snapshot),
                )
                assert system_digest(full) == system_digest(delta)
                for system in (full, delta):
                    system.run(max_cycles=snapshot.cycle + RUN_CYCLES)

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    _record(benchmark, totals, calls)
    assert calls and all(count > 0 for count in calls.values())
