"""Full-machine snapshots for checkpoint-accelerated fault injection.

An injected run is bit-identical to the fault-free run up to the injection
cycle, so re-executing that prefix for every experiment is pure waste.  The
campaign records snapshots at regular points of the *golden* run; each
injection then restores the latest snapshot at or before its injection
cycle and simulates only from there.  This is the same observation behind
MeRLiN's acceleration of microarchitectural injection campaigns
(Kaliorakis et al., ISCA 2017), reduced to its checkpointing core.

A snapshot captures every part's declared mutable state
(:mod:`repro.microarch.state`), part by part in ``System.PARTS`` order.
"""

from __future__ import annotations

from repro.microarch.memory import PAGE_SHIFT, PAGE_SIZE
from repro.microarch.system import System


class SystemSnapshot:
    """A point-in-time copy of every mutable piece of a :class:`System`."""

    def __init__(self, system: System):
        self.cycle = system.core.cycle
        memory = system.memory
        self._memory = memory.STATE.capture(memory)
        self._parts = {}
        for name in System.PARTS[1:]:
            part = getattr(system, name)
            self._parts[name] = part.STATE.capture(part)

    def restore(self, system: System) -> None:
        """Overwrite ``system``'s state with this snapshot.

        The target must have been built with the same configuration and
        programs (the campaign always restores into a machine loaded
        identically to the snapshot's source).  Memory is restored with a
        compare-and-skip sweep, byte-identical to a blind full copy.
        """
        memory = system.memory
        memory.STATE.restore(memory, self._memory)
        self.restore_non_memory(system)

    def restore_non_memory(self, system: System) -> None:
        """Restore everything except main memory (see :class:`DeltaRestorer`)."""
        for name, state in self._parts.items():
            part = getattr(system, name)
            part.STATE.restore(part, state)


class DeltaRestorer:
    """Copy-on-write snapshot restore for one exclusively-owned machine.

    A campaign worker restores a checkpoint before *every* injection, and
    between two restores an injected run dirties only a handful of memory
    pages (main memory changes exclusively through cache write-backs and
    loader pokes, both tracked by ``MainMemory.dirty_pages``).  Instead of
    sweeping the whole address space per restore, this engine rewrites

    - the pages the last run dirtied, and
    - when switching between checkpoints, the pages on which the two
      snapshots differ (computed once per snapshot pair, then memoized -
      a campaign cycles through at most a few checkpoints plus the
      pristine boot image).

    Everything outside main memory (caches, TLBs, registers, core, CSRs,
    devices) is delegated to :meth:`SystemSnapshot.restore_non_memory`,
    which is where injected flips land and which is cheap to sweep.

    The restorer must be the *only* path that writes this system's memory
    between restores; mixing it with direct :meth:`SystemSnapshot.restore`
    calls on the same system would invalidate its notion of the last
    restored state.  The injector therefore routes every restore (pristine
    and checkpoint alike) through one instance.
    """

    def __init__(self, system: System):
        self.system = system
        self._last: SystemSnapshot | None = None
        #: Differing-page sets memoized per (from, to) snapshot identity.
        self._page_diffs: dict[tuple[int, int], frozenset[int]] = {}

    def restore(self, snapshot: SystemSnapshot) -> None:
        """Make ``system`` bit-identical to ``snapshot`` (memory included)."""
        memory = self.system.memory
        last = self._last
        if last is None:
            memory.STATE.restore(memory, snapshot._memory)
        else:
            data = memory.data
            (captured,) = snapshot._memory
            dirty = memory.dirty_pages
            hashes = memory._page_hashes
            pages = (
                dirty
                if last is snapshot
                else dirty | self._pages_between(last, snapshot)
            )
            for page in pages:
                offset = page << PAGE_SHIFT
                end = offset + PAGE_SIZE
                chunk = captured[offset:end]
                if data[offset:end] != chunk:
                    data[offset:end] = chunk
                    if hashes is not None:
                        hashes[page] = None
            dirty.clear()
        self._last = snapshot
        snapshot.restore_non_memory(self.system)

    def _pages_between(
        self, a: SystemSnapshot, b: SystemSnapshot
    ) -> frozenset[int]:
        key = (id(a), id(b))
        diff = self._page_diffs.get(key)
        if diff is None:
            (memory_a,), (memory_b,) = a._memory, b._memory
            if memory_a == memory_b:
                diff = frozenset()
            else:
                pages = (len(memory_b) + PAGE_SIZE - 1) >> PAGE_SHIFT
                diff = frozenset(
                    page
                    for page in range(pages)
                    if memory_a[page << PAGE_SHIFT : (page + 1) << PAGE_SHIFT]
                    != memory_b[page << PAGE_SHIFT : (page + 1) << PAGE_SHIFT]
                )
            self._page_diffs[key] = diff
        return diff


def best_snapshot(
    snapshots: list[SystemSnapshot], cycle: int
) -> SystemSnapshot | None:
    """Latest snapshot at or before ``cycle`` (None if all are later).

    ``snapshots`` must be in cycle order, as
    :func:`~repro.injection.campaign.record_golden_observables` returns
    them.  This runs once per injection on the campaign hot path,
    so it bisects instead of scanning.
    """
    lo, hi = 0, len(snapshots)
    while lo < hi:
        mid = (lo + hi) // 2
        if snapshots[mid].cycle <= cycle:
            lo = mid + 1
        else:
            hi = mid
    return snapshots[lo - 1] if lo else None
