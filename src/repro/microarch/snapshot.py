"""Full-machine snapshots for checkpoint-accelerated fault injection.

An injected run is bit-identical to the fault-free run up to the injection
cycle, so re-executing that prefix for every experiment is pure waste.  The
campaign records snapshots at regular points of the *golden* run; each
injection then restores the latest snapshot at or before its injection
cycle and simulates only from there.  This is the same observation behind
MeRLiN's acceleration of microarchitectural injection campaigns
(Kaliorakis et al., ISCA 2017), reduced to its checkpointing core.

A snapshot captures *all* mutable machine state: memory, the three caches
(including tags/valid/dirty/LRU and the actual line payloads), both TLBs,
the physical register file, the core's architectural and bookkeeping
state, and the device block (console output, heartbeats, flags).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.microarch.cache import Cache
from repro.microarch.system import System
from repro.microarch.tlb import TLB


@dataclass
class _CacheState:
    lines: list[tuple[int, bool, bool, bytes, int]]
    clock: int
    accesses: int
    misses: int


@dataclass
class _TLBState:
    entries: list[tuple[int, int, int, bool, int]]
    clock: int
    version: int
    accesses: int
    misses: int


def _capture_cache(cache: Cache) -> _CacheState:
    lines = []
    for ways in cache.sets:
        for line in ways:
            lines.append(
                (line.tag, line.valid, line.dirty, bytes(line.data), line.stamp)
            )
    return _CacheState(
        lines=lines,
        clock=cache._clock,
        accesses=cache.accesses,
        misses=cache.misses,
    )


def _restore_cache(cache: Cache, state: _CacheState) -> None:
    index = 0
    lines = state.lines
    for ways in cache.sets:
        for line in ways:
            tag, valid, dirty, data, stamp = lines[index]
            index += 1
            # Most lines are unchanged between a checkpoint and the point
            # an injection diverged from it; five cheap comparisons (the
            # payload compare is a memcmp) beat five writes plus a 32-byte
            # copy per line on the campaign hot path.
            if (
                line.tag == tag
                and line.stamp == stamp
                and line.valid == valid
                and line.dirty == dirty
                and line.data == data
            ):
                continue
            line.tag = tag
            line.valid = valid
            line.dirty = dirty
            line.data[:] = data
            line.stamp = stamp
    cache._clock = state.clock
    cache.accesses = state.accesses
    cache.misses = state.misses


def _capture_tlb(tlb: TLB) -> _TLBState:
    return _TLBState(
        entries=[
            (entry.vpn, entry.ppn, entry.perms, entry.valid, entry.stamp)
            for entry in tlb.entries
        ],
        clock=tlb._clock,
        version=tlb.version,
        accesses=tlb.accesses,
        misses=tlb.misses,
    )


def _restore_tlb(tlb: TLB, state: _TLBState) -> None:
    tlb._map.clear()
    for entry, (vpn, ppn, perms, valid, stamp) in zip(tlb.entries, state.entries):
        entry.vpn = vpn
        entry.ppn = ppn
        entry.perms = perms
        entry.valid = valid
        entry.stamp = stamp
        if valid:
            tlb._map[vpn] = entry
    tlb._clock = state.clock
    tlb.version = state.version + 1  # force any derived state to refresh
    tlb.accesses = state.accesses
    tlb.misses = state.misses


#: Chunk size of the compare-and-skip memory sweep in
#: :meth:`SystemSnapshot.restore`.
_RESTORE_CHUNK = 1 << 16

#: Copy-on-write page granularity (matches the tracker in
#: :class:`~repro.microarch.memory.MainMemory`).
_PAGE_SHIFT = 12
_PAGE_SIZE = 1 << _PAGE_SHIFT


_CORE_FIELDS = (
    "pc",
    "mode",
    "cmp",
    "cycle",
    "current_pc",
    "icount",
    "branches",
    "branch_misses",
    "loads",
    "stores",
    "syscalls",
    "timer_irqs",
    "next_timer",
)


class SystemSnapshot:
    """A point-in-time copy of every mutable piece of a :class:`System`."""

    def __init__(self, system: System):
        self.cycle = system.core.cycle
        self._memory = bytes(system.memory.data)
        self._caches = {
            name: _capture_cache(getattr(system, name))
            for name in ("l1i", "l1d", "l2")
        }
        self._tlbs = {
            name: _capture_tlb(getattr(system, name)) for name in ("itlb", "dtlb")
        }
        rf = system.rf
        self._int_regs = list(rf.int_regs)
        self._fp_regs = list(rf.fp_regs)
        self._int_history = rf._int_history
        self._fp_history = rf._fp_history
        self._core = {name: getattr(system.core, name) for name in _CORE_FIELDS}
        self._csr = list(system.core.csr)
        devices = system._devices
        self._output = bytes(devices.output)
        self._alive = devices.alive_count
        self._sdc = devices.sdc_flag
        self._check_done = devices.check_done

    def restore(self, system: System) -> None:
        """Overwrite ``system``'s state with this snapshot.

        The target must have been built with the same configuration and
        programs (the campaign always restores into a machine loaded
        identically to the snapshot's source).

        Memory is restored with a compare-and-skip sweep: segments the run
        never wrote back to - kernel text, instruction pages, read-only
        data, untouched heap, i.e. almost the whole address space - are
        detected with chunked comparisons and never rewritten.  The result
        is byte-identical to a blind full copy (the restore-digest
        regression test pins this).
        """
        self._restore_memory(system.memory)
        self.restore_non_memory(system)

    def _restore_memory(self, memory) -> None:
        data = memory.data
        captured = self._memory
        hashes = memory._page_hashes
        if data != captured:
            chunk = _RESTORE_CHUNK
            for offset in range(0, len(captured), chunk):
                end = offset + chunk
                if data[offset:end] != captured[offset:end]:
                    data[offset:end] = captured[offset:end]
                    if hashes is not None:
                        written = min(end, len(captured))
                        for page in range(
                            offset >> _PAGE_SHIFT,
                            (written + _PAGE_SIZE - 1) >> _PAGE_SHIFT,
                        ):
                            hashes[page] = None
        # Memory now equals the capture exactly; restart write tracking
        # relative to this snapshot.
        memory.dirty_pages.clear()

    def restore_non_memory(self, system: System) -> None:
        """Restore everything except main memory (see :class:`DeltaRestorer`)."""
        for name, state in self._caches.items():
            _restore_cache(getattr(system, name), state)
        for name, state in self._tlbs.items():
            _restore_tlb(getattr(system, name), state)
        rf = system.rf
        rf.int_regs[:] = self._int_regs
        rf.fp_regs[:] = self._fp_regs
        rf._int_history = self._int_history
        rf._fp_history = self._fp_history
        for name, value in self._core.items():
            setattr(system.core, name, value)
        system.core.csr[:] = self._csr
        devices = system._devices
        devices.output[:] = self._output
        devices.alive_count = self._alive
        devices.sdc_flag = self._sdc
        devices.check_done = self._check_done


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
        data = memory.data
        captured = snapshot._memory
        dirty = memory.dirty_pages
        hashes = memory._page_hashes
        last = self._last
        if last is None:
            data[:] = captured
            if hashes is not None:
                hashes[:] = [None] * len(hashes)
        else:
            pages = (
                dirty
                if last is snapshot
                else dirty | self._pages_between(last, snapshot)
            )
            for page in pages:
                offset = page << _PAGE_SHIFT
                end = offset + _PAGE_SIZE
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
            memory_a, memory_b = a._memory, b._memory
            if memory_a == memory_b:
                diff = frozenset()
            else:
                pages = (len(memory_b) + _PAGE_SIZE - 1) >> _PAGE_SHIFT
                diff = frozenset(
                    page
                    for page in range(pages)
                    if memory_a[page << _PAGE_SHIFT : (page + 1) << _PAGE_SHIFT]
                    != memory_b[page << _PAGE_SHIFT : (page + 1) << _PAGE_SHIFT]
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
