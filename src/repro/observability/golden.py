"""Golden-run activity observables for learned fault sampling.

The learned sampler (:mod:`repro.injection.learned`) predicts P(Masked)
for a fault *before* injecting it, from features that are knowable ahead
of time: where the fault lands and what the golden run was doing with
that cell.  This module captures the "what the golden run was doing"
half during the same single golden capture run that already records
checkpoints and digests (:func:`repro.injection.campaign.record_golden_observables`):

- **residency sweeps**: at a sparse grid of cycles, one valid-bit bitmap
  per cache/TLB (was unit *u* holding live data at cycle *c*?);
- **read activity**: via the same observation-only probe seam the taint
  layer uses (``cache.probe`` / ``tlb.probe``), a per-unit bitmap of the
  time buckets in which the golden run read that cache line or hit that
  TLB entry.

A "unit" is the natural strike container of a component: a cache line
for caches, an entry for TLBs.  Both structures are integer bitmaps, so
a full activity capture costs a few kilobytes and pickles with the
machine image.

Everything here is observation-only: the recorder never mutates machine
state, mirroring the taint-probe precedent, so attaching it to the
golden capture run cannot change any campaign result.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

#: Time buckets the read bitmaps divide the golden run into.
DEFAULT_BUCKETS = 64

#: Residency sweep points over the golden run (plus one near the end).
DEFAULT_GRID_POINTS = 16


@dataclass
class GoldenActivity:
    """What the golden run did with each cache line / TLB entry.

    ``residency[name][i]`` is a bitmask over units (bit *u* set = unit
    *u* valid) captured at ``grid[i]``; ``reads[name][u]`` is a bitmask
    over the ``buckets`` time buckets in which unit *u* was read (cache)
    or hit (TLB).  Components the recorder was not attached to are
    simply absent - queries answer ``None`` ("unknown"), and the feature
    extractor degrades to its default features.
    """

    golden_cycles: int
    buckets: int = DEFAULT_BUCKETS
    grid: tuple[int, ...] = ()
    residency: dict[str, list[int]] = field(default_factory=dict)
    reads: dict[str, dict[int, int]] = field(default_factory=dict)

    def bucket_of(self, cycle: int) -> int:
        """Map a cycle onto its time bucket (clamped to the run)."""
        if cycle <= 0:
            return 0
        span = max(1, self.golden_cycles)
        return min(self.buckets - 1, cycle * self.buckets // span)

    def resident(self, component: str, unit: int, cycle: int) -> bool | None:
        """Was ``unit`` valid at the last sweep at or before ``cycle``?

        ``None`` when unknown: the component was never swept, or the
        cycle precedes the first sweep point.
        """
        masks = self.residency.get(component)
        if not masks or not self.grid:
            return None
        index = bisect_right(self.grid, cycle) - 1
        if index < 0:
            return None
        return bool(masks[index] >> unit & 1)

    def next_read_gap(self, component: str, unit: int, cycle: int) -> int | None:
        """Buckets from ``cycle``'s bucket to the next golden read of ``unit``.

        0 means the golden run reads the unit within the same bucket the
        fault strikes in; ``None`` means the unit is never read again
        (within the observed prefix) - the classic never-read masking
        candidate.
        """
        units = self.reads.get(component)
        if units is None:
            return None
        future = units.get(unit, 0) >> self.bucket_of(cycle)
        if future == 0:
            return None
        return (future & -future).bit_length() - 1


def activity_grid(golden_cycles: int, points: int = DEFAULT_GRID_POINTS) -> list[int]:
    """Residency sweep cycles: an even grid plus one near program exit.

    The trailing point extends read/residency coverage to (almost) the
    full golden duration - without it, activity in the last grid step of
    the run would be invisible and "never read" would be overstated.
    """
    if points <= 0 or golden_cycles <= 0:
        return []
    step = max(1, golden_cycles // (points + 1))
    cycles = {step * (index + 1) for index in range(points)}
    cycles.add(max(1, golden_cycles - 1))
    return sorted(cycles)


class ActivityRecorder:
    """Observation-only probe recording golden cache/TLB activity.

    Attach to a freshly built system *before* the golden capture run,
    register :meth:`sweep` at the :func:`activity_grid` cycles, then
    call :meth:`finish` to detach the probes and collect the
    :class:`GoldenActivity`.  Implements the full cache *and* TLB probe
    protocols (the fill hooks differ in arity between the two, hence the
    permissive signatures); every hook except read/lookup is a no-op.
    """

    def __init__(self, system, golden_cycles: int, buckets: int = DEFAULT_BUCKETS):
        self.system = system
        self.golden_cycles = max(1, golden_cycles)
        self.buckets = buckets
        self.grid: list[int] = []
        self.residency: dict[str, list[int]] = {}
        self.reads: dict[str, dict[int, int]] = {}
        self._units: dict[int, tuple[str, int]] = {}
        self._caches = [system.l1d, system.l1i, system.l2]
        self._tlbs = [system.itlb, system.dtlb]

    def attach(self) -> "ActivityRecorder":
        """Install this recorder as every cache's and TLB's probe."""
        for cache in self._caches:
            self.reads.setdefault(cache.name, {})
            self.residency.setdefault(cache.name, [])
            for set_index, ways in enumerate(cache.sets):
                for way, line in enumerate(ways):
                    # Unit = line index, consistent with the injector's
                    # bit -> line mapping (line = set * assoc + way).
                    self._units[id(line)] = (
                        cache.name, set_index * len(ways) + way
                    )
            cache.probe = self
        for tlb in self._tlbs:
            self.reads.setdefault(tlb.name, {})
            self.residency.setdefault(tlb.name, [])
            for index, entry in enumerate(tlb.entries):
                self._units[id(entry)] = (tlb.name, index)
            tlb.probe = self
        return self

    # -- probe protocol (cache + TLB) ---------------------------------------

    def on_read(self, cache, line, paddr, size) -> None:
        """Cache hook: stamp the line's unit in the current time bucket."""
        self._mark(id(line))

    def on_lookup(self, tlb, entry) -> None:
        """TLB hook: stamp the entry's unit in the current time bucket."""
        self._mark(id(entry))

    def on_fill(self, owner, victim, paddr=None) -> None:
        """Fills overwrite state; not a read (no-op)."""

    def on_write(self, cache, line, paddr, size) -> None:
        """Writes overwrite state; not a read (no-op)."""

    def on_flush(self, owner) -> None:
        """Flush observation is residency's job, via the sweeps (no-op)."""

    def _mark(self, key: int) -> None:
        located = self._units.get(key)
        if located is None:  # pragma: no cover - unmapped unit
            return
        name, unit = located
        cycle = self.system.core.cycle
        span = self.golden_cycles
        bucket = min(self.buckets - 1, max(0, cycle) * self.buckets // span)
        units = self.reads[name]
        units[unit] = units.get(unit, 0) | (1 << bucket)

    # -- residency sweeps ----------------------------------------------------

    def sweep(self) -> None:
        """Capture one valid-bit bitmap per component (a grid callback)."""
        self.grid.append(self.system.core.cycle)
        for cache in self._caches:
            mask = 0
            for set_index, ways in enumerate(cache.sets):
                for way, line in enumerate(ways):
                    if line.valid:
                        mask |= 1 << (set_index * len(ways) + way)
            self.residency[cache.name].append(mask)
        for tlb in self._tlbs:
            mask = 0
            for index, entry in enumerate(tlb.entries):
                if entry.valid:
                    mask |= 1 << index
            self.residency[tlb.name].append(mask)

    def detach(self) -> None:
        """Remove every probe: reads after this are not recorded."""
        for cache in self._caches:
            cache.probe = None
        for tlb in self._tlbs:
            tlb.probe = None

    def finish(self) -> GoldenActivity:
        """Detach every probe and return the collected activity."""
        self.detach()
        return GoldenActivity(
            golden_cycles=self.golden_cycles,
            buckets=self.buckets,
            grid=tuple(self.grid),
            residency=self.residency,
            reads=self.reads,
        )
