"""Lightweight taint probes over the microarchitectural components.

Each probe watches the cells a fault flipped and reports the *first*
interesting thing the machine does with them - read, overwrite, evict,
writeback - as :mod:`repro.observability.events` events.  The probes are
strictly observational: they never change machine state, timing, or
control flow, which is what keeps injected-run classifications
bit-identical with probes on or off (the observability equivalence suite
pins this).

The hook seams live in the components themselves (``Cache.probe``,
``TLB.probe``, ``MainMemory.probe`` attributes, default ``None``, plus
:meth:`PhysRegFile.wrap_regs`); each hook site is a single
``is not None`` check, so an unprobed machine pays almost nothing.

The basic-block translator (:mod:`repro.microarch.translate`) honours
the same seams, splitting them by kind.  *Fetch-side* probes (L1I,
ITLB) and wrapped register lists (``type(rf.int_regs) is not list``,
the :class:`RegfileTaintProbe` mechanism) force interpretation: the
dispatcher short-circuits while they are armed, because entry guards
read ITLB entries and L1I lines directly and blocks keep registers in
locals the wrapper would never see.  The regfile probe uninstalls at
the first read of a tainted register, and flips into registers no
instruction of the image reads are dead at the flip and never arm it,
so a probed run interprets only until its fault is first used.
*Data-side* probes (DTLB, L1D - and transitively L2/memory, whose
notifications only fire from interpreter fallbacks) are compatible with
translation: blocks compiled while they are armed replay every
``on_lookup`` / ``on_read`` / ``on_write`` notification inline,
flushing ``core.cycle`` first so probe events carry the exact access
cycle, bit-identical to the interpreter's.  Probe-free blocks refuse
via their entry guards while data-side probes are armed, the dispatcher
compiles a replaying variant in their place, and self-removing probes
hand execution straight back to the ordinary fast variants once they
uninstall.

Writeback taint travels *down* the hierarchy through a shared
``inflight`` set of tainted physical byte addresses: when a dirty tainted
line is evicted, its tainted bytes are marked in flight, and the level
below (or main memory) re-registers them as tainted when the writeback's
write arrives.  The simulator is single-threaded and writebacks are
synchronous, so the handoff cannot race.
"""

from __future__ import annotations

from repro.injection.components import Component
from repro.microarch.tlb import PERM_FIELD
from repro.microarch.regfile import FP_REG_BITS, INT_REG_BITS
from repro.observability.events import (
    EV_EVICT,
    EV_READ,
    EV_WRITE_OVER,
    EV_WRITEBACK,
    FaultLifetime,
)


class CacheTaintProbe:
    """Track tainted bytes of cache lines through reads/evictions/fills."""

    def __init__(self, lifetime: FaultLifetime, inflight: set):
        self.lifetime = lifetime
        self.inflight = inflight
        #: Tainted bytes per line object: ``{CacheLine: {byte offsets}}``.
        self.cells: dict = {}

    def taint_bit(self, cache, bit_index: int) -> None:
        set_index, way, byte, _bit = cache.locate_bit(bit_index)
        line = cache.sets[set_index][way]
        self.cells.setdefault(line, set()).add(byte)

    # -- hook methods (called from the cache's guarded hook sites) -----------

    def on_read(self, cache, line, paddr: int, size: int) -> None:
        offsets = self.cells.get(line)
        if not offsets:
            return
        offset = paddr & cache._offset_mask
        end = offset + size
        if any(offset <= byte < end for byte in offsets):
            self.lifetime.event(EV_READ, cache.name)

    def on_write(self, cache, line, paddr: int, size: int) -> None:
        base = paddr & ~cache._offset_mask
        offset = paddr - base
        arriving = set()
        inflight = self.inflight
        if inflight:
            for addr in range(paddr, paddr + size):
                if addr in inflight:
                    arriving.add(addr - base)
            inflight.difference_update(base + byte for byte in arriving)
        offsets = self.cells.get(line)
        if offsets:
            end = offset + size
            clobbered = {
                byte
                for byte in offsets
                if offset <= byte < end and byte not in arriving
            }
            if clobbered:
                offsets.difference_update(clobbered)
                self.lifetime.event(EV_WRITE_OVER, cache.name)
                if not offsets:
                    del self.cells[line]
        if arriving:
            # A tainted writeback from the level above landed in this line:
            # the taint now lives here, it was not overwritten.
            self.cells.setdefault(line, set()).update(arriving)

    def on_fill(self, cache, victim, _paddr: int) -> None:
        """A miss is about to refill ``victim``, replacing its payload."""
        offsets = self.cells.pop(victim, None)
        if offsets is None:
            return
        if victim.valid:
            if victim.dirty:
                base = victim.tag << cache._offset_bits
                self.lifetime.event(EV_WRITEBACK, cache.name)
                self.inflight.update(base + byte for byte in offsets)
            self.lifetime.event(EV_EVICT, cache.name)
        else:
            # Refill of an invalid-but-tainted line: the flip is erased
            # without ever having been observable.
            self.lifetime.event(EV_WRITE_OVER, f"{cache.name} fill")

    def on_flush(self, cache) -> None:
        for line in [line for line in self.cells if line.valid]:
            offsets = self.cells.pop(line)
            if line.dirty:
                base = line.tag << cache._offset_bits
                self.lifetime.event(EV_WRITEBACK, cache.name)
                self.inflight.update(base + byte for byte in offsets)
            self.lifetime.event(EV_EVICT, cache.name)
        # Invalid tainted lines stay tracked: their only future event is
        # the write-over when a fill eventually reuses them.


class TLBTaintProbe:
    """Track tainted TLB entries through lookups, refills, and flushes."""

    def __init__(self, lifetime: FaultLifetime):
        self.lifetime = lifetime
        self.entries: set = set()

    def taint_bit(self, tlb, bit_index: int) -> None:
        entry_bits = tlb.geometry.entry_bits
        bit = bit_index % entry_bits
        if bit < PERM_FIELD.stop:
            # Flips beyond the modeled fields change no machine state.
            self.entries.add(tlb.entries[bit_index // entry_bits])

    def on_lookup(self, tlb, entry) -> None:
        if entry in self.entries:
            self.lifetime.event(EV_READ, tlb.name)

    def on_fill(self, tlb, victim) -> None:
        if victim in self.entries:
            self.entries.discard(victim)
            self.lifetime.event(EV_WRITE_OVER, tlb.name)

    def on_flush(self, tlb) -> None:
        for entry in [entry for entry in self.entries if entry.valid]:
            self.entries.discard(entry)
            self.lifetime.event(EV_EVICT, tlb.name)


class MemoryTaintProbe:
    """Track tainted main-memory bytes (reached only via writebacks)."""

    def __init__(self, lifetime: FaultLifetime, inflight: set):
        self.lifetime = lifetime
        self.inflight = inflight
        #: Absolute tainted physical byte addresses.
        self.cells: set = set()

    def on_read_block(self, _memory, paddr: int, size: int) -> None:
        cells = self.cells
        if cells and any(addr in cells for addr in range(paddr, paddr + size)):
            self.lifetime.event(EV_READ, "memory")

    def on_write_block(self, _memory, paddr: int, size: int) -> None:
        span = range(paddr, paddr + size)
        inflight = self.inflight
        arriving = set()
        if inflight:
            arriving = {addr for addr in span if addr in inflight}
            inflight.difference_update(arriving)
        cells = self.cells
        if cells:
            clobbered = {
                addr for addr in span if addr in cells and addr not in arriving
            }
            if clobbered:
                cells.difference_update(clobbered)
                self.lifetime.event(EV_WRITE_OVER, "memory")
        if arriving:
            cells.update(arriving)


class _ProbedRegs(list):
    """Register list that reports accesses to tainted slots.

    Only plain integer indexing is intercepted: slices (snapshot restore)
    and iteration (digests, snapshot capture) go through the native list
    machinery and therefore never produce events - exactly the accesses
    that are *about* the registers rather than *by* the program.
    """

    __slots__ = ("probe", "kind", "tainted")

    def __getitem__(self, index):
        value = list.__getitem__(self, index)
        if type(index) is int and index in self.tainted:
            self.probe.on_read(self.kind, index)
        return value

    def __setitem__(self, index, value):
        # Native write FIRST: reporting the overwrite may uninstall the
        # probe, which snapshots this wrapper back into a plain list - a
        # write still pending at that point would land on the discarded
        # wrapper and silently vanish from the register file.
        list.__setitem__(self, index, value)
        if type(index) is int and index in self.tainted:
            self.probe.on_write_over(self.kind, index)


class RegfileTaintProbe:
    """Track tainted physical registers via transparent list wrappers.

    The register file is the hottest structure in the interpreter, so the
    probe removes itself as soon as it has nothing left to learn: after
    the first read of a tainted register (the mechanism question is
    answered) or once every tainted register has been overwritten.  Stale
    wrapper references held in already-running handlers keep working -
    their shared taint sets are emptied, so they just stop reporting.
    """

    def __init__(self, lifetime: FaultLifetime, rf):
        self.lifetime = lifetime
        self.rf = rf
        self.int_tainted: set = set()
        self.fp_tainted: set = set()
        self.installed = False

    def taint_bit(self, bit_index: int) -> None:
        int_bits = self.rf.n_int * INT_REG_BITS
        if bit_index < int_bits:
            self.int_tainted.add(bit_index // INT_REG_BITS)
        else:
            self.fp_tainted.add((bit_index - int_bits) // FP_REG_BITS)

    def install(self) -> None:
        tainted = {"int": self.int_tainted, "fp": self.fp_tainted}

        def wrap(kind, values):
            probed = _ProbedRegs(values)
            probed.probe = self
            probed.kind = kind
            probed.tainted = tainted[kind]
            return probed

        self.rf.wrap_regs(wrap)
        self.installed = True

    def uninstall(self) -> None:
        if not self.installed:
            return
        self.installed = False
        self.int_tainted.clear()
        self.fp_tainted.clear()
        self.rf.unwrap_regs()

    # -- wrapper callbacks ----------------------------------------------------

    def on_read(self, _kind: str, _index: int) -> None:
        self.lifetime.event(EV_READ, "regfile")
        self.uninstall()

    def on_write_over(self, kind: str, index: int) -> None:
        tainted = self.int_tainted if kind == "int" else self.fp_tainted
        tainted.discard(index)
        self.lifetime.event(EV_WRITE_OVER, "regfile")
        if not self.int_tainted and not self.fp_tainted:
            self.uninstall()


def install_taint(system, component: Component, bits, lifetime: FaultLifetime):
    """Arm taint probes for ``bits`` flipped into ``component``.

    Must be called *after* the flips (so the flips themselves produce no
    events).  Returns an idempotent ``uninstall()`` callable that detaches
    every probe; callers run it in a ``finally`` so a shared
    :class:`~repro.injection.parallel.ImageInjector` machine never leaks
    probes between faults.
    """
    if component is Component.REGFILE:
        probe = RegfileTaintProbe(lifetime, system.rf)
        for bit in bits:
            probe.taint_bit(bit)
        probe.install()
        return probe.uninstall

    if component in (Component.DTLB, Component.ITLB):
        tlb = system.dtlb if component is Component.DTLB else system.itlb
        probe = TLBTaintProbe(lifetime)
        for bit in bits:
            probe.taint_bit(tlb, bit)
        tlb.probe = probe

        def uninstall() -> None:
            tlb.probe = None

        return uninstall

    # Cache fault: probe the target cache, every cache level below it
    # (so a written-back taint stays visible), and main memory.
    chain = {
        Component.L2: [system.l2],
        Component.L1D: [system.l1d, system.l2],
        Component.L1I: [system.l1i, system.l2],
    }[component]
    inflight: set = set()
    target_probe = CacheTaintProbe(lifetime, inflight)
    for bit in bits:
        target_probe.taint_bit(chain[0], bit)
    chain[0].probe = target_probe
    for cache in chain[1:]:
        cache.probe = CacheTaintProbe(lifetime, inflight)
    memory_probe = MemoryTaintProbe(lifetime, inflight)
    system.memory.probe = memory_probe

    def uninstall() -> None:
        for cache in chain:
            cache.probe = None
        system.memory.probe = None

    return uninstall
