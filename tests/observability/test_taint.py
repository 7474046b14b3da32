"""Taint probes per component: reads, overwrites, evictions, writebacks.

Each test builds the raw microarchitectural component, arms a probe on a
hand-placed taint, drives the component directly, and checks both the
emitted event sequence and that the component's own behaviour is
untouched (the regfile wrapper regression pins the latter).
"""

from __future__ import annotations

from repro.microarch.cache import Cache
from repro.microarch.config import SCALED_A9_CONFIG, CacheGeometry, TLBGeometry
from repro.microarch.memory import MainMemory
from repro.microarch.regfile import INT_REG_BITS, PhysRegFile
from repro.microarch.system import System
from repro.microarch.tlb import PERM_FIELD, PPN_FIELD, TLB
from repro.microarch.translate import attach_translator
from repro.observability.events import (
    EV_EVICT,
    EV_READ,
    EV_WRITE_OVER,
    EV_WRITEBACK,
    FaultLifetime,
)
from repro.observability.taint import (
    CacheTaintProbe,
    MemoryTaintProbe,
    RegfileTaintProbe,
    TLBTaintProbe,
)
from repro.workloads import get_workload


class FakeCore:
    def __init__(self):
        self.cycle = 0


def make_lifetime():
    return FaultLifetime(FakeCore())


def kinds(lifetime):
    return [event.kind for event in lifetime.events]


def taint_cache_byte(probe, cache, paddr):
    """Taint the byte holding ``paddr`` in its (valid) cache line."""
    set_index = (paddr >> cache._offset_bits) & cache._set_mask
    tag = paddr >> cache._offset_bits
    way = next(
        index
        for index, line in enumerate(cache.sets[set_index])
        if line.valid and line.tag == tag
    )
    byte = paddr & cache._offset_mask
    flat = ((set_index * cache.assoc + way) * cache.line_size + byte) * 8
    probe.taint_bit(cache, flat)


def make_hierarchy(assoc=2, size=256):
    memory = MainMemory(4096, latency=0)
    cache = Cache("l1d", CacheGeometry(size=size, assoc=assoc), memory)
    return cache, memory


class TestRegfileProbe:
    def test_read_of_tainted_register_reports_once_and_uninstalls(self):
        rf = PhysRegFile(24, 20)
        rf.write_int(5, 0x1234)
        lifetime = make_lifetime()
        probe = RegfileTaintProbe(lifetime, rf)
        probe.taint_bit(5 * INT_REG_BITS + 7)
        probe.install()
        assert rf.int_regs[3] == 0  # untainted register: silent
        assert kinds(lifetime) == []
        assert rf.int_regs[5] == 0x1234
        assert [e.to_payload()[::2] for e in lifetime.events] == [
            (EV_READ, "regfile")
        ]
        # The first read answers the mechanism question: the probe is gone.
        assert type(rf.int_regs) is list

    def test_overwrite_uninstalls_without_losing_the_written_value(self):
        """Regression: the wrapper must apply the write *before* reporting.

        Reporting first would let the auto-uninstall snapshot the wrapper
        back into a plain list while the write is still pending, silently
        dropping the value from the register file.
        """
        rf = PhysRegFile(24, 20)
        lifetime = make_lifetime()
        probe = RegfileTaintProbe(lifetime, rf)
        probe.taint_bit(5 * INT_REG_BITS)
        probe.install()
        rf.write_int(5, 0xDEADBEEF)
        assert kinds(lifetime) == [EV_WRITE_OVER]
        assert type(rf.int_regs) is list  # last tainted reg gone -> detached
        assert rf.int_regs[5] == 0xDEADBEEF

    def test_fp_registers_are_tracked_past_the_int_block(self):
        rf = PhysRegFile(24, 20)
        rf.write_fp(2, 3.5)
        lifetime = make_lifetime()
        probe = RegfileTaintProbe(lifetime, rf)
        int_bits = rf.n_int * INT_REG_BITS
        probe.taint_bit(int_bits + 2 * 64 + 3)
        probe.install()
        assert rf.fp_regs[1] == 0.0
        assert kinds(lifetime) == []
        assert rf.fp_regs[2] == 3.5
        assert kinds(lifetime) == [EV_READ]

    def test_slices_and_iteration_stay_silent(self):
        """Digest/snapshot-style access is *about* the registers, not by
        the program - it must neither report nor detach the probe."""
        rf = PhysRegFile(24, 20)
        lifetime = make_lifetime()
        probe = RegfileTaintProbe(lifetime, rf)
        probe.taint_bit(0)
        probe.install()
        list(rf.int_regs)
        rf.int_regs[:16]
        sum(rf.fp_regs)
        assert kinds(lifetime) == []
        assert probe.installed
        probe.uninstall()
        probe.uninstall()  # idempotent


class TestTLBProbe:
    def make_tlb(self, entries=4):
        return TLB("dtlb", TLBGeometry(entries=entries))

    def test_lookup_of_tainted_entry_is_a_read(self):
        tlb = self.make_tlb()
        entry = tlb.fill(0x10, 0x20, 0x7)
        index = tlb.entries.index(entry)
        lifetime = make_lifetime()
        probe = TLBTaintProbe(lifetime)
        probe.taint_bit(tlb, index * tlb.geometry.entry_bits + PPN_FIELD.start)
        tlb.probe = probe
        assert tlb.lookup(0x99) is None  # miss: silent
        assert kinds(lifetime) == []
        assert tlb.lookup(0x10) is entry
        assert [e.to_payload()[::2] for e in lifetime.events] == [
            (EV_READ, "dtlb")
        ]

    def test_refill_of_tainted_entry_is_write_over(self):
        tlb = self.make_tlb(entries=2)
        first = tlb.fill(0x1, 0x10, 0x7)
        tlb.fill(0x2, 0x20, 0x7)
        lifetime = make_lifetime()
        probe = TLBTaintProbe(lifetime)
        probe.taint_bit(tlb, tlb.entries.index(first) * tlb.geometry.entry_bits)
        tlb.probe = probe
        tlb.fill(0x3, 0x30, 0x7)  # evicts the LRU entry: ``first``
        assert kinds(lifetime) == [EV_WRITE_OVER]
        assert not probe.entries

    def test_flush_of_tainted_entry_is_evict(self):
        tlb = self.make_tlb()
        entry = tlb.fill(0x4, 0x40, 0x7)
        lifetime = make_lifetime()
        probe = TLBTaintProbe(lifetime)
        probe.taint_bit(tlb, tlb.entries.index(entry) * tlb.geometry.entry_bits)
        tlb.probe = probe
        tlb.flush()
        assert kinds(lifetime) == [EV_EVICT]
        assert not probe.entries

    def test_attribute_bits_never_taint(self):
        """Flips beyond the modeled fields are masked by construction."""
        tlb = self.make_tlb()
        entry = tlb.fill(0x5, 0x50, 0x7)
        lifetime = make_lifetime()
        probe = TLBTaintProbe(lifetime)
        index = tlb.entries.index(entry)
        probe.taint_bit(
            tlb, index * tlb.geometry.entry_bits + PERM_FIELD.stop
        )
        tlb.probe = probe
        assert not probe.entries
        tlb.lookup(0x5)
        assert kinds(lifetime) == []


class TestCacheProbe:
    def test_read_reports_only_spans_covering_the_taint(self):
        cache, _memory = make_hierarchy()
        cache.read(0x40, 4)
        lifetime = make_lifetime()
        probe = CacheTaintProbe(lifetime, set())
        cache.probe = probe
        taint_cache_byte(probe, cache, 0x42)
        cache.read(0x44, 4)  # same line, disjoint bytes
        assert kinds(lifetime) == []
        cache.read(0x40, 4)
        assert [e.to_payload()[::2] for e in lifetime.events] == [
            (EV_READ, "l1d")
        ]

    def test_write_over_clears_the_taint(self):
        cache, _memory = make_hierarchy()
        cache.read(0x40, 4)
        lifetime = make_lifetime()
        probe = CacheTaintProbe(lifetime, set())
        cache.probe = probe
        taint_cache_byte(probe, cache, 0x42)
        cache.write(0x40, b"\x00" * 8)
        assert kinds(lifetime) == [EV_WRITE_OVER]
        assert not probe.cells
        cache.read(0x40, 4)  # the taint is gone: no read event
        assert kinds(lifetime) == [EV_WRITE_OVER]

    def test_dirty_eviction_hands_taint_down_to_memory(self):
        cache, memory = make_hierarchy(assoc=1, size=64)
        lifetime = make_lifetime()
        inflight: set = set()
        memory_probe = MemoryTaintProbe(lifetime, inflight)
        memory.probe = memory_probe
        cache.write(0x00, b"\xaa" * 4)  # dirty line in set 0
        probe = CacheTaintProbe(lifetime, inflight)
        cache.probe = probe
        taint_cache_byte(probe, cache, 0x02)
        cache.read(0x40, 4)  # same set, assoc 1: evicts the dirty line
        assert kinds(lifetime) == [EV_WRITEBACK, EV_EVICT]
        assert not inflight  # the handoff landed...
        assert memory_probe.cells == {0x02}  # ...in main memory
        cache.read(0x00, 4)  # refill re-reads the corrupted memory
        assert kinds(lifetime) == [EV_WRITEBACK, EV_EVICT, EV_READ]
        assert lifetime.events[-1].detail == "memory"

    def test_clean_eviction_is_evict_only(self):
        cache, memory = make_hierarchy(assoc=1, size=64)
        lifetime = make_lifetime()
        inflight: set = set()
        memory.probe = MemoryTaintProbe(lifetime, inflight)
        cache.read(0x00, 4)  # clean line in set 0
        probe = CacheTaintProbe(lifetime, inflight)
        cache.probe = probe
        taint_cache_byte(probe, cache, 0x02)
        cache.read(0x40, 4)
        assert kinds(lifetime) == [EV_EVICT]
        assert not inflight and not memory.probe.cells

    def test_fill_of_invalid_tainted_line_is_write_over(self):
        cache, _memory = make_hierarchy(assoc=1, size=64)
        lifetime = make_lifetime()
        probe = CacheTaintProbe(lifetime, set())
        cache.probe = probe
        # Set 1 was never touched: its line is invalid but tainted.
        probe.taint_bit(cache, 1 * cache.line_size * 8)
        cache.read(0x20, 4)  # miss fills set 1, erasing the flip unseen
        assert [e.to_payload()[::2] for e in lifetime.events] == [
            (EV_WRITE_OVER, "l1d fill")
        ]

    def test_flush_writes_tainted_dirty_lines_back(self):
        cache, memory = make_hierarchy(assoc=1, size=64)
        lifetime = make_lifetime()
        inflight: set = set()
        memory_probe = MemoryTaintProbe(lifetime, inflight)
        memory.probe = memory_probe
        cache.write(0x00, b"\x01" * 4)
        probe = CacheTaintProbe(lifetime, inflight)
        cache.probe = probe
        taint_cache_byte(probe, cache, 0x02)
        cache.flush()
        assert kinds(lifetime) == [EV_WRITEBACK, EV_EVICT]
        assert memory_probe.cells == {0x02}


class TestMemoryProbe:
    def test_tainted_byte_read_and_clobbered(self):
        memory = MainMemory(128, latency=0)
        lifetime = make_lifetime()
        probe = MemoryTaintProbe(lifetime, set())
        probe.cells.add(5)
        memory.probe = probe
        memory.read_block(8, 4)  # disjoint span: silent
        assert kinds(lifetime) == []
        memory.read_block(4, 4)
        assert kinds(lifetime) == [EV_READ]
        memory.write_block(0, b"\x00" * 16)
        assert kinds(lifetime) == [EV_READ, EV_WRITE_OVER]
        assert not probe.cells


class TestRegfileProbeOnTheTranslator:
    """Wrapped register lists run on the interpreter alone: the translator
    runs no block while a regfile taint probe is armed, and takes over
    again once the probe uninstalls."""

    def test_no_block_runs_while_the_probe_is_armed(self):
        machine = SCALED_A9_CONFIG
        system = System(get_workload("CRC32").program(machine.layout), config=machine)
        translator = attach_translator(system)
        lifetime = FaultLifetime(system.core)
        marks = {}

        def arm():
            # r9 is next read about 14k instructions later.
            probe = RegfileTaintProbe(lifetime, system.rf)
            probe.taint_bit(9 * INT_REG_BITS)
            uninstall = probe.uninstall

            def recording_uninstall():
                if probe.installed:
                    marks["uninstall"] = (translator.block_runs, system.core.icount)
                uninstall()

            probe.uninstall = recording_uninstall
            probe.install()
            marks["install"] = (translator.block_runs, system.core.icount)

        result = system.run(max_cycles=10**8, events=[(150_000, arm)])
        assert result.exited_cleanly
        assert kinds(lifetime) == [EV_READ]
        runs_at_install, icount_at_install = marks["install"]
        runs_at_uninstall, icount_at_uninstall = marks["uninstall"]
        assert runs_at_install > 0
        assert icount_at_uninstall - icount_at_install > 1000
        assert runs_at_uninstall == runs_at_install
        assert translator.block_runs > runs_at_uninstall
