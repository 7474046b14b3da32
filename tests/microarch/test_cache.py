"""Cache model: hits/misses, LRU, write-back, injection, inspection."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InjectionError
from repro.microarch.cache import Cache
from repro.microarch.config import CacheGeometry
from repro.microarch.memory import MainMemory

GEOMETRY = CacheGeometry(size=1024, assoc=2, line_size=32, hit_latency=1)


@pytest.fixture
def memory():
    mem = MainMemory(64 * 1024, latency=10)
    mem.poke(0, bytes(range(256)) * 256)
    return mem


@pytest.fixture
def cache(memory):
    return Cache("T", GEOMETRY, memory)


class TestBasics:
    def test_miss_then_hit(self, cache):
        _data, latency = cache.read(0x100, 4)
        assert latency >= 10  # went to memory
        assert cache.misses == 1
        _data, latency = cache.read(0x104, 4)  # same line
        assert latency == GEOMETRY.hit_latency
        assert cache.misses == 1
        assert cache.accesses == 2

    def test_read_returns_memory_content(self, cache, memory):
        data, _ = cache.read(0x40, 8)
        assert data == memory.peek(0x40, 8)

    def test_write_allocate_and_read_back(self, cache):
        cache.write(0x200, b"\xde\xad\xbe\xef")
        data, _ = cache.read(0x200, 4)
        assert data == b"\xde\xad\xbe\xef"

    def test_write_back_is_lazy(self, cache, memory):
        original = memory.peek(0x200, 4)
        cache.write(0x200, b"\xde\xad\xbe\xef")
        assert memory.peek(0x200, 4) == original  # not written through

    def test_flush_writes_back_dirty_lines(self, cache, memory):
        cache.write(0x200, b"\xde\xad\xbe\xef")
        cache.flush()
        assert memory.peek(0x200, 4) == b"\xde\xad\xbe\xef"

    def test_dirty_eviction_writes_back(self, cache, memory):
        n_sets = GEOMETRY.n_sets
        line = GEOMETRY.line_size
        set_span = n_sets * line  # addresses mapping to the same set
        cache.write(0x0, b"\x11\x22\x33\x44")
        # Evict by touching assoc more lines in the same set.
        for way in range(1, GEOMETRY.assoc + 1):
            cache.read(way * set_span, 4)
        assert memory.peek(0, 4) == b"\x11\x22\x33\x44"

    def test_clean_eviction_discards_silently(self, cache, memory):
        original = memory.peek(0, 4)
        cache.read(0, 4)
        set_span = GEOMETRY.n_sets * GEOMETRY.line_size
        for way in range(1, GEOMETRY.assoc + 1):
            cache.read(way * set_span, 4)
        assert memory.peek(0, 4) == original

    def test_lru_victim_selection(self, cache):
        set_span = GEOMETRY.n_sets * GEOMETRY.line_size
        cache.read(0 * set_span, 4)      # way A
        cache.read(1 * set_span, 4)      # way B
        cache.read(0 * set_span, 4)      # A is now MRU
        cache.read(2 * set_span, 4)      # evicts B
        misses_before = cache.misses
        cache.read(0 * set_span, 4)      # A still resident
        assert cache.misses == misses_before
        cache.read(1 * set_span, 4)      # B was evicted
        assert cache.misses == misses_before + 1

    def test_invalidate_all(self, cache):
        cache.read(0, 4)
        cache.invalidate_all()
        assert cache.occupancy() == 0.0

    def test_occupancy(self, cache):
        assert cache.occupancy() == 0.0
        cache.read(0, 4)
        assert cache.occupancy() == pytest.approx(1 / GEOMETRY.n_lines)

    def test_prefill(self, cache):
        for paddr in range(0, GEOMETRY.size, GEOMETRY.line_size):
            cache.prefill(paddr)
        assert cache.occupancy() == 1.0


class TestPeek:
    def test_peek_sees_cached_dirty_data(self, cache):
        cache.write(0x80, b"\xaa\xbb")
        assert cache.peek(0x80, 2) == b"\xaa\xbb"

    def test_peek_falls_through_to_memory(self, cache, memory):
        assert cache.peek(0x300, 4) == memory.peek(0x300, 4)

    def test_peek_does_not_change_state(self, cache):
        cache.peek(0x300, 4)
        assert cache.accesses == 0
        assert cache.occupancy() == 0.0


class TestInjection:
    def test_data_bits(self, cache):
        assert cache.data_bits == GEOMETRY.size * 8

    def test_locate_bit_round_trip(self, cache):
        for bit_index in (0, 7, 8, 255, cache.data_bits - 1):
            set_index, way, byte, bit = cache.locate_bit(bit_index)
            assert 0 <= set_index < GEOMETRY.n_sets
            assert 0 <= way < GEOMETRY.assoc
            assert 0 <= byte < GEOMETRY.line_size
            assert 0 <= bit < 8

    def test_locate_bit_out_of_range(self, cache):
        with pytest.raises(InjectionError):
            cache.locate_bit(cache.data_bits)
        with pytest.raises(InjectionError):
            cache.locate_bit(-1)

    def test_flip_bit_on_invalid_line_returns_false(self, cache):
        assert cache.flip_bit(0) is False

    def test_flip_bit_corrupts_subsequent_read(self, cache):
        cache.write(0x0, bytes([0x00] * 4))
        # Find the bit index of the line now holding address 0.
        for bit_index in range(cache.data_bits):
            line = cache.line_at(bit_index)
            if line.valid and line.tag == 0:
                break
        assert cache.flip_bit(bit_index) is True
        data, _ = cache.read(0, 4)
        assert data != bytes(4) or bit_index >= 32  # flipped inside the word

    def test_double_flip_restores(self, cache):
        cache.write(0x0, b"\x12\x34\x56\x78")
        cache.flip_bit(5)
        cache.flip_bit(5)
        data, _ = cache.read(0, 4)
        assert data == b"\x12\x34\x56\x78"

    @staticmethod
    def _cluster_dead(cache, bit_index, cluster_size):
        population = cache.data_bits
        return not any(
            cache.observable((bit_index + offset) % population)
            for offset in range(cluster_size)
        )

    def test_cluster_dead_all_invalid(self, cache):
        """A cold cache is all invalid lines: every cluster is dead."""
        assert self._cluster_dead(cache, 0, 1)
        assert self._cluster_dead(cache, 0, 4)
        assert self._cluster_dead(cache, cache.data_bits - 1, 2)  # wraps

    def test_cluster_dead_false_on_valid_line(self, cache):
        cache.read(0x100, 4)
        bit = next(
            index for index in range(cache.data_bits)
            if cache.line_at(index).valid
        )
        assert cache.observable(bit)
        assert not self._cluster_dead(cache, bit, 1)

    def test_cluster_straddling_valid_line_is_live(self, cache):
        """A cluster is dead only if EVERY bit lands in an invalid line.

        Regression for the multi-bit fault model: lines 0 (set 0, way 0)
        and 1 (set 0, way 1) are adjacent in flat bit order; with line 0
        invalid and line 1 valid, a cluster starting on line 0's last bit
        straddles into the valid line and must stay live.
        """
        line_bits = GEOMETRY.line_size * 8
        cache.sets[0][1].valid = True  # line index 1 in flat bit order
        assert self._cluster_dead(cache, line_bits - 1, 1)  # alone: dead
        assert not self._cluster_dead(cache, line_bits - 1, 2)  # straddles
        assert not self._cluster_dead(cache, line_bits - 2, 4)
        cache.sets[0][1].valid = False
        assert self._cluster_dead(cache, line_bits - 1, 2)

    def test_line_base_paddr(self, cache):
        cache.read(0x740, 4)
        for bit_index in range(cache.data_bits):
            line = cache.line_at(bit_index)
            if line.valid:
                assert cache.line_base_paddr(bit_index) == 0x740 & ~31
                break
        assert cache.line_base_paddr(cache.data_bits - 1) is None


class TestHierarchy:
    def test_two_level_fill(self, memory):
        l2 = Cache("L2", CacheGeometry(size=2048, assoc=4, line_size=32), memory)
        l1 = Cache("L1", GEOMETRY, l2)
        l1.read(0x100, 4)
        assert l1.misses == 1 and l2.misses == 1
        l1.read(0x120, 4)  # L1 miss (next line), may hit L2? different line
        assert l2.accesses == 2

    def test_l1_eviction_hits_l2(self, memory):
        l2 = Cache("L2", CacheGeometry(size=8192, assoc=4, line_size=32), memory)
        l1 = Cache("L1", GEOMETRY, l2)
        set_span = GEOMETRY.n_sets * GEOMETRY.line_size
        addresses = [way * set_span for way in range(GEOMETRY.assoc + 1)]
        for addr in addresses:
            l1.read(addr, 4)
        l2_misses = l2.misses
        l1.read(addresses[0], 4)  # evicted from L1, still in L2
        assert l2.misses == l2_misses


class ReferenceCache:
    """Trivial dict-based model for differential testing."""

    def __init__(self, memory):
        self.memory = memory
        self.store = {}

    def read(self, addr, size):
        return bytes(
            self.store.get(a, self.memory.data[a]) for a in range(addr, addr + size)
        )

    def write(self, addr, data):
        for offset, value in enumerate(data):
            self.store[addr + offset] = value


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.booleans(),
            st.integers(0, 4095),
            st.binary(min_size=1, max_size=4),
        ),
        max_size=40,
    )
)
def test_differential_against_reference_model(ops):
    """Any access sequence returns exactly what a flat store would."""
    memory = MainMemory(8192, latency=1)
    memory.poke(0, bytes((i * 7) & 0xFF for i in range(8192)))
    cache = Cache("T", CacheGeometry(size=512, assoc=2, line_size=32), memory)
    reference = ReferenceCache(memory)
    # Keep accesses within one line.
    for is_write, addr, payload in ops:
        addr = min(addr, 4095)
        limit = 32 - (addr % 32)
        payload = payload[:limit]
        if is_write:
            cache.write(addr, payload)
            reference.write(addr, payload)
        else:
            got, _latency = cache.read(addr, len(payload))
            assert got == reference.read(addr, len(payload))
