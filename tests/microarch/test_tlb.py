"""TLB: lookup/fill/LRU, bit-field injection semantics."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import InjectionError
from repro.microarch.config import TLBGeometry
from repro.microarch.tlb import PERM_FIELD, PPN_FIELD, TLB, VPN_FIELD

GEOMETRY = TLBGeometry(entries=4, entry_bits=128)


@pytest.fixture
def tlb():
    return TLB("T", GEOMETRY)


class TestLookup:
    def test_miss_on_empty(self, tlb):
        assert tlb.lookup(5) is None
        assert tlb.misses == 1

    def test_fill_then_hit(self, tlb):
        tlb.fill(5, 9, 0b11)
        entry = tlb.lookup(5)
        assert entry is not None
        assert entry.ppn == 9 and entry.perms == 0b11
        assert tlb.misses == 0
        assert tlb.accesses == 1

    def test_fill_returns_entry(self, tlb):
        entry = tlb.fill(1, 2, 3)
        assert entry.vpn == 1 and entry.ppn == 2 and entry.perms == 3

    def test_lru_replacement(self, tlb):
        for vpn in range(GEOMETRY.entries):
            tlb.fill(vpn, vpn, 1)
        tlb.lookup(0)  # refresh entry 0
        tlb.fill(100, 100, 1)  # evicts the LRU (vpn 1)
        assert tlb.lookup(0) is not None
        assert tlb.lookup(1) is None

    def test_flush(self, tlb):
        tlb.fill(1, 1, 1)
        tlb.flush()
        assert tlb.lookup(1) is None

    def test_occupancy(self, tlb):
        assert tlb.occupancy() == 0.0
        tlb.fill(1, 1, 1)
        assert tlb.occupancy() == 0.25


class TestInjection:
    def test_data_bits(self, tlb):
        assert tlb.data_bits == 4 * 128

    def test_out_of_range_rejected(self, tlb):
        with pytest.raises(InjectionError):
            tlb.flip_bit(tlb.data_bits)

    def test_ppn_flip_changes_translation(self, tlb):
        tlb.fill(3, 7, 1)
        entry_index = tlb.entries.index(tlb.lookup(3))
        bit = entry_index * 128 + PPN_FIELD.start  # LSB of the ppn field
        assert tlb.flip_bit(bit) is True
        assert tlb.lookup(3).ppn == 7 ^ 1

    def test_vpn_flip_causes_miss_on_original_page(self, tlb):
        tlb.fill(3, 7, 1)
        entry_index = tlb.entries.index(
            next(e for e in tlb.entries if e.valid)
        )
        bit = entry_index * 128 + VPN_FIELD.start
        tlb.flip_bit(bit)
        assert tlb.lookup(3) is None          # original tag no longer matches
        assert tlb.lookup(3 ^ 1) is not None  # corrupted tag aliases

    def test_perm_flip(self, tlb):
        tlb.fill(3, 7, 0b00001)
        entry_index = tlb.entries.index(tlb.lookup(3))
        bit = entry_index * 128 + PERM_FIELD.start
        tlb.flip_bit(bit)
        assert tlb.lookup(3).perms == 0b00000

    def test_reserved_bits_are_masked(self, tlb):
        tlb.fill(3, 7, 1)
        assert tlb.flip_bit(PERM_FIELD.stop) is False  # attribute padding
        entry = tlb.lookup(3)
        assert entry.ppn == 7 and entry.perms == 1

    def test_flip_in_invalid_entry_returns_false(self, tlb):
        assert tlb.flip_bit(PPN_FIELD.start) is False


@given(
    fills=st.lists(
        st.tuples(st.integers(0, 200), st.integers(0, 200), st.integers(0, 31)),
        max_size=30,
    )
)
def test_map_consistency(fills):
    """The acceleration dict never disagrees with a linear scan."""
    tlb = TLB("T", GEOMETRY)
    for vpn, ppn, perms in fills:
        tlb.fill(vpn, ppn, perms)
    for vpn in {vpn for vpn, _ppn, _perms in fills}:
        entry = tlb.lookup(vpn)
        scan = [e for e in tlb.entries if e.valid and e.vpn == vpn]
        if entry is None:
            assert not scan
        else:
            assert entry in scan
