"""Fault descriptors and fault-list generation."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import InjectionError
from repro.injection.components import Component
from repro.injection.fault import Fault, FaultStream, generate_faults


class TestFault:
    def test_negative_bit_rejected(self):
        with pytest.raises(InjectionError):
            Fault(Component.L2, bit_index=-1, cycle=0)

    def test_negative_cycle_rejected(self):
        with pytest.raises(InjectionError):
            Fault(Component.L2, bit_index=0, cycle=-1)

    def test_faults_are_hashable_value_objects(self):
        a = Fault(Component.L1D, 5, 10)
        b = Fault(Component.L1D, 5, 10)
        assert a == b and hash(a) == hash(b)


class TestGeneration:
    def test_count_and_ranges(self):
        faults = generate_faults(Component.L1I, 4096, 100_000, count=50, seed=1)
        assert len(faults) == 50
        assert all(0 <= fault.bit_index < 4096 for fault in faults)
        assert all(0 <= fault.cycle < 100_000 for fault in faults)
        assert all(fault.component is Component.L1I for fault in faults)

    def test_deterministic_per_seed(self):
        a = generate_faults(Component.L2, 10_000, 1_000, count=20, seed=3)
        b = generate_faults(Component.L2, 10_000, 1_000, count=20, seed=3)
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_faults(Component.L2, 10_000, 1_000, count=20, seed=3)
        b = generate_faults(Component.L2, 10_000, 1_000, count=20, seed=4)
        assert a != b

    def test_different_components_get_different_draws(self):
        a = generate_faults(Component.ITLB, 4096, 1_000, count=20, seed=3)
        b = generate_faults(Component.DTLB, 4096, 1_000, count=20, seed=3)
        assert [(f.bit_index, f.cycle) for f in a] != [
            (f.bit_index, f.cycle) for f in b
        ]

    def test_invalid_population(self):
        with pytest.raises(InjectionError):
            generate_faults(Component.L2, 0, 1000, count=1)
        with pytest.raises(InjectionError):
            generate_faults(Component.L2, 100, 0, count=1)

    @given(seed=st.integers(0, 2**31), count=st.integers(1, 100))
    def test_uniformity_bounds(self, seed, count):
        faults = generate_faults(Component.L2, 1_000, 1_000, count=count, seed=seed)
        assert len(faults) == count
        assert len({(f.bit_index, f.cycle) for f in faults}) >= count // 2


class TestFaultStream:
    """The prefix property underpinning adaptive/fixed equivalence."""

    @given(
        seed=st.integers(0, 2**31),
        small=st.integers(1, 40),
        large=st.integers(41, 120),
    )
    def test_prefix_property(self, seed, small, large):
        """The first n faults of a stream equal generate_faults(count=n),
        for every n - growing a sample never re-draws its prefix."""
        stream = FaultStream(Component.L1D, 4096, 10_000, seed=seed)
        assert stream.take(large) == generate_faults(
            Component.L1D, 4096, 10_000, count=large, seed=seed
        )
        # Taking less after taking more still returns the same prefix.
        assert stream.take(small) == generate_faults(
            Component.L1D, 4096, 10_000, count=small, seed=seed
        )

    def test_window_is_a_slice_of_the_stream(self):
        stream = FaultStream(Component.L2, 10_000, 1_000, seed=7)
        full = stream.take(50)
        assert stream.at(range(10, 30)) == full[10:30]
        assert stream.at(range(50)) == full
        # Windows can extend the stream on demand.
        fresh = FaultStream(Component.L2, 10_000, 1_000, seed=7)
        assert fresh.at(range(20, 40)) == full[20:40]

    def test_len_tracks_draws(self):
        stream = FaultStream(Component.ITLB, 4096, 1_000, seed=1)
        assert len(stream) == 0
        stream.take(7)
        assert len(stream) == 7
        stream.at(range(3, 5))
        assert len(stream) == 7

    def test_invalid_parameters_rejected(self):
        with pytest.raises(InjectionError):
            FaultStream(Component.L2, 0, 1_000)
        with pytest.raises(InjectionError):
            FaultStream(Component.L2, 100, 0)
