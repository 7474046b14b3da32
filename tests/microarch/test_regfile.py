"""Physical register file: architectural access, rename slots, injection."""

from __future__ import annotations

import math
import struct

import pytest
from hypothesis import given, strategies as st

from repro.errors import InjectionError
from repro.microarch.regfile import ARCH_REGS, PhysRegFile


@pytest.fixture
def rf():
    return PhysRegFile(int_phys_regs=24, fp_phys_regs=20)


class TestArchitectural:
    def test_write_read_int(self, rf):
        rf.write_int(3, 0x12345678)
        assert rf.int_regs[3] == 0x12345678

    def test_int_masked_to_32_bits(self, rf):
        rf.write_int(1, 0x1_0000_0005)
        assert rf.int_regs[1] == 5

    def test_negative_wraps(self, rf):
        rf.write_int(1, -1)
        assert rf.int_regs[1] == 0xFFFFFFFF

    def test_write_read_fp(self, rf):
        rf.write_fp(2, 3.5)
        assert rf.fp_regs[2] == 3.5

    def test_too_small_file_rejected(self):
        with pytest.raises(InjectionError):
            PhysRegFile(int_phys_regs=8, fp_phys_regs=20)


class TestRenameSlots:
    def test_history_refreshed_round_robin(self, rf):
        for value in range(20):
            rf.write_int(0, value)
        history = rf.int_regs[ARCH_REGS:]
        assert all(value in range(20) for value in history)

    def test_history_never_read_architecturally(self, rf):
        rf.write_int(0, 7)
        for reg in range(ARCH_REGS):
            if reg != 0:
                assert rf.int_regs[reg] == 0


class TestInjection:
    def test_data_bits(self, rf):
        assert rf.data_bits == 24 * 32 + 20 * 64

    def test_flip_architectural_int_is_live(self, rf):
        rf.write_int(0, 0)
        assert rf.flip_bit(0) is True
        assert rf.int_regs[0] == 1

    def test_flip_history_slot_is_dead(self, rf):
        assert rf.flip_bit(ARCH_REGS * 32) is False

    def test_flip_fp_bit(self, rf):
        rf.write_fp(0, 1.0)
        int_bits = 24 * 32
        # Flip the sign bit of f0 (bit 63 of the IEEE754 double).
        assert rf.flip_bit(int_bits + 63) is True
        assert rf.fp_regs[0] == -1.0

    def test_fp_flip_can_produce_nan(self, rf):
        rf.write_fp(0, 1.0)
        int_bits = 24 * 32
        for bit in range(52, 63):  # exponent field
            rf.flip_bit(int_bits + bit)
        value = rf.fp_regs[0]
        assert math.isnan(value) or math.isinf(value) or value != 1.0

    def test_out_of_range(self, rf):
        with pytest.raises(InjectionError):
            rf.flip_bit(rf.data_bits)

    @given(bit=st.integers(0, 24 * 32 + 20 * 64 - 1))
    def test_double_flip_is_identity(self, bit):
        rf = PhysRegFile(24, 20)
        rf.write_int(0, 0xDEADBEEF)
        rf.write_fp(0, 2.75)
        before_int = list(rf.int_regs)
        before_fp = struct.pack("<20d", *rf.fp_regs)
        rf.flip_bit(bit)
        rf.flip_bit(bit)
        assert rf.int_regs == before_int
        assert struct.pack("<20d", *rf.fp_regs) == before_fp
