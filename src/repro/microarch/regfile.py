"""The physical register file.

Models a Cortex-A9-style physical register file that is larger than the
architectural state: the 16 architectural integer registers (and 16 double
registers) occupy the first slots; the remaining slots hold stale copies of
recently-written values, refreshed round-robin on every writeback.  Faults
striking a slot that is not architecturally live are masked - reproducing
the real machine's property that most physical registers hold dead rename
values at any instant, which keeps register-file AVF moderate despite its
central role.
"""

from __future__ import annotations

import struct

from repro.errors import InjectionError
from repro.microarch.state import Array, Scalars, State

ARCH_REGS = 16
INT_REG_BITS = 32
FP_REG_BITS = 64
_INT_MASK = 0xFFFFFFFF


class PhysRegFile:
    """Integer + floating-point physical register file."""

    #: Mutable state (:mod:`repro.microarch.state`): the architectural
    #: registers lead their lists; rename slots and cursors are
    #: microarchitectural.
    STATE = State(
        Array("int_regs", "I", arch_prefix=ARCH_REGS),
        Array("fp_regs", "d", arch_prefix=ARCH_REGS),
        Scalars("_int_history _fp_history", arch=False),
        constants="n_int n_fp int_reads fp_reads",
    )

    def __init__(
        self,
        int_phys_regs: int,
        fp_phys_regs: int,
        int_reads=range(ARCH_REGS),
        fp_reads=range(ARCH_REGS),
    ):
        if int_phys_regs < ARCH_REGS or fp_phys_regs < ARCH_REGS:
            raise InjectionError(
                "physical register file smaller than architectural state"
            )
        self.n_int = int_phys_regs
        self.n_fp = fp_phys_regs
        #: The architectural registers some instruction of the loaded image
        #: reads (:class:`~repro.microarch.system.System` derives them from
        #: its text; a bare register file assumes every one is read).
        self.int_reads = frozenset(int_reads)
        self.fp_reads = frozenset(fp_reads)
        self.int_regs = [0] * int_phys_regs
        self.fp_regs = [0.0] * fp_phys_regs
        self._int_history = ARCH_REGS
        self._fp_history = ARCH_REGS

    # -- architectural writeback (index 0..15; reads index the lists) --------

    def write_int(self, index: int, value: int) -> None:
        value &= _INT_MASK
        self.int_regs[index] = value
        # Refresh a rename slot with the retired value.
        if self.n_int > ARCH_REGS:
            self.int_regs[self._int_history] = value
            self._int_history += 1
            if self._int_history >= self.n_int:
                self._int_history = ARCH_REGS

    def write_fp(self, index: int, value: float) -> None:
        self.fp_regs[index] = value
        if self.n_fp > ARCH_REGS:
            self.fp_regs[self._fp_history] = value
            self._fp_history += 1
            if self._fp_history >= self.n_fp:
                self._fp_history = ARCH_REGS

    # -- observability seam ---------------------------------------------------

    def wrap_regs(self, wrap) -> None:
        """Replace the register lists with (probing) list subclasses.

        ``wrap(kind, values)`` is called with ``("int", int_regs)`` and
        ``("fp", fp_regs)`` and must return list-compatible replacements.
        Values are preserved; only the container type changes, so digests,
        snapshots, and handlers are unaffected.
        """
        self.int_regs = wrap("int", self.int_regs)
        self.fp_regs = wrap("fp", self.fp_regs)

    def unwrap_regs(self) -> None:
        """Restore plain lists (drops any wrapper installed above)."""
        self.int_regs = list(self.int_regs)
        self.fp_regs = list(self.fp_regs)

    # -- fault injection interface -------------------------------------------

    @property
    def data_bits(self) -> int:
        return self.n_int * INT_REG_BITS + self.n_fp * FP_REG_BITS

    def _locate(self, bit_index: int) -> tuple[bool, int, int]:
        """Map a flat bit index to (integer bank?, register, bit)."""
        if not 0 <= bit_index < self.data_bits:
            raise InjectionError(f"regfile bit index {bit_index} out of range")
        int_bits = self.n_int * INT_REG_BITS
        if bit_index < int_bits:
            return True, bit_index // INT_REG_BITS, bit_index % INT_REG_BITS
        fp_index = bit_index - int_bits
        return False, fp_index // FP_REG_BITS, fp_index % FP_REG_BITS

    def observable(self, bit_index: int) -> bool:
        """Whether a flip of this bit could ever be observed: it belongs
        to an architectural register some instruction of the image reads.

        Rename slots are write-only: :meth:`write_int`/:meth:`write_fp`
        (and the translator's inlined copies of them) store to them, and
        nothing reads them.  An architectural register outside
        ``int_reads``/``fp_reads`` is never read either, so its flipped
        value never reaches anything but a digest.  Equals
        :meth:`flip_bit`'s return.
        """
        is_int, reg, _bit = self._locate(bit_index)
        return reg in (self.int_reads if is_int else self.fp_reads)

    def line_base_paddr(self, bit_index: int) -> None:
        """Registers hold values, not copies of memory lines."""
        return None

    def flip_bit(self, bit_index: int) -> bool:
        """Flip one bit; returns :meth:`observable` of it (True when it hit
        an architectural register the image reads)."""
        is_int, reg, bit = self._locate(bit_index)
        if is_int:
            self.int_regs[reg] = (self.int_regs[reg] ^ (1 << bit)) & _INT_MASK
            return reg in self.int_reads
        packed = bytearray(struct.pack("<d", self.fp_regs[reg]))
        packed[bit // 8] ^= 1 << (bit % 8)
        self.fp_regs[reg] = struct.unpack("<d", bytes(packed))[0]
        return reg in self.fp_reads
