"""Machine configurations.

Two configurations are provided:

- :data:`CORTEX_A9_CONFIG` mirrors Table II of the paper: 32 KB 4-way L1
  caches, 512 KB 8-way L2, 32-entry TLBs, one core at 667 MHz.
- :data:`SCALED_A9_CONFIG` (the default for tests and benchmark harnesses)
  scales caches and workload inputs down *together* by ~8-32x so Python-speed
  simulation stays tractable while preserving each benchmark's class from
  Table III (input-fits-in-cache vs. evicts-the-kernel, CPU- vs.
  memory-intensive).  DESIGN.md documents this substitution.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError
from repro.kernel.layout import DEFAULT_LAYOUT, MemoryLayout


@dataclass(frozen=True)
class CacheGeometry:
    """Size/shape/latency of one cache level."""

    size: int
    assoc: int
    line_size: int = 32
    hit_latency: int = 0  # extra cycles on a hit beyond the pipelined access
    #: Write-through (no dirty lines: every write also goes below).  The
    #: default is write-back, as on the Cortex-A9; write-through is an
    #: ablation knob - it removes the "corrupted dirty line reaches
    #: memory" propagation path and lets clean-line evictions heal more
    #: corruptions.
    write_through: bool = False

    def __post_init__(self):
        if self.size % (self.assoc * self.line_size):
            raise ConfigurationError(
                f"cache size {self.size} not divisible by assoc*line"
            )
        if self.line_size & (self.line_size - 1):
            raise ConfigurationError("line size must be a power of two")
        n_sets = self.size // (self.assoc * self.line_size)
        if n_sets & (n_sets - 1):
            raise ConfigurationError("number of sets must be a power of two")

    @property
    def n_sets(self) -> int:
        return self.size // (self.assoc * self.line_size)

    @property
    def n_lines(self) -> int:
        return self.size // self.line_size

    @property
    def data_bits(self) -> int:
        return self.size * 8


@dataclass(frozen=True)
class TLBGeometry:
    """Shape of a translation lookaside buffer.

    ``entry_bits`` is the number of memory cells modeled per entry; the
    paper's A9 TLBs are 512 bytes = 4096 bits for 32 entries, i.e. 128 bits
    per entry (tag + physical page + permissions + attributes).
    """

    entries: int = 32
    entry_bits: int = 128

    @property
    def data_bits(self) -> int:
        return self.entries * self.entry_bits


@dataclass(frozen=True)
class MachineConfig:
    """Complete description of one simulated machine."""

    name: str
    l1i: CacheGeometry
    l1d: CacheGeometry
    l2: CacheGeometry
    itlb: TLBGeometry = field(default_factory=TLBGeometry)
    dtlb: TLBGeometry = field(default_factory=TLBGeometry)
    layout: MemoryLayout = DEFAULT_LAYOUT

    # Physical register file: 16 architectural integer registers plus
    # recently-written rename copies, same for floating point.
    int_phys_regs: int = 40
    fp_phys_regs: int = 24

    # Timing model.
    freq_hz: float = 667e6
    mem_latency: int = 30
    tlb_walk_latency: int = 10
    branch_mispredict_penalty: int = 2
    mul_latency: int = 2
    div_latency: int = 10
    fpu_latency: int = 1
    fdiv_latency: int = 12
    fsqrt_latency: int = 14

    # Interval (in cycles) between timer interrupts delivered to the kernel.
    timer_interval: int = 25_000

    # Atomic mode skips cache/TLB timing (gem5 "atomic" vs "detailed").
    atomic: bool = False

    # Instruction-TLB maintenance policy: some implementations flush the
    # ITLB on exception entry (no global/ASID-tagged entries).  This is the
    # kind of undocumented design difference between the physical
    # Cortex-A9 and the gem5 model that Section IV-D's counter validation
    # surfaces (the paper: "certain design differences ... in the
    # implementation of TLB of Gem5 and ARM Cortex microarchitectures").
    itlb_flush_on_exception: bool = False

    def __post_init__(self):
        if self.int_phys_regs < 16 or self.fp_phys_regs < 16:
            raise ConfigurationError(
                "physical register file must cover the 16 architectural registers"
            )
        if self.l1i.line_size != self.l2.line_size:
            raise ConfigurationError("L1I/L2 line sizes must match")
        if self.l1d.line_size != self.l2.line_size:
            raise ConfigurationError("L1D/L2 line sizes must match")

    @property
    def regfile_data_bits(self) -> int:
        return self.int_phys_regs * 32 + self.fp_phys_regs * 64

    def with_atomic(self, atomic: bool = True) -> "MachineConfig":
        return replace(self, atomic=atomic)


#: Faithful Table II configuration (32 KB L1s, 512 KB L2).
CORTEX_A9_CONFIG = MachineConfig(
    name="cortex-a9",
    l1i=CacheGeometry(size=32 * 1024, assoc=4, line_size=32),
    l1d=CacheGeometry(size=32 * 1024, assoc=4, line_size=32),
    l2=CacheGeometry(size=512 * 1024, assoc=8, line_size=32, hit_latency=8),
    # 8 MB RAM for full-size inputs; the 512 KB background-OS region sits
    # above the user address space.
    layout=MemoryLayout(memory_size=0x800000, os_background_base=0x400000),
)

#: Default scaled configuration (caches and inputs scaled together).
SCALED_A9_CONFIG = MachineConfig(
    name="cortex-a9-scaled",
    l1i=CacheGeometry(size=4 * 1024, assoc=4, line_size=32),
    l1d=CacheGeometry(size=4 * 1024, assoc=4, line_size=32),
    l2=CacheGeometry(size=16 * 1024, assoc=8, line_size=32, hit_latency=8),
)

#: Named configurations resolvable across process and host boundaries.
#: The fabric protocol ships a machine by *name* plus a digest of the
#: machine and its program (see
#: :func:`repro.injection.identity.program_digest`); workers look the
#: name up here and verify the digest, so a drifted geometry on either
#: side is an error instead of a silently different campaign.
MACHINE_CONFIGS: dict[str, MachineConfig] = {
    CORTEX_A9_CONFIG.name: CORTEX_A9_CONFIG,
    SCALED_A9_CONFIG.name: SCALED_A9_CONFIG,
}
