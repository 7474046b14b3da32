"""The microarchitectural machine model (the gem5 analogue).

Models the Cortex-A9-class system the paper simulates: an in-order core with
cycle accounting, split L1 instruction/data caches and a unified L2 (all
set-associative, write-back, storing real line *data* so bit flips have
semantic effect), instruction and data TLBs backed by an in-memory page
table, a physical register file, a timer interrupt, and memory-mapped
devices.  Full-system: the kernel in :mod:`repro.kernel` runs on it beneath
every workload.
"""

from repro.microarch.config import (
    CacheGeometry,
    TLBGeometry,
    MachineConfig,
    CORTEX_A9_CONFIG,
    SCALED_A9_CONFIG,
)
from repro.microarch.cache import Cache, CacheLine
from repro.microarch.memory import MainMemory
from repro.microarch.tlb import TLB, TLBEntry
from repro.microarch.regfile import PhysRegFile
from repro.microarch.statistics import PerfCounters
from repro.microarch.core import Core, Mode
from repro.microarch.snapshot import SystemSnapshot, best_snapshot
from repro.microarch.digest import DIGEST_SIZE, probe_cycles, system_digest
from repro.microarch.system import System, RunResult
from repro.microarch.trace import InstructionTrace, TraceRecord

__all__ = [
    "CacheGeometry",
    "TLBGeometry",
    "MachineConfig",
    "CORTEX_A9_CONFIG",
    "SCALED_A9_CONFIG",
    "Cache",
    "CacheLine",
    "MainMemory",
    "TLB",
    "TLBEntry",
    "PhysRegFile",
    "PerfCounters",
    "Core",
    "Mode",
    "System",
    "RunResult",
    "SystemSnapshot",
    "best_snapshot",
    "DIGEST_SIZE",
    "probe_cycles",
    "system_digest",
    "InstructionTrace",
    "TraceRecord",
]
