"""The six fault-injection target components of the paper."""

from __future__ import annotations

import enum

from repro.microarch.config import MachineConfig
from repro.microarch.system import System


class Component(enum.Enum):
    """Injection targets (Section IV-C): >94% of modeled memory cells."""

    L2 = "L2 Cache"
    L1D = "D$ Cache"
    L1I = "I$ Cache"
    REGFILE = "Register File"
    DTLB = "DTLB"
    ITLB = "ITLB"

    @property
    def label(self) -> str:
        """Human-readable component name (the paper's terminology)."""
        return self.value


def component_target(system: System, component: Component):
    """The live structure (exposes ``data_bits``, ``observable``,
    ``line_base_paddr`` and ``flip_bit``)."""
    return {
        Component.L2: system.l2,
        Component.L1D: system.l1d,
        Component.L1I: system.l1i,
        Component.REGFILE: system.rf,
        Component.DTLB: system.dtlb,
        Component.ITLB: system.itlb,
    }[component]


def component_bits(config: MachineConfig, component: Component) -> int:
    """Modeled memory-cell count of a component (for FIT conversion)."""
    return {
        Component.L2: config.l2.data_bits,
        Component.L1D: config.l1d.data_bits,
        Component.L1I: config.l1i.data_bits,
        Component.REGFILE: config.regfile_data_bits,
        Component.DTLB: config.dtlb.data_bits,
        Component.ITLB: config.itlb.data_bits,
    }[component]


def total_modeled_bits(config: MachineConfig) -> int:
    """All modeled memory cells across the six targets."""
    return sum(component_bits(config, component) for component in Component)
