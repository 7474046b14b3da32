"""repro: soft-error assessment on a simulated ARM-class CPU.

A full reproduction of *"Demystifying Soft Error Assessment Strategies on
ARM CPUs: Microarchitectural Fault Injection vs. Neutron Beam Experiments"*
(DSN 2019): a microarchitectural full-system simulator (gem5 analogue), a
statistical fault-injection framework (GeFIN analogue), a neutron-beam
campaign simulator (LANSCE analogue), the 13 MiBench-analogue workloads,
and the analysis pipeline regenerating every table and figure of the paper.

Quickstart::

    from repro import DEFAULT_LAYOUT, System, get_workload

    workload = get_workload("CRC32")
    system = System(workload.program(DEFAULT_LAYOUT))
    result = system.run(max_cycles=10_000_000)
    assert result.output == workload.reference_output()

See ``examples/`` for fault injection and beam campaigns.
"""

from repro.errors import (
    ApplicationAbort,
    KernelPanic,
    ProgramExit,
    ReproError,
    SimulationTermination,
    WatchdogTimeout,
)
from repro.isa import Assembler, Program
from repro.kernel.layout import DEFAULT_LAYOUT, MemoryLayout
from repro.microarch import (
    CORTEX_A9_CONFIG,
    SCALED_A9_CONFIG,
    InstructionTrace,
    MachineConfig,
    RunResult,
    System,
)
from repro.workloads import MIBENCH_SUITE, Workload, get_workload, workload_names
from repro.injection import (
    CampaignConfig,
    Component,
    FaultEffect,
    InjectionCampaign,
)
from repro.beam import BeamCampaignConfig, BeamExperiment, LANSCE, ZEDBOARD
from repro.experiments import ExperimentContext, get_context

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "SimulationTermination",
    "ProgramExit",
    "ApplicationAbort",
    "KernelPanic",
    "WatchdogTimeout",
    "Assembler",
    "Program",
    "MemoryLayout",
    "DEFAULT_LAYOUT",
    "MachineConfig",
    "SCALED_A9_CONFIG",
    "CORTEX_A9_CONFIG",
    "System",
    "RunResult",
    "InstructionTrace",
    "Workload",
    "MIBENCH_SUITE",
    "get_workload",
    "workload_names",
    "Component",
    "FaultEffect",
    "CampaignConfig",
    "InjectionCampaign",
    "BeamCampaignConfig",
    "BeamExperiment",
    "LANSCE",
    "ZEDBOARD",
    "ExperimentContext",
    "get_context",
    "__version__",
]
