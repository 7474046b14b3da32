"""Statistical microarchitectural fault injection (the GeFIN analogue).

Single-bit transient faults are injected at a uniformly random (cycle, bit)
into one of the six components the paper targets - L1 instruction cache, L1
data cache, L2 cache, physical register file, instruction TLB, data TLB
(together covering >94% of the modeled memory cells) - and the outcome of
the full-system run is classified as Masked, SDC, Application Crash or
System Crash.  Sample sizes follow the Leveugle et al. statistical fault
sampling formulation, and every result carries its error margin.
"""

from repro.injection.components import Component, component_bits, component_target
from repro.injection.fault import Fault, FaultStream, StrikeSite, generate_faults
from repro.injection.sampling import (
    error_margin,
    readjusted_margin,
    sample_size,
    wilson_half_width,
    wilson_interval,
)
from repro.injection.classify import FaultEffect, classify_run
from repro.injection.adaptive import (
    AdaptiveCampaign,
    AdaptiveDiagnostics,
    StratumProgress,
)
from repro.injection.campaign import (
    CampaignConfig,
    ComponentResult,
    InjectionCampaign,
    WorkloadResult,
    run_single_injection,
)
from repro.injection.parallel import (
    ENDED_DEAD_CELL,
    ENDED_DIGEST,
    ENDED_FULL,
    EarlyMasked,
    EngineOptions,
    ImageInjector,
    InjectionResult,
    MachineImage,
    run_injection_plan,
)

__all__ = [
    "Component",
    "component_bits",
    "component_target",
    "Fault",
    "FaultStream",
    "StrikeSite",
    "generate_faults",
    "error_margin",
    "readjusted_margin",
    "sample_size",
    "wilson_half_width",
    "wilson_interval",
    "FaultEffect",
    "classify_run",
    "AdaptiveCampaign",
    "AdaptiveDiagnostics",
    "StratumProgress",
    "CampaignConfig",
    "ComponentResult",
    "InjectionCampaign",
    "WorkloadResult",
    "run_single_injection",
    "ENDED_DEAD_CELL",
    "ENDED_DIGEST",
    "ENDED_FULL",
    "EarlyMasked",
    "EngineOptions",
    "ImageInjector",
    "InjectionResult",
    "MachineImage",
    "run_injection_plan",
]
