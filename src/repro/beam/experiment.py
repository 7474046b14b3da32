"""The beam experiment protocol (Section IV-B), simulated.

One campaign per workload: executions run back-to-back under beam for
``beam_hours``; strikes are Poisson-sampled per component; only the
(vanishingly rare) executions that receive a strike are simulated, the rest
are counted as error-free - the paper designed its experiments the same way
("observed error rates were lower than 1 error per 1,000 executions"), so
this short-cut introduces no artifact.

Strikes run on the injection engine, one serial
:class:`~repro.injection.parallel.ImageInjector` per workload on a
*beam-mode* image (steady-state caches with the background-OS working set,
online check routine, golden output in memory), and either resolve through
execution or, for background-OS line hits, through the board model hooked
in at the flip.  Platform-logic strikes resolve through the board model
alone.  Results are cached on disk.
"""

from __future__ import annotations

import binascii
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from repro.beam.board import ZEDBOARD, BoardModel, BoardModelOutcome
from repro.beam.checkroutine import build_check_program
from repro.beam.facility import LANSCE, BeamFacility
from repro.beam.fit import fit_rate, poisson_interval, sample_poisson
from repro.errors import ConfigurationError
from repro.injection.campaign import (
    default_cache_dir,
    read_json_cache,
    record_golden_observables,
    write_json_atomic,
)
from repro.injection.classify import FaultEffect
from repro.injection.components import Component, component_bits
from repro.injection.fault import Fault
from repro.injection.identity import result_key
from repro.injection.parallel import EngineOptions, ImageInjector, MachineImage
from repro.microarch.config import MachineConfig, SCALED_A9_CONFIG
from repro.microarch.snapshot import SystemSnapshot
from repro.microarch.system import System
from repro.microarch.translate import translated
from repro.workloads.base import Workload

#: Strike engine settings (no lifetime events: beam has no journal yet);
#: its ``translate`` also selects the engine of the warm-up and warm runs.
BEAM_ENGINE = EngineOptions(lifetime_events=False)


@dataclass(frozen=True)
class BeamCampaignConfig:
    """Knobs of one beam campaign."""

    beam_hours: float = 150.0
    seed: int = 0
    machine: MachineConfig = SCALED_A9_CONFIG
    facility: BeamFacility = LANSCE
    board: BoardModel = ZEDBOARD

    def __post_init__(self):
        """Refuse a beam time no FIT rate can be measured over, before
        any warm-up pass runs."""
        if not self.beam_hours > 0:
            raise ConfigurationError("beam_hours must be positive")

    def cache_key(self, workload: Workload) -> str:
        """Filename stem identifying this exact beam campaign."""
        return result_key(
            "beam", workload, self.machine,
            beam_hours=self.beam_hours, seed=self.seed,
            facility=self.facility, board=self.board,
        )


@dataclass
class BeamResult:
    """Outcome of one workload's beam campaign."""

    workload_name: str
    beam_seconds: float
    fluence: float
    golden_cycles: int
    counts: dict[FaultEffect, int] = field(default_factory=dict)
    strikes_simulated: int = 0
    platform_strikes: int = 0
    natural_years: float = 0.0

    def errors(self, effect: FaultEffect) -> int:
        return self.counts.get(effect, 0)

    def fit(self, effect: FaultEffect) -> float:
        """FIT rate of one error class."""
        return fit_rate(self.errors(effect), self.fluence)

    def fit_interval(
        self, effect: FaultEffect, confidence: float = 0.95
    ) -> tuple[float, float]:
        low, high = poisson_interval(self.errors(effect), confidence)
        return fit_rate(low, self.fluence), fit_rate(high, self.fluence)

    def detection_limit_fit(self) -> float:
        """Half the FIT one observed error would contribute (resolution)."""
        return fit_rate(0.5, self.fluence)

    def total_fit(self) -> float:
        return sum(
            self.fit(effect)
            for effect in (FaultEffect.SDC, FaultEffect.APP_CRASH, FaultEffect.SYS_CRASH)
        )

    def to_dict(self) -> dict:
        return {
            "workload": self.workload_name,
            "beam_seconds": self.beam_seconds,
            "fluence": self.fluence,
            "golden_cycles": self.golden_cycles,
            "counts": {e.name: self.counts.get(e, 0) for e in FaultEffect},
            "strikes_simulated": self.strikes_simulated,
            "platform_strikes": self.platform_strikes,
            "natural_years": self.natural_years,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BeamResult":
        return cls(
            workload_name=payload["workload"],
            beam_seconds=payload["beam_seconds"],
            fluence=payload["fluence"],
            golden_cycles=payload["golden_cycles"],
            counts={FaultEffect[k]: v for k, v in payload["counts"].items()},
            strikes_simulated=payload["strikes_simulated"],
            platform_strikes=payload["platform_strikes"],
            natural_years=payload["natural_years"],
        )


class BeamExperiment:
    """Run (and cache) simulated beam campaigns over the suite."""

    def __init__(
        self,
        config: BeamCampaignConfig | None = None,
        cache_dir: Path | None = None,
        progress: Callable[[str], None] | None = None,
    ):
        self.config = config or BeamCampaignConfig()
        self.cache_dir = cache_dir if cache_dir is not None else default_cache_dir()
        self._progress = progress or (lambda message: None)

    # -- machine construction -------------------------------------------------

    def _beam_system(self, workload: Workload, golden: bytes) -> System:
        machine = self.config.machine
        check = build_check_program(machine.layout, len(golden))
        return System(
            workload.program(machine.layout),
            config=machine,
            check_program=check,
            golden_output=golden,
            beam_mode=True,
            seed=self.config.seed,
        )

    def _golden_beam_run(self, workload: Workload, golden: bytes):
        """Establish campaign steady state and build the strike executor.

        Executions run back-to-back under beam, so the measured state is
        not a cold boot: one beam machine executes a full warm-up run
        (from the prefilled background-OS state), is soft-rebooted keeping
        the memory hierarchy, and its *second* execution is the reference.
        That warm run is also the capture pass: it records checkpoints and
        digests on a grid laid over the warm-up run's length.  Returns
        ``(injector, warm_result)``; the injector's image holds the warm
        boot (the post-reboot cycle-0 state every strike starts from) as
        ``snapshots[0]``.
        """
        machine = self.config.machine
        system = self._beam_system(workload, golden)
        with translated(system, BEAM_ENGINE.translate):
            first = system.run(max_cycles=200_000_000)
        if not first.exited_cleanly or first.sdc_flag or not first.check_done:
            raise RuntimeError(
                f"warm-up beam run of {workload.name} failed: {first.outcome}, "
                f"sdc={first.sdc_flag}, check_done={first.check_done}"
            )
        system.soft_reset()
        warm_boot = SystemSnapshot(system)
        snapshots, digests, arch_digests, _, warm = record_golden_observables(
            workload, machine, first, system=system, translate=BEAM_ENGINE.translate
        )
        if not warm.exited_cleanly or warm.sdc_flag or warm.output != golden:
            raise RuntimeError(
                f"warm beam run of {workload.name} failed: {warm.outcome}"
            )
        image = MachineImage(
            name=workload.name,
            program=workload.program(machine.layout),
            machine=machine,
            golden_cycles=warm.cycles,
            golden_output=golden,
            snapshots=[warm_boot] + snapshots,
            digests=digests,
            arch_digests=arch_digests,
            engine=BEAM_ENGINE,
            check_program=build_check_program(machine.layout, len(golden)),
        )
        return ImageInjector(image), warm

    def _strike_effect(
        self,
        injector: ImageInjector,
        component: Component,
        bit_index: int,
        cycle: int,
        rng: random.Random,
    ) -> FaultEffect:
        board = self.config.board

        def os_background(region):
            if region == "os_background":
                raise BoardModelOutcome(board.sample_os_line_outcome(rng))

        fault = Fault(component, bit_index, cycle)
        try:
            return injector.run_fault_ex(fault, strike=os_background).effect
        except BoardModelOutcome as resolved:
            return resolved.effect

    # -- campaign ------------------------------------------------------------------

    def run_workload(self, workload: Workload, use_cache: bool = True) -> BeamResult:
        """Simulate one workload's full beam campaign."""
        path = self.cache_dir / (self.config.cache_key(workload) + ".json")
        if use_cache:
            cached = read_json_cache(path, BeamResult.from_dict, self._progress)
            if cached is not None:
                return cached

        config = self.config
        machine = config.machine
        facility = config.facility
        rng = random.Random(
            (config.seed << 32) ^ binascii.crc32(workload.name.encode())
        )

        golden = workload.reference_output()
        injector, golden_run = self._golden_beam_run(workload, golden)

        beam_seconds = config.beam_hours * 3600.0
        result = BeamResult(
            workload_name=workload.name,
            beam_seconds=beam_seconds,
            fluence=facility.fluence(beam_seconds),
            golden_cycles=golden_run.cycles,
            natural_years=facility.natural_years(beam_seconds),
        )

        try:
            # Strikes on the six modeled components: simulate each one.
            for component in Component:
                bits = component_bits(machine, component)
                expected = facility.strike_rate(bits) * beam_seconds
                strikes = sample_poisson(rng, expected)
                for index in range(strikes):
                    effect = self._strike_effect(
                        injector,
                        component,
                        bit_index=rng.randrange(bits),
                        cycle=rng.randrange(golden_run.cycles),
                        rng=rng,
                    )
                    result.counts[effect] = result.counts.get(effect, 0) + 1
                    result.strikes_simulated += 1
                    if (index + 1) % 10 == 0:
                        self._progress(
                            f"{workload.name}/beam/{component.name}: "
                            f"{index + 1}/{strikes}"
                        )
        finally:
            injector.close()

        # Strikes on un-modeled platform logic: board model only.
        platform_rate = facility.strike_rate(
            config.board.platform_logic_bits, config.board.platform_sensitivity
        )
        platform_strikes = sample_poisson(rng, platform_rate * beam_seconds)
        for _ in range(platform_strikes):
            effect = config.board.sample_platform_outcome(rng)
            result.counts[effect] = result.counts.get(effect, 0) + 1
        result.platform_strikes = platform_strikes

        if use_cache:
            write_json_atomic(path, result.to_dict())
        return result

    def run_suite(
        self, workloads: Iterable[Workload], use_cache: bool = True
    ) -> dict[str, BeamResult]:
        results = {}
        for workload in workloads:
            self._progress(f"beam campaign: {workload.name}")
            results[workload.name] = self.run_workload(workload, use_cache=use_cache)
        return results
