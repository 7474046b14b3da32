"""Beam strikes run on the injection engine, with pinned results.

The expected ``BeamResult`` payloads below were produced by the earlier
per-strike executor (a fresh ``System`` booted for every strike, run by
the interpreter to program exit).  Strikes now run through
:class:`~repro.injection.parallel.ImageInjector` - translator, copy-on-write
restores, early exit - and must reproduce them exactly.
"""

from __future__ import annotations

import pytest

from repro.beam import experiment as experiment_module
from repro.beam.experiment import BeamCampaignConfig, BeamExperiment
from repro.injection import parallel as parallel_module
from repro.injection.parallel import EngineOptions
from repro.microarch import translate as translate_module
from repro.microarch.digest import system_digest
from repro.microarch.system import System
from repro.workloads import get_workload

HOURS = 20.0


def _payload(workload, golden_cycles, counts, strikes, platform):
    masked, sdc, app, sys_ = counts
    return {
        "workload": workload,
        "beam_seconds": 72000.0,
        "fluence": 25200000000.0,
        "golden_cycles": golden_cycles,
        "counts": {
            "MASKED": masked, "SDC": sdc, "APP_CRASH": app, "SYS_CRASH": sys_,
        },
        "strikes_simulated": strikes,
        "platform_strikes": platform,
        "natural_years": 221285.56375131718,
    }


PINNED = {
    "CRC32": _payload("CRC32", 272664, (5, 1, 4, 0), 8, 2),
    "StringSearch": _payload("StringSearch", 54582, (10, 0, 3, 4), 16, 1),
    "Qsort": _payload("Qsort", 160954, (13, 0, 0, 4), 13, 4),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_beam_result_matches_the_per_strike_executor(name):
    experiment = BeamExperiment(BeamCampaignConfig(beam_hours=HOURS, seed=0))
    result = experiment.run_workload(get_workload(name), use_cache=False)
    assert result.to_dict() == PINNED[name]


def test_system_builds_do_not_grow_with_strikes(monkeypatch):
    """One injector per workload: machine construction is a fixed cost."""
    builds = []
    original = System.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(System, "__init__", counting_init)
    workload = get_workload("StringSearch")
    per_setting = {}
    for hours in (5.0, 40.0):
        builds.clear()
        experiment = BeamExperiment(BeamCampaignConfig(beam_hours=hours, seed=0))
        result = experiment.run_workload(workload, use_cache=False)
        per_setting[hours] = (len(builds), result.strikes_simulated)
    (few_builds, few_strikes), (many_builds, many_strikes) = per_setting.values()
    assert many_strikes > few_strikes + 3
    assert few_builds == many_builds <= 2


def test_warm_run_is_the_capture_run(monkeypatch):
    """Two machines and two fault-free runs per workload: the beam machine
    runs the warm-up and then the warm reference, which also records the
    checkpoints and digests; the strike injector builds the second."""
    builds, runs = [], []
    original_init, original_run = System.__init__, System.run

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        original_init(self, *args, **kwargs)

    def counting_run(self, *args, **kwargs):
        runs.append(1)
        return original_run(self, *args, **kwargs)

    monkeypatch.setattr(System, "__init__", counting_init)
    monkeypatch.setattr(System, "run", counting_run)
    workload = get_workload("StringSearch")
    experiment = BeamExperiment(BeamCampaignConfig(seed=0))
    injector, warm = experiment._golden_beam_run(
        workload, workload.reference_output()
    )
    assert (len(builds), len(runs)) == (2, 2)
    image = injector.image
    assert image.golden_cycles == warm.cycles
    assert image.snapshots[0].cycle == 0
    assert len(image.snapshots) > 1 and image.digests
    assert all(snapshot.cycle <= warm.cycles for snapshot in image.snapshots)


#: The beam engine with the reference (interpreter-only) engine selected.
REFERENCE_BEAM_ENGINE = EngineOptions(translate=False, lifetime_events=False)


@pytest.mark.parametrize("name", ["StringSearch", "MatMul", "CRC32"])
def test_warm_runs_are_identical_on_both_engines(name, monkeypatch):
    """The warm-up and warm reference runs follow the beam engine's
    ``translate`` without changing the warm boot, the reference run or
    the digests it captures."""
    workload = get_workload(name)
    golden = workload.reference_output()
    experiment = BeamExperiment(BeamCampaignConfig(seed=0))
    observed = []
    for engine in (REFERENCE_BEAM_ENGINE, experiment_module.BEAM_ENGINE):
        monkeypatch.setattr(experiment_module, "BEAM_ENGINE", engine)
        injector, warm = experiment._golden_beam_run(workload, golden)
        system = experiment._beam_system(workload, golden)
        injector.image.snapshots[0].restore(system)
        observed.append((
            system_digest(system), warm.cycles, warm.output,
            injector.image.digests,
        ))
    assert observed[0] == observed[1]


def test_reference_beam_image_attaches_no_translator(monkeypatch):
    attached = []

    def counting_attach(system, **kwargs):
        attached.append(system)

    monkeypatch.setattr(translate_module, "attach_translator", counting_attach)
    monkeypatch.setattr(parallel_module, "attach_translator", counting_attach)
    monkeypatch.setattr(experiment_module, "BEAM_ENGINE", REFERENCE_BEAM_ENGINE)
    workload = get_workload("StringSearch")
    experiment = BeamExperiment(BeamCampaignConfig(seed=0))
    injector, _warm = experiment._golden_beam_run(
        workload, workload.reference_output()
    )
    assert attached == []
    assert injector.system.core.translator is None
