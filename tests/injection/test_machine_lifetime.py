"""Dropped machines are freed by refcount, not by the cyclic collector.

A :class:`~repro.microarch.system.System` and its core, and an injector's
core and :class:`~repro.microarch.translate.BlockTranslator`, must not
reference each other once their owner is done: campaigns build many
machines, and a cycle keeps each one alive until the next full garbage
collection.  With the collector off, weak references show whether
refcounting alone frees them.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.beam.experiment import BeamCampaignConfig, BeamExperiment
from repro.injection.campaign import (
    CampaignConfig,
    build_fault_plan,
    prepare_image,
    run_golden,
)
from repro.injection.components import Component
from repro.injection.parallel import run_injection_plan
from repro.microarch.config import SCALED_A9_CONFIG
from repro.microarch.system import System
from repro.microarch.translate import BlockTranslator
from repro.workloads import get_workload

STRINGSEARCH = get_workload("StringSearch")


@pytest.fixture
def machines(monkeypatch):
    """Weak references to every System and translator built in the test,
    which runs with the cyclic garbage collector disabled."""
    refs: list[weakref.ref] = []
    for cls in (System, BlockTranslator):

        def tracked_init(self, *args, _original=cls.__init__, **kwargs):
            refs.append(weakref.ref(self))
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", tracked_init)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield refs
    finally:
        if enabled:
            gc.enable()


def alive(refs) -> list:
    return [ref() for ref in refs if ref() is not None]


def test_golden_machine_is_freed(machines):
    run_golden(STRINGSEARCH, SCALED_A9_CONFIG)
    assert len(machines) == 2  # the System and its translator
    assert alive(machines) == []


def test_plan_injector_is_freed(machines):
    config = CampaignConfig(faults_per_component=2)
    golden, image = prepare_image(STRINGSEARCH, config)
    plan = build_fault_plan(
        config, golden.cycles, (Component.REGFILE, Component.L1D)
    )
    run_injection_plan(image, plan)
    assert len(machines) > 4  # golden, capture and injector machines
    assert alive(machines) == []


def test_beam_strike_injector_is_freed(machines, tmp_path):
    experiment = BeamExperiment(
        BeamCampaignConfig(beam_hours=5.0, seed=0), cache_dir=tmp_path
    )
    result = experiment.run_workload(STRINGSEARCH, use_cache=False)
    assert result.strikes_simulated > 0
    assert len(machines) >= 4
    assert alive(machines) == []
