"""Fabric workers honor the campaign's execution-engine spec fields.

The wire protocol carries the submitter's engine configuration (one
nested :class:`~repro.injection.parallel.EngineOptions`) so a worker
rebuilds the campaign with the *same* engine the submitter would use
locally.  These are performance and observation settings - effects are
bit-identical either way - but a worker silently dropping ``translate``
would run an order of magnitude slower than the farm operator expects,
so the threading is pinned here:

- a spec round-trip preserves every engine field;
- the worker-side campaign context builds a translator and restores
  copy-on-write (and neither when the spec selects the reference
  engine);
- an injection through the translated context actually *runs*
  translated blocks, and its effect matches the reference context's.
"""

from __future__ import annotations

import pytest

from repro.fabric.protocol import CampaignSpec
from repro.fabric.worker import _CampaignContext
from repro.injection.campaign import CampaignConfig, prepare_image
from repro.injection.components import Component
from repro.injection.parallel import EngineOptions
from repro.workloads import get_workload

WORKLOAD = "StringSearch"


@pytest.fixture(scope="module")
def golden_cycles():
    workload = get_workload(WORKLOAD)
    golden, _ = prepare_image(workload, CampaignConfig())
    return golden.cycles


def _spec(golden_cycles, **overrides):
    config = CampaignConfig(faults_per_component=2, seed=7, **overrides)
    return CampaignSpec.from_config(
        get_workload(WORKLOAD), config, golden_cycles, (Component.REGFILE,)
    )


def test_spec_roundtrip_preserves_engine_fields(golden_cycles):
    config = CampaignConfig(
        faults_per_component=2,
        seed=7,
        translate=False,
        early_exit=False,
        digest_probes=5,
        lifetime_events=False,
        trace_on_crash=3,
        profile=True,
    )
    assert config.engine != EngineOptions()
    spec = CampaignSpec.from_config(
        get_workload(WORKLOAD), config, golden_cycles, (Component.REGFILE,)
    )
    wire = CampaignSpec.from_payload(spec.to_payload())
    assert wire.to_config().engine == config.engine


def test_worker_context_runs_translated(golden_cycles):
    context = _CampaignContext(_spec(golden_cycles))
    translator = context.injector.translator
    assert translator is not None
    assert context.image.engine.translate is True
    assert context.injector._restorer is not None, "no copy-on-write restores"

    fault = context.plan[Component.REGFILE][0]
    effect = context.injector.run_fault_ex(fault).effect
    assert translator.block_runs > 0, "worker context never ran a block"

    reference = _CampaignContext(_spec(golden_cycles, translate=False))
    assert reference.injector.translator is None
    assert reference.image.engine.translate is False
    assert reference.injector._restorer is None
    assert reference.injector.run_fault_ex(fault).effect == effect
