"""Digest bytes pinned against a committed fixture.

The other digest tests check equalities (restored == golden, flipped !=
golden); these check the bytes themselves, so a refactor of how machine
state is captured or encoded cannot shift the digest stream unnoticed.
The fixture ``data/digest_pins.json`` holds, for StringSearch on the
scaled machine:

- ``system_digest`` and ``arch_digest`` at every cycle of the default
  probe grid of the golden capture pass;
- the digests of a fresh machine after restoring each golden checkpoint
  through :meth:`SystemSnapshot.restore` and, in forward then reverse
  order with a short run between restores, through one
  :class:`DeltaRestorer`;
- the beam campaign's warm boot (restored into a fresh beam machine) and
  the digests its warm capture pass records.

Regenerate it, only when the digest encoding changes on purpose, with::

    PYTHONPATH=src python tests/microarch/test_digest_pins.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.beam.experiment import BeamCampaignConfig, BeamExperiment
from repro.injection.campaign import record_golden_observables, run_golden
from repro.microarch.config import SCALED_A9_CONFIG
from repro.microarch.digest import arch_digest, system_digest
from repro.microarch.snapshot import DeltaRestorer
from repro.microarch.system import System
from repro.workloads import get_workload

FIXTURE = Path(__file__).parent / "data" / "digest_pins.json"

#: Cycles run between two delta restores, so each restore undoes a real
#: divergence (dirty pages, cache and TLB traffic, register writes).
_STEP_CYCLES = 3000


def _pair(system) -> list[str]:
    return [system_digest(system).hex(), arch_digest(system).hex()]


def observe() -> dict:
    """Every pinned digest, computed from scratch on this checkout."""
    workload = get_workload("StringSearch")
    machine = SCALED_A9_CONFIG
    program = workload.program(machine.layout)
    golden = run_golden(workload, machine)
    snapshots, digests, arch_digests, _, _ = record_golden_observables(
        workload, machine, golden
    )
    probes = {
        str(cycle): [digests[cycle].hex(), arch_digests[cycle].hex()]
        for cycle in sorted(digests)
    }

    restored = {}
    for snapshot in snapshots:
        system = System(program, config=machine)
        snapshot.restore(system)
        restored[str(snapshot.cycle)] = _pair(system)

    system = System(program, config=machine)
    restorer = DeltaRestorer(system)
    delta = []
    for snapshot in snapshots + snapshots[::-1]:
        restorer.restore(snapshot)
        delta.append([snapshot.cycle, *_pair(system)])
        system.run(max_cycles=snapshot.cycle + _STEP_CYCLES)

    experiment = BeamExperiment(BeamCampaignConfig(beam_hours=20.0, seed=0))
    golden_output = workload.reference_output()
    injector, warm = experiment._golden_beam_run(workload, golden_output)
    try:
        image = injector.image
        fresh = experiment._beam_system(workload, golden_output)
        image.snapshots[0].restore(fresh)
        beam = {
            "warm_boot": _pair(fresh),
            "warm_cycles": warm.cycles,
            "probes": {
                str(cycle): [image.digests[cycle].hex(), image.arch_digests[cycle].hex()]
                for cycle in sorted(image.digests)
            },
        }
    finally:
        injector.close()
    return {
        "workload": workload.name,
        "golden_cycles": golden.cycles,
        "probes": probes,
        "restored": restored,
        "delta": delta,
        "beam": beam,
    }


@pytest.fixture(scope="module")
def observed():
    return observe()


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize(
    "section", ["golden_cycles", "probes", "restored", "delta", "beam"]
)
def test_digest_bytes_match_the_fixture(observed, pinned, section):
    assert observed[section] == pinned[section]


def test_fixture_covers_every_probe_and_checkpoint(pinned):
    assert len(pinned["probes"]) == 24
    assert len(pinned["restored"]) == 8
    assert len(pinned["delta"]) == 16
    assert pinned["beam"]["probes"]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(observe(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
