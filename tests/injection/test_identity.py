"""Result identity: one digest of what ran keys every stored result."""

from __future__ import annotations

import dataclasses

import pytest

from repro.beam.board import ZEDBOARD
from repro.beam.experiment import BeamCampaignConfig
from repro.beam.facility import LANSCE
from repro.errors import InjectionError
from repro.injection.campaign import CampaignConfig, InjectionCampaign
from repro.injection.components import Component
from repro.injection.identity import machine_digest, program_digest
from repro.injection.journal import InjectionJournal, read_journal
from repro.microarch.config import SCALED_A9_CONFIG
from repro.workloads import Workload, get_workload


def edited(workload: Workload) -> Workload:
    """``workload`` under the same name with one unreachable instruction
    appended to its text: the same output and golden run, another
    program."""
    return Workload(
        workload.name,
        workload.paper_input,
        workload.scaled_input,
        workload.characteristics,
        workload.source + "\n    .text\n    movi r12, 0\n",
        workload.reference_output,
    )


STRINGSEARCH = get_workload("StringSearch")
CRC32 = get_workload("CRC32")
#: Same name as the scaled machine, twice its L1D.
WIDE_L1D = dataclasses.replace(
    SCALED_A9_CONFIG,
    l1d=dataclasses.replace(SCALED_A9_CONFIG.l1d, size=2 * SCALED_A9_CONFIG.l1d.size),
)
CONFIGS = {
    "fixed": CampaignConfig(faults_per_component=100),
    "adaptive": CampaignConfig(target_margin=0.1),
    "beam": BeamCampaignConfig(beam_hours=300),
}


class TestDigests:
    def test_program_digest_is_stable(self):
        assert program_digest(CRC32, SCALED_A9_CONFIG) == program_digest(
            CRC32, dataclasses.replace(SCALED_A9_CONFIG)
        )

    def test_editing_the_source_changes_the_program_digest(self):
        assert program_digest(edited(CRC32), SCALED_A9_CONFIG) != program_digest(
            CRC32, SCALED_A9_CONFIG
        )

    def test_a_same_named_machine_is_another_digest(self):
        assert WIDE_L1D.name == SCALED_A9_CONFIG.name
        assert machine_digest(WIDE_L1D) != machine_digest(SCALED_A9_CONFIG)
        assert program_digest(CRC32, WIDE_L1D) != program_digest(
            CRC32, SCALED_A9_CONFIG
        )


@pytest.mark.parametrize("kind", CONFIGS)
class TestWhatRanIsInTheKey:
    def test_editing_the_workload_source_misses(self, kind):
        config = CONFIGS[kind]
        assert config.cache_key(edited(CRC32)) != config.cache_key(CRC32)

    def test_a_same_named_machine_with_other_geometry_misses(self, kind):
        config = CONFIGS[kind]
        wide = dataclasses.replace(config, machine=WIDE_L1D)
        assert wide.cache_key(CRC32) != config.cache_key(CRC32)


class TestKeyCollisions:
    @pytest.mark.parametrize(
        "first, second",
        [
            pytest.param(
                BeamCampaignConfig(beam_hours=300),
                BeamCampaignConfig(
                    beam_hours=300,
                    facility=dataclasses.replace(LANSCE, flux=2 * LANSCE.flux),
                ),
                id="beam-facility-flux",
            ),
            pytest.param(
                BeamCampaignConfig(beam_hours=300),
                BeamCampaignConfig(
                    beam_hours=300,
                    board=dataclasses.replace(
                        ZEDBOARD,
                        platform_sensitivity=2 * ZEDBOARD.platform_sensitivity,
                    ),
                ),
                id="same-named-board-sensitivity",
            ),
            pytest.param(
                BeamCampaignConfig(beam_hours=300.0000001),
                BeamCampaignConfig(beam_hours=300.0000002),
                id="close-beam-hours",
            ),
            pytest.param(
                CampaignConfig(target_margin=0.1000001),
                CampaignConfig(target_margin=0.1000002),
                id="close-target-margins",
            ),
        ],
    )
    def test_different_campaigns_get_different_keys(self, first, second):
        assert first.cache_key(CRC32) != second.cache_key(CRC32)

    def test_equal_values_share_a_key(self):
        assert BeamCampaignConfig(beam_hours=300).cache_key(CRC32) == (
            BeamCampaignConfig(beam_hours=300.0).cache_key(CRC32)
        )


def test_an_edited_workload_misses_the_cache_and_opens_a_fresh_journal(tmp_path):
    config = CampaignConfig(faults_per_component=2, seed=3)
    cache, journals = tmp_path / "cache", tmp_path / "journals"

    def run(workload):
        return InjectionCampaign(
            config, cache_dir=cache, journal_dir=journals, resume=True
        ).run_workload(workload, components=(Component.REGFILE,))

    original, changed = STRINGSEARCH, edited(STRINGSEARCH)
    run(original)
    run(changed)
    assert len(list(cache.glob("*.json"))) == 2
    paths = {
        workload: journals / (config.cache_key(workload) + ".jsonl")
        for workload in (original, changed)
    }
    metas = {w: read_journal(path)[0] for w, path in paths.items()}
    assert metas[original].golden_cycles == metas[changed].golden_cycles
    assert metas[changed].program_digest == program_digest(changed, SCALED_A9_CONFIG)
    assert metas[original].program_digest != metas[changed].program_digest
    with pytest.raises(InjectionError, match="program_digest"):
        InjectionJournal.resume(paths[original], metas[changed])
