"""Tests of the benchmark itself (not part of the program's test suite).

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py

The tiny runs take about a minute and a half on a 2-core host.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from layers import LayerTracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SECONDS = 1


@pytest.fixture(scope="module")
def tiny_runs():
    """One tiny traced run per workload at the default (pinned) seed."""
    return {
        workload: run.run(workload, seed=0, seconds=TINY_SECONDS, trace=True)
        for workload in run.WORKLOADS
    }


def test_benchmark_names_the_workloads():
    assert [entry["name"] for entry in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {entry["name"]: entry["unit"] for entry in BENCHMARK["end_to_end"]} == (
        run.END_TO_END_UNITS
    )
    assert {entry["name"]: entry["unit"] for entry in BENCHMARK["per_layer"]} == (
        run.per_layer_units()
    )


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(tiny_runs, workload):
    record, result = tiny_runs[workload]
    assert result["correct"], record["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    for section, key in (("end_to_end", "end_to_end"), ("per_layer", "per_layer")):
        emitted = record[key]
        for entry in BENCHMARK[section]:
            metric = emitted[entry["name"]]
            assert metric["unit"] == entry["unit"]
            assert isinstance(metric["value"], (int, float))
    for entry in BENCHMARK["end_to_end"]:
        assert record["end_to_end"][entry["name"]]["value"] > 0, entry["name"]
    assert record["absent_layers"] == []
    assert record["per_layer"]["host.trace_overhead"]["value"] > 0


def test_layers_light_up_on_their_workloads(tiny_runs):
    def layer(workload, name):
        return tiny_runs[workload][0]["per_layer"][name]["value"]

    assert layer("beam", "beam.strikes") > 0
    assert layer("beam", "microarch.translate.dispatches") == 0
    assert layer("inject", "observability.taint_installs") > 0
    assert layer("adaptive", "observability.taint_installs") == 0
    assert layer("adaptive", "injection.adaptive.rounds") > 1
    assert layer("inject", "injection.journal_records") == layer("inject", "injection.faults")
    for workload in ("inject", "adaptive"):
        ended = sum(
            layer(workload, f"injection.ended.{how}") for how in ("full", "digest", "dead_cell")
        )
        assert ended == layer(workload, "injection.faults") > 0


def test_perturbed_pinned_tally_fails_the_check(tiny_runs):
    record, _result = tiny_runs["inject"]
    tallies = record["rounds"][0]["tallies"]
    faults = workloads.sizes("inject", TINY_SECONDS)["faults_per_component"]
    pinned = workloads.load_pins()[workloads.pin_key(0, faults)]
    assert workloads.compare_tallies(tallies, pinned) == []
    perturbed = copy.deepcopy(pinned)
    counts = perturbed["CRC32"]["L1D"]
    effect = next(iter(counts))
    counts[effect] += 1
    failures = workloads.compare_tallies(tallies, perturbed)
    assert len(failures) == 1 and "CRC32/L1D" in failures[0]


def test_missing_layer_is_reported_absent():
    tracer = LayerTracer().install(
        [("gone", "repro.injection.campaign:no_such_function", "injection.gone"),
         ("gone2", "repro.no_such_module:f", "nowhere")]
    )
    tracer.uninstall()
    assert tracer.absent == {"injection.gone", "nowhere"}


def test_wrappers_are_removed_after_uninstall():
    import repro.injection.parallel as parallel
    from repro.microarch.digest import system_digest

    tracer = LayerTracer().install()
    assert parallel.system_digest is not system_digest
    tracer.uninstall()
    assert parallel.system_digest is system_digest


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "beam",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
