"""Benchmark of the scaled paper reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload inject --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` for what each drives and why):

- ``inject``: fault injection over all 13 codes x 6 components, journal
  on, ending with Fig. 4, Fig. 5 and Table IV;
- ``beam``: simulated beam campaigns over all 13 codes, ending with Fig. 3;
- ``adaptive``: learned-sampling adaptive campaigns on CRC32, no events.

Every pass runs single-process in a fresh interpreter with the campaign
seed derived from ``--seed``; ``--seconds`` sizes the work so the measured
phase lasts about that long on a 2-core x86 host.  ``inject`` and ``beam``
make two passes over the same inputs and keep each code's faster one
(``workloads.PASSES``).  Set-up is timed in several extra fresh
interpreters and reported as the median.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (workload start to
checked results, summed over rounds), ``setup_s``, ``ops_per_s`` (fault
experiments - injections or simulated strikes - per second of
``wall_s``), ``peak_rss_mb`` and ``injections_to_target`` (injections the
adaptive campaigns ran to meet every stratum's target; on ``inject`` the
fixed plan's injections, on ``beam`` the simulated strikes).

``--trace 1`` adds one pass per round with the layers' entry points
wrapped (``layers.py``) and prints the per-layer metrics plus
``host.trace_overhead`` = traced / mean untraced pass ``wall_s``.

The last stdout line is the result object; the line before it is the full
run record (host envelope, probes, every round).  ``--pin`` stores the
``inject`` tallies of this seed and size as the pinned reference.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import host  # noqa: E402
from layers import LAYER_OF  # noqa: E402

WORKLOADS = ("inject", "beam", "adaptive")
#: Extra set-up-only interpreters per run (each round's set-up also counts).
SETUP_REPEATS = 4
#: A run must end within this many seconds, whatever the host does.
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "injections_to_target": "count",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in LAYER_OF:
        if name.endswith("_per_s"):
            units[name] = "1/s"
        elif name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_ms"):
            units[name] = "ms"
        else:
            units[name] = "count"
    units.update({
        "failed_frac": "ratio",
        "host.gc_s": "s",
        "host.gc_collections": "count",
        "host.probe_s": "s",
        "host.trace_overhead": "ratio",
    })
    return units


class RoundFailed(RuntimeError):
    """A round's interpreter exited abnormally or printed no record."""


def child_env() -> dict:
    env = {
        name: value for name, value in os.environ.items()
        if not name.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str], tmp: Path, deadline: float) -> dict:
    """Run ``child.py`` in a fresh interpreter; returns its record."""
    tmp.mkdir(parents=True)
    spawned_at = time.monotonic()
    command = [
        sys.executable, str(HERE / "child.py"), *args,
        "--spawned-at", repr(spawned_at), "--root", str(ROOT), "--tmp", str(tmp),
    ]
    try:
        done = subprocess.run(
            command, cwd=tmp, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"round timed out: {' '.join(args)}") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RoundFailed(
            f"round {' '.join(args)} exited {done.returncode}:\n{done.stderr[-4000:]}"
        )
    return json.loads(lines[-1])


def fastest_parts(passes: list[dict]) -> dict:
    """One round from passes over identical inputs: each part's fastest pass.

    Outputs must agree across passes; any that differ fail the round.
    """
    first = passes[0]
    parts = {name: min(entry["units"][name] for entry in passes) for name in first["units"]}
    round_ = dict(first, units=parts, wall_s=sum(parts.values()))
    round_["pass_walls_s"] = [entry["wall_s"] for entry in passes]
    round_["peak_rss_mb"] = max(entry["peak_rss_mb"] for entry in passes)
    round_["failures"] = []
    for entry in passes[1:]:
        for key in ("experiments", "quarantined", "injections_to_target", "tallies"):
            if entry.get(key) != first.get(key):
                round_["failures"].append(f"passes disagree on {key}")
    return round_


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    import workloads

    deadline = time.monotonic() + DEADLINE_S
    shipped = ROOT / ".repro_cache"
    shipped_before = host.tree_state(shipped)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "host": host.envelope(ROOT),
    }
    work_root = ROOT / ".perfbench_tmp"
    work_root.mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    common = ["--workload", workload, "--seconds", str(seconds)]
    passes = []
    try:
        probe = host.HostProbe()
        record["probe_before"] = probe.measure()
        setups = [
            spawn(common + ["--seed", str(seed), "--setup-only"],
                  base / f"setup{index}", deadline)["setup_s"]
            for index in range(SETUP_REPEATS)
        ]
        rounds, traced = [], []
        for index, round_seed in enumerate(workloads.round_seeds(workload, seed, seconds)):
            args = common + ["--seed", str(round_seed)]
            done = [
                spawn(args + (["--reference"] if number == 0 else []),
                      base / f"round{index}-pass{number}", deadline)
                for number in range(workloads.PASSES[workload])
            ]
            passes += done
            rounds.append(fastest_parts(done))
            if trace:
                traced.append(spawn(args + ["--trace"], base / f"traced{index}", deadline))
        record["probe_after"] = probe.measure()
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still owns a directory here
    record["passes"] = passes
    record["rounds"] = rounds
    record["traced_rounds"] = traced
    setups += [entry["setup_s"] for entry in passes + traced]
    record["setups_s"] = setups

    failures = [
        failure for entry in passes + rounds + traced for failure in entry["failures"]
    ]
    if host.tree_state(shipped) != shipped_before:
        failures.append(".repro_cache changed during the run")
    record["failures"] = failures
    attempted = sum(entry["experiments"] for entry in rounds)
    failed = sum(entry["quarantined"] for entry in rounds)
    wall_s = sum(entry["wall_s"] for entry in rounds)
    values = {
        "wall_s": wall_s,
        "setup_s": statistics.median(setups),
        "ops_per_s": attempted / wall_s,
        "peak_rss_mb": max(entry["peak_rss_mb"] for entry in rounds),
        "injections_to_target": sum(e["injections_to_target"] for e in rounds),
    }
    record["end_to_end"] = {
        name: {"value": values[name], "unit": unit}
        for name, unit in END_TO_END_UNITS.items()
    }
    if trace:
        record["per_layer"] = layer_metrics(rounds, traced, record, attempted, failed)
    result = {
        "correct": not failures,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": record["per_layer" if trace else "end_to_end"],
    }
    return record, result


def layer_metrics(rounds, traced, record, attempted, failed) -> dict:
    values = {name: 0.0 for name in LAYER_OF}
    for entry in traced:
        for name, value in entry["layers"].items():
            values[name] = values.get(name, 0) + value
    # Quantities that do not add across rounds.
    for name in ("injection.fault_p50_ms", "injection.fault_p98_ms"):
        values[name] = statistics.median(entry["layers"][name] for entry in traced)
    run_s = values["microarch.run_s"]
    values["microarch.cycles_per_s"] = values["microarch.sim_cycles"] / run_s if run_s else 0.0
    values["failed_frac"] = failed / max(1, attempted)
    values["host.gc_s"] = sum(entry["gc_s"] for entry in rounds)
    values["host.gc_collections"] = sum(entry["gc_collections"] for entry in rounds)
    values["host.probe_s"] = (
        record["probe_before"]["total_s"] + record["probe_after"]["total_s"]
    ) / 2
    untraced = sum(statistics.mean(entry["pass_walls_s"]) for entry in rounds)
    values["host.trace_overhead"] = sum(entry["wall_s"] for entry in traced) / untraced
    absent = sorted({layer for entry in traced for layer in entry["absent"]})
    record["absent_layers"] = absent
    record["absent_metrics"] = sorted(
        name for name, layer in LAYER_OF.items() if layer in absent
    )
    units = per_layer_units()
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def pin(record: dict) -> None:
    import workloads

    pins = workloads.load_pins()
    faults = workloads.sizes("inject", record["seconds"])["faults_per_component"]
    pins[workloads.pin_key(record["seed"], faults)] = record["rounds"][0]["tallies"]
    workloads.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="store this run's inject tallies as the pinned reference")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.pin and args.workload != "inject":
        parser.error("--pin applies to the inject workload")
    sys.path.insert(1, str(ROOT / "src"))
    try:
        record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RoundFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for failure in record["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    for layer in record.get("absent_layers", []):
        print(f"layer absent (its metrics read 0): {layer}", file=sys.stderr)
    if args.pin:
        pin(record)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
