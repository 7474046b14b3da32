"""One benchmark round in a fresh interpreter (started by ``run.py``).

Times its own set-up (interpreter start, imports, programs and oracle
outputs) from the parent's spawn stamp - ``time.monotonic`` is one
system-wide clock on Linux - then runs the workload with the clock on,
checks the outputs, and prints one JSON record as its last stdout line.

Isolation: the parent strips every ``REPRO_*`` variable from the
environment and hands over fresh cache/journal directories; an audit
hook here refuses any open of the shipped ``.repro_cache``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from pathlib import Path


def _guard_shipped_cache(root: Path) -> list[str]:
    """Refuse every open under ``<root>/.repro_cache``; returns the log."""
    shipped = str(root / ".repro_cache")
    refused: list[str] = []

    def hook(event: str, args: tuple) -> None:
        if event != "open" or not isinstance(args[0], (str, bytes, os.PathLike)):
            return
        path = os.path.abspath(os.fsdecode(args[0]))
        if path == shipped or path.startswith(shipped + os.sep):
            refused.append(path)
            raise PermissionError(f"benchmark must not touch {path}")

    sys.addaudithook(hook)
    return refused


class GcClock:
    """Time spent in, and number of, garbage collections (``gc.callbacks``)."""

    def __init__(self):
        self.seconds = 0.0
        self.collections = 0
        self._start = 0.0
        gc.callbacks.append(self._callback)

    def _callback(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start
            self.collections += 1


def peak_rss_mb() -> float:
    """This interpreter's resident high-water mark (VmHWM) in MiB."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--reference", action="store_true",
                        help="re-run sampled faults on the reference engine")
    args = parser.parse_args(argv)
    root = Path(args.root)
    refused = _guard_shipped_cache(root)
    leaked = sorted(name for name in os.environ if name.startswith("REPRO_"))

    import workloads

    workloads.build_inputs(args.workload)
    setup_s = time.monotonic() - args.spawned_at
    record = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    tracer = None
    if args.trace:
        from layers import LayerTracer

        tracer = LayerTracer().install()
    gc_clock = GcClock()
    tmp = Path(args.tmp)
    start = time.perf_counter()
    outcome = workloads.RUNNERS[args.workload](args.seed, args.seconds, tmp)
    wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    check_start = time.perf_counter()
    if outcome.deferred is not None and args.reference:
        outcome.failures.extend(workloads.reference_check(*outcome.deferred))
    check_s = time.perf_counter() - check_start
    if leaked:
        outcome.failures.append(f"REPRO_* variables reached the round: {leaked}")
    if refused:
        outcome.failures.append(f"opened the shipped cache: {refused[:3]}")
    units = dict(outcome.units or {})
    units["rest"] = wall_s - sum(units.values())
    record.update(
        wall_s=wall_s,
        units=units,
        check_s=check_s,
        experiments=outcome.experiments,
        quarantined=outcome.quarantined,
        injections_to_target=outcome.injections_to_target,
        failures=outcome.failures,
        peak_rss_mb=peak_rss_mb(),
        gc_s=gc_clock.seconds,
        gc_collections=gc_clock.collections,
    )
    if outcome.tallies is not None:
        record["tallies"] = outcome.tallies
    if tracer is not None:
        record["layers"] = tracer.metrics()
        record["absent"] = sorted(tracer.absent)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
