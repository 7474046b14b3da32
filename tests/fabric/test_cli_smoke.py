"""Fabric CLI smoke: serve + workers + SIGKILL, through real processes.

The CI-facing acceptance path: a coordinator subprocess (``repro
serve``), worker subprocesses (``repro work``), and a client subprocess
(``repro inject --fabric``) run a small CRC32 campaign.  Mid-run the
coordinator is SIGKILLed - the real signal, not an in-process
approximation - and restarted on the same store, the coordinator's only
durable record; the client polls through the outage and the campaign
finishes with zero duplicated injections (proved by summing the executed
counts every worker prints, and by ``repro stats`` of the store).
Finally the fabric AVF breakdown is compared line-for-line against a
local serial run.

Observability rides along: ``/status`` and ``/metrics`` are curled
mid-campaign, the exposition is validated with
:func:`repro.observability.metrics.parse_exposition` (the tiny in-repo
validator), and the final scrape is written as a ``repro-metrics/2``
envelope - CI uploads it as an artifact next to ``metrics.json``
(``REPRO_FABRIC_METRICS`` overrides the output path).
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.observability.metrics import (
    metrics_payload,
    parse_exposition,
    write_metrics,
)

REPO = Path(__file__).resolve().parent.parent.parent
BENCHMARK = "CRC32"
FAULTS = 2  # per component, 6 components -> 12 faults total
EXECUTED_PATTERN = re.compile(r"executed (\d+) injection\(s\)")


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def repro(*args, env: dict | None = None) -> subprocess.Popen:
    merged = dict(os.environ)
    merged["PYTHONPATH"] = str(REPO / "src")
    merged.update(env or {})
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        cwd=REPO,
        env=merged,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def serve(tmp_path: Path, port: int) -> subprocess.Popen:
    process = repro(
        "serve",
        "--store", str(tmp_path / "faults.sqlite"),
        "--port", str(port),
        "--lease-size", "2",
        "--lease-ttl", "30",
    )
    deadline = time.monotonic() + 30
    url = f"http://127.0.0.1:{port}/ping"
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(url, timeout=1) as response:
                if json.loads(response.read().decode()).get("ok"):
                    return process
        except OSError:
            time.sleep(0.2)
        if process.poll() is not None:
            break
    out = process.stdout.read() if process.poll() is not None else ""
    process.kill()
    raise AssertionError(f"coordinator never came up on {port}: {out}")


def finish(process: subprocess.Popen, timeout: float) -> str:
    out, _ = process.communicate(timeout=timeout)
    assert process.returncode == 0, f"exit {process.returncode}:\n{out}"
    return out


def executed_count(worker_output: str) -> int:
    match = EXECUTED_PATTERN.search(worker_output)
    assert match, f"worker printed no executed count:\n{worker_output}"
    return int(match.group(1))


def scrape(url: str, path: str) -> str:
    with urllib.request.urlopen(f"{url}{path}", timeout=10) as response:
        assert response.status == 200
        return response.read().decode()


def validated_metrics(url: str) -> dict:
    """Curl ``/metrics`` and validate the exposition line format."""
    return parse_exposition(scrape(url, "/metrics"))


def breakdown_lines(output: str) -> list[str]:
    """The deterministic part of the inject stdout: AVF rows + FIT.

    The local run additionally prints a telemetry table (the fabric
    client has no local telemetry), so only the per-component AVF rows
    and the FIT line are compared.
    """
    return [
        line.strip()
        for line in output.splitlines()
        if ("AVF" in line and "|" not in line) or "predicted FIT" in line
    ]


@pytest.mark.slow
def test_fabric_smoke_with_coordinator_sigkill(tmp_path):
    cache = tmp_path / "cache"
    env_cache = {"REPRO_CACHE_DIR": str(cache)}
    port = free_port()
    url = f"http://127.0.0.1:{port}"

    coordinator = serve(tmp_path, port)
    workers: list[subprocess.Popen] = []
    client = None
    try:
        # The client submits the campaign and starts polling.
        client = repro(
            "inject", BENCHMARK, "-n", str(FAULTS), "--fabric", url,
            env=env_cache,
        )
        # Phase 1: one worker completes exactly one window (2 faults of
        # the 12), then the coordinator is SIGKILLed mid-campaign.
        first = repro("work", url, "--name", "first", "--max-windows", "1",
                      "--max-idle", "60", "--poll", "0.2")
        workers.append(first)
        first_out = finish(first, timeout=300)
        first_executed = executed_count(first_out)
        assert first_executed > 0

        # Mid-campaign observability: /status knows the campaign is
        # incomplete, /metrics parses and already counts the first
        # worker's completions.
        status = json.loads(scrape(url, "/status"))
        (campaign_entry,) = status["campaigns"].values()
        assert not campaign_entry["complete"]
        assert "first" in status["workers"]
        mid_samples = validated_metrics(url)
        mid_injections = sum(
            value
            for (name, _labels), value in mid_samples.items()
            if name == "repro_injections_total"
        )
        assert mid_injections == first_executed

        coordinator.send_signal(signal.SIGKILL)
        coordinator.wait(timeout=30)

        # Phase 2: restart on the same store; the campaign resumes and
        # the client - which never exited - keeps polling through the
        # outage.
        coordinator = serve(tmp_path, port)
        for name in ("second", "third"):
            workers.append(
                repro("work", url, "--name", name, "--max-idle", "25",
                      "--poll", "0.2")
            )
        total_executed = first_executed + sum(
            executed_count(finish(worker, timeout=600))
            for worker in workers[1:]
        )
        client_out = finish(client, timeout=600)
        client = None

        # Zero duplicated injections across the kill/restart boundary.
        assert total_executed == FAULTS * 6, (
            f"expected every fault exactly once, saw {total_executed}"
        )

        # Final scrape: the exposition still parses, reports completion,
        # and its per-campaign totals equal the full fault count (the
        # restarted coordinator replayed phase 1 from the store).
        final_samples = validated_metrics(url)
        final_injections = sum(
            value
            for (name, _labels), value in final_samples.items()
            if name == "repro_injections_total"
        )
        assert final_injections == FAULTS * 6
        assert 1.0 in {
            value
            for (name, _labels), value in final_samples.items()
            if name == "repro_campaign_complete"
        }

        # The store alone holds the whole campaign: every fault once,
        # none quarantined, across the kill.
        stats_path = tmp_path / "store-stats.json"
        finish(
            repro("stats", str(tmp_path / "faults.sqlite"),
                  "--metrics", str(stats_path)),
            timeout=120,
        )
        stored = json.loads(stats_path.read_text())["values"]
        assert stored["completed"] == FAULTS * 6
        assert stored["quarantined"] == 0

        # Ship the final scrape as a repro-metrics/2 envelope - the CI
        # artifact that lands next to the bench job's metrics.json.
        envelope_path = Path(
            os.environ.get(
                "REPRO_FABRIC_METRICS", tmp_path / "fabric-metrics.json"
            )
        )
        write_metrics(
            envelope_path,
            metrics_payload(
                "fabric-smoke",
                BENCHMARK,
                values={
                    "executed_total": total_executed,
                    "injections_total": final_injections,
                },
                context={"faults_per_component": FAULTS, "url": url},
                registry={
                    name: {
                        "samples": [
                            {"labels": dict(labels), "value": value}
                            for (sample_name, labels), value
                            in sorted(final_samples.items())
                            if sample_name == name
                        ]
                    }
                    for name in sorted(
                        {name for name, _labels in final_samples}
                    )
                },
            ),
        )

        # The fabric result is line-identical to a local serial run.
        local = repro(
            "inject", BENCHMARK, "-n", str(FAULTS),
            env={"REPRO_CACHE_DIR": str(tmp_path / "local_cache")},
        )
        local_out = finish(local, timeout=600)
        fabric_rows = breakdown_lines(client_out)
        local_rows = breakdown_lines(local_out)
        assert fabric_rows, f"no breakdown in fabric output:\n{client_out}"
        assert fabric_rows == local_rows
    finally:
        for process in [coordinator, client, *workers]:
            if process is not None and process.poll() is None:
                process.kill()
