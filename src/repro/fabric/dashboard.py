"""``repro top`` - a live, curses-free fabric dashboard.

Polls a coordinator's ``/status`` and ``/metrics`` endpoints and redraws
one screen in place (plain ANSI clear-home, no curses, no deps):
per-campaign progress bars, per-worker throughput computed from
successive poll deltas, and loud warnings for workers whose heartbeat
went silent past the coordinator's TTL.

Rendering is a pure function (:func:`render_dashboard`) over the two
endpoint payloads, so tests drive it with literal dicts; the poll loop
(:func:`top`) owns only timing, delta-rate bookkeeping and terminal
control.  ``--plain`` drops the ANSI clear (append frames instead of
redrawing) for dumb terminals and CI logs.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.fabric.protocol import FabricUnavailable, get_json, get_text
from repro.observability.metrics import parse_exposition

#: Progress-bar glyphs (ASCII so any terminal renders them).
BAR_WIDTH = 30
_CLEAR_HOME = "\x1b[H\x1b[2J"


def _bar(done: int, total: int, width: int = BAR_WIDTH) -> str:
    if total <= 0:
        return "[" + "-" * width + "]"
    filled = int(width * min(done, total) / total)
    return "[" + "#" * filled + "." * (width - filled) + "]"


def _fmt_age(age) -> str:
    if age is None:
        return "never"
    if age < 60:
        return f"{age:.0f}s"
    return f"{age / 60:.1f}m"


def render_dashboard(
    status: dict,
    metrics: dict | None,
    url: str,
    rates: dict[str, float] | None = None,
) -> str:
    """One dashboard frame from a ``/status`` payload (+ parsed metrics).

    ``metrics`` is the :func:`~repro.observability.metrics.parse_exposition`
    sample dict (or ``None`` when the scrape failed); ``rates`` maps
    worker name to injections/sec computed by the caller from successive
    ``/status`` deltas.
    """
    rates = rates or {}
    lines = [f"repro top - {url}", ""]

    campaigns = status.get("campaigns", {})
    if not campaigns:
        lines.append("no campaigns submitted")
    for campaign_id, entry in sorted(campaigns.items()):
        counts = entry.get("counts", {})
        total = entry.get("total", 0)
        done = counts.get("done", 0) + counts.get("quarantined", 0)
        state = "done" if entry.get("complete") else "running"
        lines.append(
            f"campaign {campaign_id}  {_bar(done, total)} "
            f"{done}/{total} ({state}, leased {counts.get('leased', 0)}, "
            f"pending {counts.get('pending', 0)})"
        )
    lines.append("")

    workers = status.get("workers", {})
    ttl = status.get("worker_ttl")
    if workers:
        lines.append(
            f"{'worker':24s} {'done':>7s} {'leases':>7s} {'inj/s':>7s} "
            f"{'rss':>9s} {'seen':>7s}"
        )
        for name, entry in sorted(workers.items()):
            health = entry.get("health") or {}
            rss_kb = health.get("rss_kb")
            rate = rates.get(name)
            row = (
                f"{name:24s} {entry.get('completed', 0):>7d} "
                f"{entry.get('leases', 0):>7d} "
                f"{f'{rate:.1f}' if rate is not None else '-':>7s} "
                f"{f'{rss_kb // 1024}MB' if rss_kb else '-':>9s} "
                f"{_fmt_age(entry.get('age')):>7s}"
            )
            if entry.get("stale"):
                row += "  ** STALE **"
            lines.append(row)
    else:
        lines.append("no workers seen yet")
    stale = status.get("stale_workers", [])
    if stale:
        lines.append("")
        lines.append(
            f"WARNING: {len(stale)} stale worker(s) "
            f"(silent > {ttl}s): {', '.join(stale)}"
        )

    if metrics:
        lines.append("")
        rate = sum(
            value
            for (name, _labels), value in metrics.items()
            if name == "repro_injections_per_second"
        )
        total_inj = sum(
            value
            for (name, _labels), value in metrics.items()
            if name == "repro_injections_total"
        )
        lines.append(
            f"fabric: {int(total_inj)} injections recorded, "
            f"{rate:.1f} inj/s live, "
            f"{int(status.get('executed_total', 0))} store-wide terminal"
        )
    return "\n".join(lines) + "\n"


def top(
    url: str,
    interval: float = 2.0,
    frames: int | None = None,
    plain: bool = False,
    write: Callable[[str], None] | None = None,
    clock: Callable[[], float] = time.monotonic,
) -> int:
    """The ``repro top`` loop; returns a process exit code.

    ``frames`` bounds redraws (``None`` runs until interrupted - the
    interactive mode); ``plain`` appends frames instead of clearing the
    screen.  ``write``/``clock`` are test seams.
    """
    import sys

    write = write or (lambda text: (sys.stdout.write(text), sys.stdout.flush()))
    url = url.rstrip("/")
    previous: dict[str, tuple[float, int]] = {}
    drawn = 0
    while frames is None or drawn < frames:
        try:
            status = get_json(f"{url}/status")
        except FabricUnavailable as exc:
            write(("" if plain else _CLEAR_HOME) + f"repro top - {exc}\n")
            drawn += 1
            if frames is None or drawn < frames:
                time.sleep(interval)
            continue
        try:
            metrics = parse_exposition(get_text(f"{url}/metrics"))
        except (FabricUnavailable, ValueError):
            metrics = None
        now = clock()
        rates: dict[str, float] = {}
        for name, entry in status.get("workers", {}).items():
            completed = entry.get("completed", 0)
            if name in previous:
                then, before = previous[name]
                if now > then:
                    rates[name] = max(0.0, (completed - before) / (now - then))
            previous[name] = (now, completed)
        frame = render_dashboard(status, metrics, url, rates)
        write(("" if plain else _CLEAR_HOME) + frame)
        drawn += 1
        if frames is None or drawn < frames:
            time.sleep(interval)
    return 0
