"""Execution profiling: per-op dispatch counters and translator statistics.

``repro run --profile`` / ``repro inject --profile`` answer two questions
about a campaign's execution engine that throughput numbers alone cannot:

- *What still runs interpreted?*  :func:`enable_op_counts` arms a per-op
  histogram on the core that every **interpreted** dispatch bumps.
  Translated instructions never appear in it, so on a translation-enabled
  run the histogram *is* the fallback profile - the ops (and, by
  extension, the code shapes) the translator keeps handing back to the
  interpreter.
- *What did the translator do?*  :func:`translator_stats` snapshots the
  :class:`~repro.microarch.translate.BlockTranslator` counters: blocks and
  superblocks compiled, dispatcher entries, chained block-to-block
  transfers, superblock loop iterations (compiled in only under
  ``profile=True``), guard failures/evictions, and the refusal histogram
  (why regions were *not* translated - the fallback-reasons table of
  ``docs/PERFORMANCE.md`` in live form).

Both are observation-only: arming them never changes an architectural
result (the counter branch costs one local ``is not None`` test per
interpreted dispatch, and iteration counters compile into superblocks as
dead weight on the same control paths).  :func:`profile_metrics` wraps
everything in the standard ``repro-metrics/2`` envelope so profiles land
next to campaign metrics and benchmark artifacts.

:func:`process_stats` is the odd one out: host-process stats (pid, rss)
rather than simulator stats.  Fabric workers ship it - together with
:func:`translator_stats` - as the *health* dict on every report and
heartbeat, which is what ``/status`` and ``repro top`` render per worker.
"""

from __future__ import annotations

import os

from repro.microarch.core import _HANDLERS
from repro.observability.metrics import metrics_payload

#: handler function -> mnemonic, derived once from the decode table.
_HANDLER_NAMES = {handler: op.name for op, handler in _HANDLERS.items()}


def enable_op_counts(core) -> dict:
    """Arm (or return the already-armed) per-op dispatch histogram."""
    if core.op_counts is None:
        core.op_counts = {}
    return core.op_counts


def op_dispatch_counts(core) -> dict[str, int]:
    """The armed histogram as ``{mnemonic: interpreted dispatches}``.

    Sorted by descending count so the dominant fallback op leads; empty
    when profiling was never armed or nothing was interpreted.
    """
    counts = core.op_counts or {}
    named = {
        _HANDLER_NAMES.get(handler, repr(handler)): count
        for handler, count in counts.items()
    }
    return dict(sorted(named.items(), key=lambda item: (-item[1], item[0])))


def translator_stats(translator) -> dict:
    """Snapshot one translator's counters (all zero-cost to keep).

    ``superblock_iterations`` is only non-zero when the translator was
    built with ``profile=True`` - the per-iteration counter is compiled
    into superblock bodies and skipped otherwise.
    """
    if translator is None:
        return {"enabled": False}
    return {
        "enabled": True,
        "blocks_compiled": translator.compiled,
        "superblocks_compiled": translator.compiled_superblocks,
        "dispatches": translator.dispatches,
        "block_runs": translator.block_runs,
        "chain_hits": translator.chain_hits,
        "superblock_iterations": translator.stats["superblock_iterations"],
        "guard_failures": translator.guard_failures,
        "evictions": translator.evictions,
        "refusals": dict(
            sorted(
                translator.refusals.items(),
                key=lambda item: (-item[1], item[0]),
            )
        ),
    }


def process_stats() -> dict:
    """Host stats of this process: ``{"pid", "rss_kb"}``.

    Reads ``/proc/self/status`` (Linux) and falls back to
    ``resource.getrusage`` elsewhere; ``rss_kb`` is 0 when neither
    source is available - health reporting must never fail a worker.
    """
    rss_kb = 0
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    rss_kb = int(line.split()[1])
                    break
    except (OSError, ValueError, IndexError):
        try:
            import resource

            usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            # ru_maxrss is KiB on Linux, bytes on macOS.
            rss_kb = usage // 1024 if usage > 1 << 32 else usage
        except Exception:  # noqa: BLE001 - stats are best-effort
            rss_kb = 0
    return {"pid": os.getpid(), "rss_kb": int(rss_kb)}


def execution_profile(core, translator=None) -> dict:
    """Combined profile of a finished run or campaign (the ``values``
    payload).

    ``instructions`` is derived from two monotonic counters - the per-op
    histogram (interpreted) and the translator's translated-instruction
    accumulator - rather than ``core.icount``, which snapshot restores
    roll back between a campaign's injections.  For a single ``repro
    run`` the sum equals ``core.icount``; for a campaign it is the total
    work across every injected run.
    """
    tr = translator if translator is not None else core.translator
    interpreted = sum((core.op_counts or {}).values())
    translated = tr.translated_instructions if tr is not None else 0
    return {
        "instructions": interpreted + translated,
        "interpreted": interpreted,
        "translated": translated,
        "op_dispatches": op_dispatch_counts(core),
        "translator": translator_stats(tr),
    }


def profile_metrics(name: str, profile: dict, context: dict | None = None) -> dict:
    """Wrap an :func:`execution_profile` dict as a metrics envelope
    (``kind="profile"``)."""
    return metrics_payload("profile", name, profile, context)


def format_profile(profile: dict, top: int = 12) -> str:
    """Human-readable profile block (the ``--profile`` stdout report)."""
    lines = ["execution profile:"]
    total = profile["instructions"] or 1
    lines.append(
        f"  instructions     {profile['instructions']:>14,}  "
        f"(interpreted {profile['interpreted']:,} = "
        f"{100.0 * profile['interpreted'] / total:.1f}%, "
        f"translated {profile['translated']:,})"
    )
    stats = profile["translator"]
    if stats.get("enabled"):
        lines.append(
            f"  translator       blocks {stats['blocks_compiled']} "
            f"(superblocks {stats['superblocks_compiled']}), "
            f"dispatches {stats['dispatches']:,}, "
            f"block runs {stats['block_runs']:,}, "
            f"chain hits {stats['chain_hits']:,}"
        )
        lines.append(
            f"                   superblock iterations "
            f"{stats['superblock_iterations']:,}, "
            f"guard failures {stats['guard_failures']:,}, "
            f"evictions {stats['evictions']:,}"
        )
        if stats["refusals"]:
            refused = ", ".join(
                f"{reason}={count}"
                for reason, count in stats["refusals"].items()
            )
            lines.append(f"  refusals         {refused}")
    else:
        lines.append("  translator       disabled")
    dispatches = profile["op_dispatches"]
    if dispatches:
        lines.append(f"  interpreted ops  (top {min(top, len(dispatches))})")
        for name, count in list(dispatches.items())[:top]:
            lines.append(f"    {name:10s} {count:>12,}")
    return "\n".join(lines)
