"""Fault-lifetime observability: typed events, taint probes, metrics.

This package turns each injection from a single final ``FaultEffect``
into a trajectory: the flip, the first time the machine touches the
tainted cell (read, overwrite, eviction, writeback), the first
architectural divergence from the golden run, and the terminal outcome,
all stamped with the cycle they happened at.  The probes are pure
observation - with them installed the classified effect of every fault
is bit-identical to an unobserved run.
"""

from repro.observability.events import (
    EV_CONVERGE,
    EV_DIVERGE,
    EV_EVICT,
    EV_FLIP,
    EV_OUTCOME,
    EV_READ,
    EV_WRITE_OVER,
    EV_WRITEBACK,
    MECH_NEVER_READ,
    MECH_OVERWRITE,
    MECH_READ_CONVERGED,
    FaultLifetime,
    LifetimeEvent,
    events_from_payload,
    first_event,
    masking_mechanism,
)
from repro.observability.jsonlog import JsonLogger, text_events
from repro.observability.metrics import (
    METRICS_SCHEMA,
    SUPPORTED_SCHEMAS,
    MetricsRegistry,
    campaign_metrics,
    metrics_payload,
    parse_exposition,
    read_metrics,
    start_metrics_server,
    telemetry_collector,
    write_metrics,
)
from repro.observability.tracing import (
    Span,
    TraceLog,
    Tracer,
    pack_trace,
    read_spans,
    span_path,
    span_tree,
    unpack_trace,
)
from repro.observability.taint import (
    CacheTaintProbe,
    MemoryTaintProbe,
    RegfileTaintProbe,
    TLBTaintProbe,
    install_taint,
)

__all__ = [
    "EV_FLIP",
    "EV_READ",
    "EV_WRITE_OVER",
    "EV_EVICT",
    "EV_WRITEBACK",
    "EV_DIVERGE",
    "EV_CONVERGE",
    "EV_OUTCOME",
    "MECH_OVERWRITE",
    "MECH_NEVER_READ",
    "MECH_READ_CONVERGED",
    "LifetimeEvent",
    "FaultLifetime",
    "events_from_payload",
    "first_event",
    "masking_mechanism",
    "CacheTaintProbe",
    "TLBTaintProbe",
    "RegfileTaintProbe",
    "MemoryTaintProbe",
    "install_taint",
    "METRICS_SCHEMA",
    "SUPPORTED_SCHEMAS",
    "metrics_payload",
    "write_metrics",
    "read_metrics",
    "campaign_metrics",
    "MetricsRegistry",
    "parse_exposition",
    "start_metrics_server",
    "telemetry_collector",
    "JsonLogger",
    "text_events",
    "Span",
    "Tracer",
    "TraceLog",
    "pack_trace",
    "unpack_trace",
    "read_spans",
    "span_tree",
    "span_path",
]
