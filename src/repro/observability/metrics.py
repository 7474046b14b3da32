"""Metrics: the ``repro-metrics`` JSON envelope and a Prometheus registry.

Two views of the same numbers live here.

**The envelope.** One tiny JSON envelope wraps every metrics artifact
this repo emits - ``metrics.json`` from an injection campaign, the
``BENCH_<name>.json`` files the benchmark suite drops in ``results/``,
the fabric-smoke artifact from CI - so runs become diffable, greppable
artifacts with a uniform shape:

.. code-block:: json

    {
      "schema": "repro-metrics/2",
      "kind": "campaign",
      "name": "StringSearch",
      "values": { ... },
      "context": { ... },
      "spans": [ ... ],
      "registry": { ... }
    }

``values`` carries the numbers (for a campaign: the full telemetry
summary, including the per-component masking-mechanism propagation
stats); ``context`` carries identifying metadata (machine, seed, ...).
``repro-metrics/2`` adds two *optional* top-level keys: ``spans`` (a
list of structured-tracing span payloads, see
:mod:`repro.observability.tracing`) and ``registry`` (a
:meth:`MetricsRegistry.snapshot` at emit time).  They are written only
when provided, so a v2 envelope without either is byte-compatible with
v1 apart from the schema stamp - and :func:`read_metrics` still accepts
v1 artifacts, so existing ``results/BENCH_*.json`` files keep loading.

**The registry.** The fabric coordinator's ``GET /metrics`` endpoint,
the local ``repro inject --metrics-port`` exporter and the ``repro top``
dashboard all read from one :class:`MetricsRegistry` - counters and
gauges with labels, rendered in the Prometheus text exposition format
with nothing but the standard library (no client dependency; the format
is three line shapes).  Two feeding styles coexist:

- *event-time counters*: the coordinator increments
  ``repro_leases_total`` and friends as requests arrive;
- *collect-time samples*: callbacks registered with
  :meth:`MetricsRegistry.register_collector` run at render time and
  snapshot volatile state (store counts, worker staleness).  Campaign
  counts always take this path: :func:`telemetry_collector` mirrors one
  :class:`~repro.injection.telemetry.CampaignTelemetry` - a local run's
  or a coordinator campaign's - so both export their record's tallies
  (the journal's, or the fault store's) the same way.  :meth:`Counter.peg` raises a counter to an externally
  tracked monotonic total without ever lowering it.

:func:`parse_exposition` is the tiny line-format validator the tests and
the dashboard share.
"""

from __future__ import annotations

import json
import re
import threading
from pathlib import Path
from typing import Callable

METRICS_SCHEMA = "repro-metrics/2"
#: Envelope versions :func:`read_metrics` and :func:`write_metrics` accept.
SUPPORTED_SCHEMAS = ("repro-metrics/1", "repro-metrics/2")


def metrics_payload(
    kind: str,
    name: str,
    values: dict,
    context: dict | None = None,
    spans: list | None = None,
    registry: dict | None = None,
) -> dict:
    """Build one schema-stamped metrics envelope.

    ``spans`` and ``registry`` are the v2 extension points; omitted keys
    are omitted from the envelope entirely (not written as ``null``).
    """
    payload = {
        "schema": METRICS_SCHEMA,
        "kind": kind,
        "name": name,
        "values": values,
        "context": dict(context or {}),
    }
    if spans is not None:
        payload["spans"] = list(spans)
    if registry is not None:
        payload["registry"] = dict(registry)
    return payload


def write_metrics(path, payload: dict) -> Path:
    """Write a metrics envelope to ``path`` (pretty, trailing newline)."""
    if payload.get("schema") not in SUPPORTED_SCHEMAS:
        raise ValueError(
            f"refusing to write metrics without schema {METRICS_SCHEMA!r} "
            f"(got {payload.get('schema')!r})"
        )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def read_metrics(path) -> dict:
    """Read and validate a metrics envelope (any supported version)."""
    payload = json.loads(Path(path).read_text())
    if payload.get("schema") not in SUPPORTED_SCHEMAS:
        raise ValueError(
            f"{path}: not a {METRICS_SCHEMA} artifact "
            f"(schema {payload.get('schema')!r})"
        )
    return payload


def campaign_metrics(
    summary: dict,
    name: str,
    context: dict | None = None,
    spans: list | None = None,
    registry: dict | None = None,
) -> dict:
    """Wrap a :meth:`CampaignTelemetry.summary` dict as a metrics envelope."""
    return metrics_payload(
        "campaign", name, dict(summary), context, spans=spans,
        registry=registry,
    )


# -- the Prometheus registry -------------------------------------------------

#: Prometheus metric and label name shapes (the format's own grammar).
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
#: One sample line: name, optional {label="value",...} block, value.
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{((?:[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\",?)*)\})?"
    r" (-?(?:[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?|Inf)|NaN|\+Inf)$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _unescape_label(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def _format_value(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class _Metric:
    """One metric family: a name, a help string, labeled samples."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str = ""):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help_text
        #: ``(("label", "value"), ...)`` sorted -> float.
        self.samples: dict[tuple, float] = {}
        self._lock = threading.Lock()

    @staticmethod
    def _key(labels: dict) -> tuple:
        for label in labels:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        return tuple(sorted((k, str(v)) for k, v in labels.items()))

    def value(self, **labels) -> float:
        """Current value of one labeled sample (0.0 when never touched)."""
        return self.samples.get(self._key(labels), 0.0)


class Counter(_Metric):
    """Monotonically increasing metric."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` (must be >= 0) to one labeled sample."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = self._key(labels)
        with self._lock:
            self.samples[key] = self.samples.get(key, 0.0) + amount

    def peg(self, total: float, **labels) -> None:
        """Raise the sample to an externally tracked total (never lower).

        The bridge for collect-time feeding: a scrape that races a stale
        snapshot can never observe the counter going backwards.
        """
        key = self._key(labels)
        with self._lock:
            self.samples[key] = max(self.samples.get(key, 0.0), float(total))


class Gauge(_Metric):
    """Point-in-time metric; may go up or down."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        """Set one labeled sample."""
        key = self._key(labels)
        with self._lock:
            self.samples[key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Adjust one labeled sample by ``amount`` (may be negative)."""
        key = self._key(labels)
        with self._lock:
            self.samples[key] = self.samples.get(key, 0.0) + amount


class MetricsRegistry:
    """Thread-safe collection of metrics plus collect-time callbacks."""

    def __init__(self):
        self._metrics: dict[str, _Metric] = {}
        self._collectors: list[Callable[["MetricsRegistry"], None]] = []
        self._lock = threading.Lock()

    def counter(self, name: str, help_text: str = "") -> Counter:
        """Get or create the counter ``name``."""
        return self._get(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get(Gauge, name, help_text)

    def _get(self, cls, name: str, help_text: str) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help_text)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            if help_text and not metric.help:
                metric.help = help_text
            return metric

    def register_collector(
        self, collector: Callable[["MetricsRegistry"], None]
    ) -> None:
        """Run ``collector(registry)`` before every render/snapshot."""
        with self._lock:
            self._collectors.append(collector)

    def _collect(self) -> list[_Metric]:
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            collector(self)
        with self._lock:
            return sorted(self._metrics.values(), key=lambda m: m.name)

    def render(self) -> str:
        """The Prometheus text exposition of every metric."""
        lines: list[str] = []
        for metric in self._collect():
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            with metric._lock:
                samples = sorted(metric.samples.items())
            for key, value in samples:
                if key:
                    labels = ",".join(
                        f'{label}="{_escape_label(v)}"' for label, v in key
                    )
                    lines.append(
                        f"{metric.name}{{{labels}}} {_format_value(value)}"
                    )
                else:
                    lines.append(f"{metric.name} {_format_value(value)}")
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict:
        """JSON-friendly registry state (the ``repro-metrics/2`` embed)."""
        out: dict = {}
        for metric in self._collect():
            with metric._lock:
                samples = sorted(metric.samples.items())
            out[metric.name] = {
                "type": metric.kind,
                "help": metric.help,
                "samples": [
                    {"labels": dict(key), "value": value}
                    for key, value in samples
                ],
            }
        return out


def parse_exposition(text: str) -> dict[tuple[str, frozenset], float]:
    """Parse (and thereby validate) a Prometheus text exposition.

    Returns ``{(metric_name, frozenset(label_items)): value}`` and raises
    :class:`ValueError` on the first malformed line - this is the tiny
    line-format validator the CI smoke test and ``repro top`` share, not
    a general Prometheus client.
    """
    samples: dict[tuple[str, frozenset], float] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(f"line {number}: malformed comment {line!r}")
            if not _NAME_RE.match(parts[2]):
                raise ValueError(
                    f"line {number}: invalid metric name {parts[2]!r}"
                )
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {number}: malformed sample {line!r}")
        name, label_block, raw_value = match.groups()
        labels = {}
        if label_block:
            labels = {
                label: _unescape_label(value)
                for label, value in _LABEL_PAIR_RE.findall(label_block)
            }
        samples[(name, frozenset(labels.items()))] = float(raw_value)
    return samples


# -- feeding from campaign telemetry -----------------------------------------


def telemetry_collector(telemetry, campaign: str = "local"):
    """A collector mirroring a :class:`CampaignTelemetry` into a registry.

    Counters are pegged (telemetry totals are monotonic), the live rate
    is a gauge.  This backs both the local ``--metrics-port`` exporter
    and each fabric coordinator campaign, so dashboards need not care
    where a campaign ran.  The campaign may still be recording while a
    scrape runs, so the per-class tallies are copied before iterating.
    """

    def collect(registry: MetricsRegistry) -> None:
        registry.counter(
            "repro_injections_total", "Completed injections"
        ).peg(telemetry.completed, campaign=campaign)
        registry.counter(
            "repro_injections_replayed_total",
            "Completions replayed from a journal (not re-simulated)",
        ).peg(telemetry.replayed, campaign=campaign)
        registry.counter(
            "repro_quarantines_total", "Faults quarantined"
        ).peg(telemetry.quarantined, campaign=campaign)
        registry.counter(
            "repro_cycles_saved_total",
            "Golden cycles not simulated thanks to early termination",
        ).peg(telemetry.cycles_saved, campaign=campaign)
        registry.gauge(
            "repro_injections_per_second",
            "Live injection throughput (journal replays excluded)",
        ).set(telemetry.injections_per_second(), campaign=campaign)
        effects = registry.counter(
            "repro_fault_effects_total",
            "Completed injections by component and classified effect",
        )
        for component, tally in list(telemetry.class_counts.items()):
            for effect, count in list(tally.items()):
                effects.peg(
                    count,
                    campaign=campaign,
                    component=component.name,
                    effect=effect.name,
                )
        ended = registry.counter(
            "repro_early_exit_total",
            "Injections by termination mechanism",
        )
        ended.peg(telemetry.ended_full, campaign=campaign, mechanism="full")
        ended.peg(
            telemetry.ended_digest, campaign=campaign, mechanism="digest"
        )
        ended.peg(
            telemetry.ended_dead_cell,
            campaign=campaign,
            mechanism="dead-cell",
        )

    return collect


# -- the /metrics HTTP exporter ----------------------------------------------


def start_metrics_server(
    registry: MetricsRegistry, host: str = "127.0.0.1", port: int = 0
):
    """Serve ``registry`` on ``GET /metrics`` from a daemon thread.

    Returns the bound :class:`~http.server.ThreadingHTTPServer`
    (``server.server_address`` has the real port; port 0 picks a free
    one).  Call ``server.shutdown()`` + ``server.server_close()`` to stop
    - or let the process exit, the thread is a daemon.  This is the
    non-fabric ``repro inject --metrics-port`` exporter.
    """
    # Imported here, not at module level: every campaign imports this
    # module, and loading http.server raises a campaign's peak RSS by
    # about 3 MB even when nothing is served.
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class MetricsHandler(BaseHTTPRequestHandler):
        """Serves ``GET /metrics`` from ``registry``; 404 elsewhere."""

        protocol_version = "HTTP/1.1"

        def log_message(self, format: str, *args) -> None:
            """Silence per-scrape stderr chatter."""

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            if self.path.rstrip("/") not in ("", "/metrics"):
                body = b"only /metrics lives here\n"
                self.send_response(404)
            else:
                body = registry.render().encode()
                self.send_response(200)
            self.send_header("Content-Type", "text/plain; version=0.0.4")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    server = ThreadingHTTPServer((host, port), MetricsHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server
