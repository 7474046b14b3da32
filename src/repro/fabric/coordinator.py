"""Fabric coordinator: the campaign-owning side of the work queue.

The coordinator is the only process that touches the fault store, the
fabric's one durable record.  It accepts campaign submissions,
regenerates each campaign's deterministic fault lists (a
:class:`CampaignSpec` plus :func:`~repro.injection.campaign.build_fault_plan`
is all it takes - no simulation happens here), registers them in the
store, and hands out contiguous index-window leases to whichever workers
ask.  Completed records flow back as journal lines; each is parsed once
into an :class:`~repro.injection.journal.InjectionRecord` (or
:class:`~repro.injection.journal.QuarantineRecord`), and that one object
is committed to the store, then tallied by the campaign's telemetry.
``repro stats <store>`` reads the same rows back.

Crash story (the DAVOS posture: the harness itself is fault-tolerant):

- every accepted report is committed to sqlite *before* it is
  acknowledged, so a SIGKILL between any two statements loses at most
  unacknowledged work, which the worker simply reports again;
- on startup the coordinator reloads every campaign persisted in the
  store and rebuilds its telemetry from the terminal rows in its scope;
- a restarted coordinator therefore resumes mid-campaign with zero
  re-executed faults (the CI smoke test SIGKILLs one mid-run to pin
  this).

Transport is deliberately boring: a stdlib ``ThreadingHTTPServer``
speaking the JSON bodies of :mod:`repro.fabric.protocol` - no new
dependencies, same-machine and cross-host alike.

Observability (all off the hot path):

- ``GET /metrics`` renders a Prometheus text exposition from the
  coordinator's :class:`~repro.observability.metrics.MetricsRegistry` -
  event-time counters for submits, leases, reports and heartbeats, and
  collect-time samples for store counts and worker health;
- each campaign owns a :class:`~repro.injection.telemetry.CampaignTelemetry`
  that replays the campaign's store rows at activation and records every
  accepted report; :func:`~repro.observability.metrics.telemetry_collector`
  exports it exactly as a local ``--metrics-port`` run does, so the
  campaign counts are the store's across restarts;
- ``POST /heartbeat`` lets idle workers stay visible; a worker silent
  for ``worker_ttl`` seconds is flagged *stale* in ``/status`` (leases
  already self-heal via the store's TTL - staleness is a monitoring
  signal, not a correctness mechanism);
- with a ``trace_dir`` each campaign gets a ``<id>.trace.jsonl`` span
  log there: a ``submit`` root span, a ``lease`` span per
  window handed out, worker-shipped ``window`` spans and a ``report``
  span per lease report, all one trace (see
  :mod:`repro.observability.tracing`).
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable

from repro.fabric.protocol import (
    CampaignSpec,
    FabricError,
    identity_base,
)
from repro.fabric.store import DONE, FaultStore, QUARANTINED, stored_records
from repro.injection.campaign import (
    CampaignConfig,
    ComponentResult,
    WorkloadResult,
    build_fault_plan,
)
from repro.injection.components import Component, component_bits
from repro.injection.fault import Fault
from repro.injection.journal import InjectionRecord, QuarantineRecord
from repro.injection.telemetry import CampaignTelemetry
from repro.observability.metrics import MetricsRegistry, telemetry_collector
from repro.observability.tracing import (
    TraceLog,
    Tracer,
    pack_trace,
    unpack_trace,
)

#: Default seconds a lease stays valid without a report.
DEFAULT_LEASE_TTL = 300.0
#: Default fault indices per lease window.
DEFAULT_LEASE_SIZE = 8
#: Default seconds of silence before a worker is flagged stale.
DEFAULT_WORKER_TTL = 30.0


class _ActiveCampaign:
    """One submitted campaign: spec, regenerated plan, scope, and the
    telemetry its ``/metrics`` samples are read from."""

    def __init__(
        self,
        spec: CampaignSpec,
        config: CampaignConfig,
        plan: dict[Component, list[Fault]],
    ):
        self.spec = spec
        self.config = config
        self.plan = plan
        self.base = identity_base(spec)
        self.telemetry = CampaignTelemetry()
        #: Store-scope bounds: component name -> this campaign's index cap.
        self.limits = {
            component.name: len(faults) for component, faults in plan.items()
        }
        #: Tracing scaffolding (populated only when the coordinator has a
        #: ``trace_dir``): one tracer/trace-log per campaign, with
        #: the ``submit`` span rooting every lease handed out.
        self.tracer: Tracer | None = None
        self.trace_log: TraceLog | None = None
        self.submit_span_id: str | None = None


class Coordinator:
    """Campaign registry + lease broker over one fault store.

    Thread-safe: HTTP handler threads call straight in; one lock
    serializes campaign state (the store has its own).  Tracing is on
    exactly when ``trace_dir`` is set: it then holds one
    ``<campaign id>.trace.jsonl`` span log per campaign.
    """

    def __init__(
        self,
        store: FaultStore,
        *,
        trace_dir: Path | None = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        lease_size: int = DEFAULT_LEASE_SIZE,
        progress: Callable[[str], None] | None = None,
        worker_ttl: float = DEFAULT_WORKER_TTL,
        events: Callable[..., None] | None = None,
    ):
        self.store = store
        self.trace_dir = trace_dir
        self.lease_ttl = lease_ttl
        self.lease_size = lease_size
        self.worker_ttl = worker_ttl
        self._progress = progress or (lambda message: None)
        #: Structured-event hook ``(event, **fields)`` - a
        #: :class:`~repro.observability.jsonlog.JsonLogger` under
        #: ``--log-json``, a no-op otherwise.
        self._events = events or (lambda event, **fields: None)
        self._lock = threading.RLock()
        self._campaigns: dict[str, _ActiveCampaign] = {}
        #: Per-worker progress: name -> {completed, quarantined, leases,
        #: last_seen, health} (the per-worker-host view the status
        #: endpoint and ``/metrics`` render).
        self.workers: dict[str, dict] = {}
        #: The Prometheus registry behind ``GET /metrics``: counters fed
        #: at event time (submit/lease/report), campaign telemetry and
        #: gauges snapshotted by :meth:`_collect_gauges` at scrape time.
        self.registry = MetricsRegistry()
        self.registry.register_collector(self._collect_gauges)
        for campaign_id, spec_payload in self.store.campaigns().items():
            try:
                spec = CampaignSpec.from_payload(spec_payload)
            except FabricError as exc:
                raise FabricError(
                    f"stored campaign {campaign_id}: {exc}"
                ) from None
            self._activate(spec)

    # -- campaign lifecycle --------------------------------------------------

    def submit(self, spec_payload: dict, trace_context: dict | None = None) -> dict:
        """Register a campaign (idempotent); returns id + dedup counts.

        ``trace_context`` is an optional client-side span context (the
        ``"trace"`` sibling of ``"spec"`` in the request body); when
        tracing is armed it parents the campaign's ``submit`` span so a
        client-held trace id spans the whole fabric.
        """
        spec = CampaignSpec.from_payload(spec_payload)
        with self._lock:
            already = spec.campaign_id in self._campaigns
            campaign = self._activate(spec, trace_context)
            if not already:
                self.store.save_campaign(spec.campaign_id, spec.to_payload())
            counts = self.store.counts(campaign.base, campaign.limits)
        total = sum(counts.values())
        self.registry.counter(
            "repro_submits_total", "Campaign submissions accepted"
        ).inc(campaign=spec.campaign_id)
        self._progress(
            f"fabric: campaign {spec.campaign_id} ({spec.workload}, "
            f"n={spec.faults_per_component}) submitted - "
            f"{counts[DONE] + counts[QUARANTINED]}/{total} already in store"
        )
        self._events(
            "submit",
            campaign_id=spec.campaign_id,
            workload=spec.workload,
            total=total,
            already_done=counts[DONE] + counts[QUARANTINED],
        )
        return {
            "campaign_id": spec.campaign_id,
            "total": total,
            "already_done": counts[DONE] + counts[QUARANTINED],
        }

    def _activate(
        self, spec: CampaignSpec, trace_context: dict | None = None
    ) -> _ActiveCampaign:
        """Build (or return) the in-memory state of one campaign.

        Regenerates the fault plan from the spec and registers every
        fault row (``INSERT OR IGNORE`` - the dedup).  Every row already
        terminal in the campaign's scope - reported before a restart, or
        finished by another campaign sharing the identity - is fed to the
        campaign's telemetry as *replayed*, so the exported tallies always
        equal the store's and replays never pollute live throughput.
        """
        with self._lock:
            campaign = self._campaigns.get(spec.campaign_id)
            if campaign is not None:
                return campaign
            config = spec.to_config()
            plan = build_fault_plan(
                config, spec.golden_cycles, spec.component_list()
            )
            campaign = _ActiveCampaign(spec, config, plan)
            for component, faults in plan.items():
                self.store.register(campaign.base, component.name, faults)
            if self.trace_dir is not None:
                context = unpack_trace(trace_context)
                campaign.tracer = Tracer(
                    trace_id=context[0] if context else None
                )
                campaign.trace_log = TraceLog(
                    self.trace_dir / f"{spec.campaign_id}.trace.jsonl"
                )
                span = campaign.tracer.start_span(
                    "submit",
                    parent_id=context[1] if context else None,
                    attributes={
                        "campaign": spec.campaign_id,
                        "workload": spec.workload,
                    },
                )
                campaign.submit_span_id = span.span_id
            injections, quarantines = stored_records(self.store, spec)
            campaign.telemetry.replay(injections, quarantines)
            if campaign.tracer is not None:
                campaign.tracer.end_span(span, replayed=len(injections))
                campaign.trace_log.append(campaign.tracer.drain())
            self._campaigns[spec.campaign_id] = campaign
            return campaign

    # -- work queue ----------------------------------------------------------

    def lease(self, worker: str, count: int | None = None) -> dict:
        """Hand one index window to ``worker``, or report idleness.

        Scans active campaigns in submission order so concurrent
        campaigns drain oldest-first; the store guarantees no index is in
        two live leases.
        """
        count = count or self.lease_size
        entry = self._worker_entry(worker)
        with self._lock:
            for campaign in self._campaigns.values():
                lease = self.store.lease(
                    campaign.base, campaign.limits, count, self.lease_ttl
                )
                if lease is not None:
                    entry["leases"] += 1
                    response = {
                        "campaign": campaign.spec.to_payload(),
                        "campaign_id": campaign.spec.campaign_id,
                        **lease.to_payload(),
                    }
                    self.registry.counter(
                        "repro_leases_total", "Index windows handed out"
                    ).inc(campaign=campaign.spec.campaign_id, worker=worker)
                    self._events(
                        "lease",
                        campaign_id=campaign.spec.campaign_id,
                        worker=worker,
                        component=response.get("component"),
                        start=response.get("start"),
                        stop=response.get("stop"),
                    )
                    if campaign.tracer is not None:
                        span = campaign.tracer.start_span(
                            "lease",
                            parent_id=campaign.submit_span_id,
                            attributes={
                                "worker": worker,
                                "component": response.get("component"),
                                "start": response.get("start"),
                                "stop": response.get("stop"),
                                "lease_id": response.get("lease_id"),
                            },
                        )
                        campaign.tracer.end_span(span)
                        campaign.trace_log.append(campaign.tracer.drain())
                        response["trace"] = pack_trace(span)
                    return response
        return {"idle": True}

    def report(self, payload: dict) -> dict:
        """Accept one lease's results; store + tally the novel ones.

        Every record is committed to the store first (first writer wins);
        only accepted rows reach the telemetry, so a stale worker
        double-reporting after a lease expiry changes nothing.
        """
        campaign = self._campaign(payload["campaign_id"])
        worker = payload.get("worker", "?")
        entry = self._worker_entry(worker)
        self._record_health(entry, payload.get("health"))
        accepted = 0
        duplicates = 0
        with self._lock:
            for line in payload.get("records", ()):
                record = InjectionRecord.from_line(line)
                if self.store.complete(campaign.base, record):
                    campaign.telemetry.record(record)
                    accepted += 1
                    entry["completed"] += 1
                else:
                    duplicates += 1
            for line in payload.get("quarantines", ()):
                record = QuarantineRecord.from_line(line)
                if self.store.quarantine(campaign.base, record):
                    campaign.telemetry.record_quarantine(record)
                    entry["quarantined"] += 1
                else:
                    duplicates += 1
            if duplicates:
                self.registry.counter(
                    "repro_duplicate_reports_total",
                    "Already-terminal faults reported again and ignored",
                ).inc(duplicates, campaign=campaign.spec.campaign_id)
            self.registry.counter(
                "repro_reports_total", "Lease reports accepted"
            ).inc(campaign=campaign.spec.campaign_id, worker=worker)
            if campaign.tracer is not None:
                context = unpack_trace(payload.get("trace"))
                span = campaign.tracer.start_span(
                    "report",
                    parent_id=(
                        context[1] if context else campaign.submit_span_id
                    ),
                    attributes={
                        "worker": worker,
                        "accepted": accepted,
                        "duplicates": duplicates,
                    },
                )
                campaign.tracer.end_span(span)
                shipped = payload.get("spans")
                if isinstance(shipped, list):
                    campaign.trace_log.append(
                        span for span in shipped if isinstance(span, dict)
                    )
                campaign.trace_log.append(campaign.tracer.drain())
        if duplicates:
            self._progress(
                f"fabric: {worker} reported {duplicates} already-terminal "
                f"fault(s) (expired lease or concurrent campaign) - ignored"
            )
        self._events(
            "report",
            campaign_id=campaign.spec.campaign_id,
            worker=worker,
            accepted=accepted,
            duplicates=duplicates,
        )
        return {"accepted": accepted, "duplicates": duplicates}

    def heartbeat(self, payload: dict) -> dict:
        """Record a worker's liveness + host stats (``POST /heartbeat``).

        Heartbeats carry no work - they only refresh ``last_seen`` and
        the health dict (pid, rss, windows completed, translator stats)
        so ``/status`` and ``/metrics`` can tell an idle worker from a
        dead one.
        """
        worker = payload.get("worker", "?")
        entry = self._worker_entry(worker)
        self._record_health(entry, payload.get("health"))
        self.registry.counter(
            "repro_heartbeats_total", "Worker heartbeats received"
        ).inc(worker=worker)
        self._events("heartbeat", worker=worker)
        return {"ok": True, "worker_ttl": self.worker_ttl}

    def _record_health(self, entry: dict, health) -> None:
        with self._lock:
            if isinstance(health, dict):
                entry["health"] = dict(health)

    # -- introspection -------------------------------------------------------

    def status(self, campaign_id: str | None = None) -> dict:
        """Progress counters - one campaign's, or the whole fabric's."""
        with self._lock:
            if campaign_id is not None:
                campaign = self._campaign(campaign_id)
                counts = self.store.counts(campaign.base, campaign.limits)
                total = sum(counts.values())
                return {
                    "campaign_id": campaign_id,
                    "counts": counts,
                    "total": total,
                    "complete": counts[DONE] + counts[QUARANTINED] == total,
                }
            now = time.time()
            workers = {}
            for name, entry in self.workers.items():
                age = now - entry["last_seen"] if entry["last_seen"] else None
                workers[name] = {
                    **entry,
                    "age": age,
                    "stale": age is None or age > self.worker_ttl,
                }
            return {
                "campaigns": {
                    campaign_id: self.status(campaign_id)
                    for campaign_id in self._campaigns
                },
                "workers": workers,
                "stale_workers": sorted(
                    name
                    for name, entry in workers.items()
                    if entry["stale"]
                ),
                "worker_ttl": self.worker_ttl,
                "executed_total": self.store.executed_total(),
            }

    def result(self, campaign_id: str) -> dict:
        """The finished campaign's :class:`WorkloadResult`, from the store.

        Assembled from terminal rows in fault-index order - the order a
        serial run tallies in - so the per-fault effects *and* the tallies
        are bit-identical to ``jobs=1`` local execution.  While work
        remains the response is ``{"ready": false}`` and the client keeps
        polling.
        """
        with self._lock:
            campaign = self._campaign(campaign_id)
            status = self.status(campaign_id)
            if not status["complete"]:
                return {"ready": False, "status": status}
            result = WorkloadResult(
                workload_name=campaign.spec.workload,
                golden_cycles=campaign.spec.golden_cycles,
            )
            machine = campaign.config.machine
            injections, quarantines = stored_records(self.store, campaign.spec)
            for component in campaign.plan:
                result.components[component] = ComponentResult.from_effects(
                    component,
                    [r.effect for r in injections if r.component is component]
                    + [None for r in quarantines if r.component is component],
                    component_bits(machine, component),
                    campaign.spec.confidence,
                )
            return {"ready": True, "result": result.to_dict()}

    def _collect_gauges(self, registry: MetricsRegistry) -> None:
        """Scrape-time snapshot: campaign telemetry, store counts, workers.

        Registered as a registry collector; runs on every ``/metrics``
        render (and :meth:`MetricsRegistry.snapshot`), never on the
        report path.  Campaign telemetry is read under the lock the
        report threads record it under.
        """
        with self._lock:
            campaigns = dict(self._campaigns)
            for campaign_id, campaign in campaigns.items():
                collect = telemetry_collector(campaign.telemetry, campaign_id)
                collect(registry)
            now = time.time()
            workers = {
                name: dict(entry) for name, entry in self.workers.items()
            }
        faults = registry.gauge(
            "repro_campaign_faults",
            "Store rows by status within each campaign's scope",
        )
        complete = registry.gauge(
            "repro_campaign_complete",
            "1 once every fault of the campaign is terminal",
        )
        for campaign_id, campaign in campaigns.items():
            counts = self.store.counts(campaign.base, campaign.limits)
            total = sum(counts.values())
            for status_name, count in counts.items():
                faults.set(count, campaign=campaign_id, status=status_name)
            complete.set(
                1.0 if counts[DONE] + counts[QUARANTINED] == total else 0.0,
                campaign=campaign_id,
            )
        connected = registry.gauge(
            "repro_workers_connected", "Workers heard from within the TTL"
        )
        stale = registry.gauge(
            "repro_workers_stale", "Workers silent for longer than the TTL"
        )
        age_gauge = registry.gauge(
            "repro_worker_last_seen_age_seconds",
            "Seconds since each worker was last heard from",
        )
        completed = registry.counter(
            "repro_worker_completed_total",
            "Accepted injection completions per worker",
        )
        leases = registry.counter(
            "repro_worker_leases_total", "Index windows leased per worker"
        )
        rss = registry.gauge(
            "repro_worker_rss_kb", "Worker resident set size (KiB)"
        )
        windows = registry.gauge(
            "repro_worker_windows", "Lease windows completed per worker"
        )
        dispatch = registry.counter(
            "repro_worker_translator_dispatches_total",
            "Translated-block dispatches per worker",
        )
        blocks = registry.gauge(
            "repro_worker_translator_blocks",
            "Basic blocks currently compiled per worker",
        )
        stale_count = live_count = 0
        for name, entry in workers.items():
            age = now - entry["last_seen"] if entry["last_seen"] else None
            if age is None or age > self.worker_ttl:
                stale_count += 1
            else:
                live_count += 1
            if age is not None:
                age_gauge.set(age, worker=name)
            completed.peg(entry["completed"], worker=name)
            leases.peg(entry["leases"], worker=name)
            health = entry.get("health") or {}
            if "rss_kb" in health:
                rss.set(health["rss_kb"], worker=name)
            if "windows" in health:
                windows.set(health["windows"], worker=name)
            translator = health.get("translator") or {}
            if translator.get("enabled"):
                dispatch.peg(translator.get("dispatches", 0), worker=name)
                blocks.set(translator.get("blocks_compiled", 0), worker=name)
        connected.set(live_count)
        stale.set(stale_count)

    def close(self) -> None:
        """Close every trace log, and the store."""
        with self._lock:
            for campaign in self._campaigns.values():
                if campaign.trace_log is not None:
                    campaign.trace_log.close()
            self.store.close()

    # -- helpers -------------------------------------------------------------

    def _campaign(self, campaign_id: str) -> _ActiveCampaign:
        campaign = self._campaigns.get(campaign_id)
        if campaign is None:
            raise FabricError(f"unknown campaign {campaign_id!r}")
        return campaign

    def _worker_entry(self, worker: str) -> dict:
        with self._lock:
            entry = self.workers.setdefault(
                worker,
                {"completed": 0, "quarantined": 0, "leases": 0, "last_seen": 0.0},
            )
            entry["last_seen"] = time.time()
            return entry


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP verbs to coordinator methods; JSON in, JSON out."""

    #: Set by :func:`create_server`.
    coordinator: Coordinator = None  # type: ignore[assignment]
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args) -> None:
        """Silence per-request stderr chatter (progress goes elsewhere)."""

    def _reply(self, payload: dict, code: int = 200) -> None:
        body = json.dumps(payload).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _reply_text(self, text: str, code: int = 200) -> None:
        body = text.encode()
        self.send_response(code)
        self.send_header("Content-Type", "text/plain; version=0.0.4")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _body(self) -> bytes:
        return self.rfile.read(int(self.headers.get("Content-Length", 0)))

    @staticmethod
    def _parse(raw: bytes) -> dict:
        """A request body as a JSON object; anything else is a 400."""
        if not raw:
            return {}
        try:
            body = json.loads(raw.decode())
        except ValueError as exc:
            raise FabricError(f"request body is not JSON: {exc}") from None
        if not isinstance(body, dict):
            raise FabricError("request body must be a JSON object")
        return body

    def _dispatch(self, handler: Callable[[], dict]) -> None:
        try:
            self._reply(handler())
        except FabricError as exc:
            self._reply({"error": str(exc)}, code=400)
        except Exception as exc:  # noqa: BLE001 - surface, don't kill the server
            self._reply({"error": f"{type(exc).__name__}: {exc}"}, code=500)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        """POST routes: /submit, /lease, /report, /heartbeat."""
        raw = self._body()
        routes = {
            "/submit": lambda body: self.coordinator.submit(
                body.get("spec"), body.get("trace")
            ),
            "/lease": lambda body: self.coordinator.lease(
                body.get("worker", "?"), body.get("count")
            ),
            "/report": self.coordinator.report,
            "/heartbeat": self.coordinator.heartbeat,
        }
        handler = routes.get(self.path)
        if handler is None:
            self._reply({"error": f"no such endpoint {self.path}"}, code=404)
            return
        self._dispatch(lambda: handler(self._parse(raw)))

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        """GET routes: /ping, /status, /metrics, /campaign/<id>/{...}."""
        if self.path == "/ping":
            self._reply({"ok": True})
            return
        if self.path == "/status":
            self._dispatch(lambda: self.coordinator.status())
            return
        if self.path == "/metrics":
            try:
                self._reply_text(self.coordinator.registry.render())
            except Exception as exc:  # noqa: BLE001 - surface, don't kill
                self._reply_text(f"# metrics error: {exc}\n", code=500)
            return
        parts = self.path.strip("/").split("/")
        if len(parts) == 3 and parts[0] == "campaign":
            campaign_id, verb = parts[1], parts[2]
            if verb == "status":
                self._dispatch(lambda: self.coordinator.status(campaign_id))
                return
            if verb == "result":
                self._dispatch(lambda: self.coordinator.result(campaign_id))
                return
        self._reply({"error": f"no such endpoint {self.path}"}, code=404)


def create_server(
    coordinator: Coordinator, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """Bind a coordinator to an HTTP server (port 0 picks a free port).

    The caller owns the serve loop - tests run it on a daemon thread,
    :func:`serve_forever` blocks on it.
    """
    handler = type("BoundHandler", (_Handler,), {"coordinator": coordinator})
    return ThreadingHTTPServer((host, port), handler)


def serve_forever(
    store_path: str | Path,
    host: str = "127.0.0.1",
    port: int = 8765,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    lease_size: int = DEFAULT_LEASE_SIZE,
    progress: Callable[[str], None] | None = None,
    worker_ttl: float = DEFAULT_WORKER_TTL,
    trace: bool = False,
    events: Callable[..., None] | None = None,
) -> None:
    """Run a coordinator until interrupted (the ``repro serve`` command).

    With ``trace``, span logs are written next to the store file.  A
    store holding a campaign this side cannot parse (written by another
    protocol version, or malformed) raises :class:`FabricError` before
    the server binds.
    """
    store = FaultStore(store_path)
    try:
        coordinator = Coordinator(
            store,
            trace_dir=Path(store_path).parent if trace else None,
            lease_ttl=lease_ttl,
            lease_size=lease_size,
            progress=progress,
            worker_ttl=worker_ttl,
            events=events,
        )
    except FabricError:
        store.close()
        raise
    server = create_server(coordinator, host, port)
    if progress is not None:
        progress(
            f"fabric: coordinator on http://{host}:{server.server_address[1]} "
            f"(store {store_path})"
        )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        coordinator.close()
