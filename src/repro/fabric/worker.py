"""Fabric worker: lease index windows, inject, report back.

A worker is stateless from the fabric's point of view - it can appear,
disappear, or be duplicated at will.  Its loop:

1. ``POST /lease`` - the coordinator answers with a campaign spec plus a
   contiguous fault-index window ``[start, stop)`` of one component, or
   ``{"idle": true}``;
2. rebuild the campaign's machine image from the spec (golden run,
   checkpoints, digests - :func:`~repro.injection.campaign.prepare_image`,
   the exact seam the local campaign uses), verifying the program digest
   and the regenerated golden duration against the spec's, so machine,
   program or simulator drift is an error, not a different campaign;
3. regenerate the component's fault list, slice the leased window, and
   run it through :func:`~repro.injection.parallel.run_injection_plan`
   with ``indices={component: range(start, stop)}`` - the same explicit
   global-index window every windowed plan passes, so record indices
   are global - and a :class:`~repro.injection.journal.RecordBuffer` (so
   records are collected, not written - the coordinator commits them to
   its fault store);
4. ``POST /report`` the records and lease the next window.

The image, fault plan and a long-lived
:class:`~repro.injection.parallel.ImageInjector` are cached per campaign,
so a worker grinding through many small windows pays image construction
once.  Because every injection is a pure function of (image, fault), the
records a worker reports are bit-identical to what a local serial run
would have produced for the same indices.

Observability: every report carries a *health* dict (pid, rss, windows
completed, translator stats), and the worker also ``POST /heartbeat``-s
it every ``heartbeat_interval`` seconds while idle or between windows so
the coordinator can tell an idle worker from a dead one.  When a lease
response carries a ``"trace"`` span context, the worker runs the window
under a local :class:`~repro.observability.tracing.Tracer` and ships the
resulting ``window`` spans back with the report - one trace across
client, coordinator and worker.
"""

from __future__ import annotations

import os
import socket
import time
from typing import Callable

from repro.fabric.protocol import (
    CampaignSpec,
    FabricUnavailable,
    post_json,
)
from repro.injection.campaign import build_fault_plan, prepare_image
from repro.injection.components import Component
from repro.injection.identity import program_digest
from repro.injection.journal import RecordBuffer
from repro.injection.parallel import ImageInjector, run_injection_plan
from repro.microarch.profile import process_stats, translator_stats
from repro.observability.tracing import Tracer, unpack_trace
from repro.workloads import get_workload

#: Default seconds between idle heartbeats.
DEFAULT_HEARTBEAT_INTERVAL = 10.0


def default_worker_name() -> str:
    """``host:pid`` - unique per process, readable in progress views."""
    return f"{socket.gethostname()}:{os.getpid()}"


class _CampaignContext:
    """One campaign's regenerated artifacts, cached across leases."""

    def __init__(self, spec: CampaignSpec):
        self.spec = spec
        config = spec.to_config()
        workload = get_workload(spec.workload)
        if program_digest(workload, config.machine) != spec.program_digest:
            raise FabricUnavailable(
                f"{spec.workload} on {spec.machine} is not the program the "
                f"campaign was submitted for - refusing the campaign"
            )
        golden, self.image = prepare_image(workload, config)
        if golden.cycles != spec.golden_cycles:
            raise FabricUnavailable(
                f"regenerated golden run of {spec.workload} lasted "
                f"{golden.cycles} cycles, campaign expects "
                f"{spec.golden_cycles}: simulator drift between worker "
                f"and submitter - refusing the campaign"
            )
        self.plan = build_fault_plan(
            config, spec.golden_cycles, spec.component_list()
        )
        self.injector = ImageInjector(self.image)


class FabricWorker:
    """Lease/inject/report loop against one coordinator URL."""

    def __init__(
        self,
        url: str,
        name: str | None = None,
        lease_count: int | None = None,
        poll_interval: float = 1.0,
        progress: Callable[[str], None] | None = None,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        events: Callable[..., None] | None = None,
    ):
        self.url = url.rstrip("/")
        self.name = name or default_worker_name()
        self.lease_count = lease_count
        self.poll_interval = poll_interval
        self.heartbeat_interval = heartbeat_interval
        self._progress = progress or (lambda message: None)
        #: Structured-event hook ``(event, **fields)`` (``--log-json``).
        self._events = events or (lambda event, **fields: None)
        self._contexts: dict[str, _CampaignContext] = {}
        #: Injections this worker actually executed (not deduped ones) -
        #: the CI smoke test sums this across workers to prove zero
        #: duplicated executions.
        self.executed = 0
        #: Lease windows completed (reported in health stats).
        self.windows = 0
        self._last_heartbeat = 0.0

    def _context(self, spec: CampaignSpec) -> _CampaignContext:
        context = self._contexts.get(spec.campaign_id)
        if context is None:
            self._progress(
                f"{self.name}: building image for campaign "
                f"{spec.campaign_id} ({spec.workload} on {spec.machine})"
            )
            context = _CampaignContext(spec)
            # One cached campaign at a time: images are the expensive
            # part, and a worker ping-ponging between concurrent
            # campaigns would thrash anyway - the coordinator drains
            # campaigns oldest-first precisely so workers don't.
            for dropped in self._contexts.values():
                dropped.injector.close()
            self._contexts.clear()
            self._contexts[spec.campaign_id] = context
        return context

    def health(self) -> dict:
        """Host + progress stats shipped with reports and heartbeats."""
        stats = process_stats()
        stats["windows"] = self.windows
        stats["executed"] = self.executed
        translator = None
        for context in self._contexts.values():
            translator = getattr(context.injector, "translator", None)
        stats["translator"] = translator_stats(translator)
        return stats

    def heartbeat(self) -> bool:
        """``POST /heartbeat`` (best-effort); ``False`` when unreachable."""
        try:
            post_json(
                f"{self.url}/heartbeat",
                {"worker": self.name, "health": self.health()},
            )
        except FabricUnavailable:
            return False
        self._last_heartbeat = time.monotonic()
        return True

    def _maybe_heartbeat(self) -> None:
        if time.monotonic() - self._last_heartbeat >= self.heartbeat_interval:
            self.heartbeat()

    def run_one(self) -> bool:
        """Lease, execute and report one window; ``False`` when idle."""
        response = post_json(
            f"{self.url}/lease",
            {"worker": self.name, "count": self.lease_count},
        )
        if response.get("idle"):
            return False
        spec = CampaignSpec.from_payload(response["campaign"])
        context = self._context(spec)
        component = Component[response["component"]]
        start, stop = response["start"], response["stop"]
        window = {component: context.plan[component][start:stop]}
        buffer = RecordBuffer()
        trace_context = unpack_trace(response.get("trace"))
        tracer = (
            Tracer(trace_id=trace_context[0])
            if trace_context is not None
            else None
        )
        run_injection_plan(
            context.image,
            window,
            jobs=1,
            journal=buffer,
            indices={component: range(start, stop)},
            injector=context.injector,
            tracer=tracer,
            span_parent=trace_context[1] if trace_context else None,
        )
        self.executed += len(buffer.records) + len(buffer.quarantines)
        self.windows += 1
        report = {
            "campaign_id": response["campaign_id"],
            "lease_id": response["lease_id"],
            "worker": self.name,
            "records": [record.to_line() for record in buffer.records],
            "quarantines": [
                record.to_line() for record in buffer.quarantines
            ],
            "health": self.health(),
        }
        if tracer is not None:
            report["trace"] = response["trace"]
            report["spans"] = tracer.drain()
        outcome = post_json(f"{self.url}/report", report)
        self._last_heartbeat = time.monotonic()  # a report proves liveness
        self._progress(
            f"{self.name}: {component.name}[{start}:{stop}] -> "
            f"{outcome['accepted']} accepted"
            + (
                f", {outcome['duplicates']} duplicate(s)"
                if outcome.get("duplicates")
                else ""
            )
        )
        self._events(
            "window",
            campaign_id=response["campaign_id"],
            worker=self.name,
            component=component.name,
            start=start,
            stop=stop,
            accepted=outcome.get("accepted"),
            duplicates=outcome.get("duplicates"),
        )
        return True

    def run(
        self,
        max_idle_polls: int | None = None,
        max_windows: int | None = None,
    ) -> int:
        """Work until drained; returns injections executed.

        ``max_idle_polls`` bounds consecutive idle responses before the
        worker exits (``None`` polls forever - the long-lived daemon
        mode); ``max_windows`` bounds total windows (tests).  A coordinator
        restart mid-loop surfaces as :class:`FabricUnavailable` and is
        retried with the idle backoff - workers outlive coordinator
        downtime by design.
        """
        idle = 0
        windows = 0
        while max_windows is None or windows < max_windows:
            try:
                worked = self.run_one()
            except FabricUnavailable as exc:
                self._progress(f"{self.name}: {exc}; retrying")
                self._events("unavailable", worker=self.name, error=str(exc))
                worked = False
            if worked:
                idle = 0
                windows += 1
                continue
            idle += 1
            if max_idle_polls is not None and idle >= max_idle_polls:
                break
            self._maybe_heartbeat()
            time.sleep(self.poll_interval)
        return self.executed
