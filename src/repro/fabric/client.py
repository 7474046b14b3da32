"""Fabric client: submit a campaign and wait for its result.

This is the ``repro inject --fabric URL`` path - the drop-in replacement
for a local :class:`~repro.injection.campaign.InjectionCampaign` run.
The client runs the golden reference locally (it pins ``golden_cycles``,
the drift guard every worker re-checks), derives the pure-JSON
:class:`~repro.fabric.protocol.CampaignSpec`, submits it, and polls until
the coordinator assembles the :class:`~repro.injection.campaign.WorkloadResult`.

The wait is deliberately tolerant of coordinator downtime: submission is
idempotent (campaign ids are content-derived, the store dedups), so the
client simply resubmits after every unreachable spell and keeps polling.
A campaign therefore survives a coordinator SIGKILL *while the client
waits* - the restarted coordinator reloads the campaign and its
completed records from the store, and the poll loop picks up where it
left off (the CI smoke test exercises exactly this).
"""

from __future__ import annotations

import time
from typing import Callable, Iterable

from repro.fabric.protocol import (
    CampaignSpec,
    FabricUnavailable,
    get_json,
    post_json,
)
from repro.injection.campaign import (
    CampaignConfig,
    WorkloadResult,
    run_golden,
)
from repro.injection.components import Component
from repro.observability.tracing import pack_trace
from repro.workloads.base import Workload


class FabricClient:
    """Submit campaigns to a coordinator and collect their results."""

    def __init__(
        self,
        url: str,
        poll_interval: float = 1.0,
        patience: float = 120.0,
        progress: Callable[[str], None] | None = None,
        tracer=None,
    ):
        self.url = url.rstrip("/")
        self.poll_interval = poll_interval
        #: Seconds of *continuous* coordinator unavailability tolerated
        #: before giving up (a restart takes seconds; a dead coordinator
        #: should fail the run, not hang it forever).
        self.patience = patience
        self._progress = progress or (lambda message: None)
        #: Optional :class:`~repro.observability.tracing.Tracer`.  When
        #: set, each ``run_workload`` wraps submit+wait in a client-side
        #: ``campaign`` span whose context rides beside the spec in the
        #: submit body (never inside it - campaign ids must not change),
        #: making the client's trace id the root of the whole fabric
        #: trace.  Flush with ``tracer.flush(path)`` (``--trace-spans``).
        self.tracer = tracer

    def submit(self, spec: CampaignSpec, span=None) -> dict:
        """Submit one campaign spec (idempotent); returns the summary."""
        body = {"spec": spec.to_payload()}
        if span is not None:
            body["trace"] = pack_trace(span)
        return post_json(f"{self.url}/submit", body)

    def wait(self, campaign_id: str) -> WorkloadResult:
        """Poll until the campaign completes; tolerate coordinator restarts."""
        unreachable_since: float | None = None
        last_done = -1
        while True:
            try:
                response = get_json(f"{self.url}/campaign/{campaign_id}/result")
                unreachable_since = None
            except FabricUnavailable as exc:
                now = time.monotonic()
                if unreachable_since is None:
                    unreachable_since = now
                    self._progress(f"fabric: {exc}; waiting for it to return")
                elif now - unreachable_since > self.patience:
                    raise
                time.sleep(self.poll_interval)
                continue
            if response.get("ready"):
                return WorkloadResult.from_dict(response["result"])
            counts = response.get("status", {}).get("counts", {})
            done = counts.get("done", 0) + counts.get("quarantined", 0)
            if done != last_done:
                last_done = done
                total = response.get("status", {}).get("total", 0)
                self._progress(f"fabric: {campaign_id} {done}/{total} complete")
            time.sleep(self.poll_interval)

    def run_workload(
        self,
        workload: Workload,
        config: CampaignConfig,
        components: Iterable[Component] = tuple(Component),
    ) -> WorkloadResult:
        """Distributed equivalent of ``InjectionCampaign.run_workload``.

        The local golden run anchors the spec; everything else happens on
        the fabric.  The returned result is bit-identical to a local
        ``jobs=1`` campaign over the same config (the fabric equivalence
        suite pins this per fault, not just per tally).
        """
        components = tuple(components)
        golden = run_golden(workload, config.machine, translate=config.translate)
        spec = CampaignSpec.from_config(
            workload, config, golden.cycles, components
        )
        span = (
            self.tracer.start_span(
                "campaign",
                attributes={
                    "workload": workload.name,
                    "campaign": spec.campaign_id,
                },
            )
            if self.tracer is not None
            else None
        )
        try:
            deadline_submit = time.monotonic() + self.patience
            while True:
                try:
                    summary = self.submit(spec, span)
                    break
                except FabricUnavailable:
                    if time.monotonic() > deadline_submit:
                        raise
                    time.sleep(self.poll_interval)
            self._progress(
                f"fabric: submitted {spec.campaign_id} "
                f"({summary['already_done']}/{summary['total']} already in store)"
            )
            return self.wait(summary["campaign_id"])
        finally:
            if span is not None:
                self.tracer.end_span(span)
