"""Distributed campaign fabric: injection as a service.

The statistical campaigns behind the paper (1,000 faults per component
per benchmark, six components, 13 workloads) are embarrassingly parallel,
and PR 1-6 made every injection a pure function of (machine image, fault).
This package breaks the farm out of a single process:

- a **coordinator** (:mod:`repro.fabric.coordinator`) accepts campaign
  submissions, shards each campaign's deterministic fault stream into
  index-window *leases* over a simple HTTP/JSON work queue, commits
  every completed injection's record to the fault store, and assembles
  the final :class:`~repro.injection.campaign.WorkloadResult`;
- a **fault store** (:mod:`repro.fabric.store`) - one sqlite database
  keyed by fault identity ``(workload, program digest, component,
  cluster, index, seed)`` and the fabric's one durable record -
  provides dedup (a fault completed by any prior or concurrent campaign
  is never re-executed), resume (the store survives a coordinator
  SIGKILL), a shared pool many campaigns can draw from, and the rows
  ``repro stats <store>`` replays;
- **workers** (:mod:`repro.fabric.worker`) on any host rebuild the same
  machine image from the campaign spec, lease index windows, run them
  through the existing :class:`~repro.injection.parallel.ImageInjector`
  fast path, and report the records back.

Because fault lists, images and injections are all deterministic, a
distributed run is bit-identical to ``jobs=1`` serial - the equivalence
suite in ``tests/fabric`` enforces it per fault, not just per tally.
"""

from repro.fabric.client import FabricClient
from repro.fabric.coordinator import Coordinator, serve_forever
from repro.fabric.dashboard import render_dashboard, top
from repro.fabric.protocol import CampaignSpec
from repro.fabric.store import FaultStore
from repro.fabric.worker import FabricWorker

__all__ = [
    "CampaignSpec",
    "Coordinator",
    "FabricClient",
    "FabricWorker",
    "FaultStore",
    "render_dashboard",
    "serve_forever",
    "top",
]
