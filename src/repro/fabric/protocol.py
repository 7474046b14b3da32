"""Fabric wire protocol: campaign specs, fault identity, JSON transport.

Everything that crosses the coordinator/worker boundary is plain JSON -
no pickles - so a worker can run on any host that has this package.  A
campaign travels as a :class:`CampaignSpec`: the *recipe* for the
deterministic fault stream and machine image, not the data itself.  Both
sides regenerate the heavy artifacts (golden run, checkpoints, digests,
fault lists) from the spec, and cross-check the invariants that make the
regeneration sound:

- :func:`machine_digest` fingerprints the full machine geometry, so a
  worker whose named config drifted from the coordinator's refuses the
  campaign instead of silently injecting into a different machine;
- ``golden_cycles`` pins the golden run duration (fault cycles are drawn
  from it), guarding against simulator drift the same way the journal's
  fingerprint does.

Fault identity - the store's primary key and the dedup/equivalence unit -
is the tuple ``(workload, machine digest, component, cluster, index,
seed)``: everything that determines which bit is flipped at which cycle
of which machine.
"""

from __future__ import annotations

import hashlib
import json
import urllib.error
import urllib.request
from dataclasses import asdict, dataclass, field

from repro.errors import ReproError
from repro.injection.campaign import CampaignConfig
from repro.injection.components import Component
from repro.injection.parallel import EngineOptions
from repro.microarch.config import MACHINE_CONFIGS, MachineConfig

#: Bump when the wire format changes incompatibly.
PROTOCOL_VERSION = 3


class FabricError(ReproError):
    """A fabric request was invalid or inconsistent (spec drift, bad lease)."""


class FabricUnavailable(FabricError):
    """The coordinator could not be reached (down, restarting, or gone)."""


def machine_digest(machine: MachineConfig) -> str:
    """Stable structural fingerprint of a machine configuration.

    Hashes the frozen-dataclass ``repr`` - every geometry, latency and
    policy field in declaration order - so two configs share a digest iff
    they are field-for-field identical.  Part of every fault identity:
    the same (workload, component, index, seed) on a different machine is
    a *different* fault (different population, different cycle range).
    """
    return hashlib.blake2b(repr(machine).encode(), digest_size=8).hexdigest()


def resolve_machine(name: str, digest: str) -> MachineConfig:
    """Look up a named machine config and verify its structural digest."""
    machine = MACHINE_CONFIGS.get(name)
    if machine is None:
        raise FabricError(
            f"unknown machine config {name!r} (known: "
            f"{', '.join(sorted(MACHINE_CONFIGS))})"
        )
    found = machine_digest(machine)
    if found != digest:
        raise FabricError(
            f"machine config {name!r} drifted: local digest {found}, "
            f"campaign expects {digest} - refusing to inject into a "
            f"different machine"
        )
    return machine


@dataclass(frozen=True)
class CampaignSpec:
    """Everything a worker needs to regenerate one campaign's work.

    A pure-JSON recipe: workload and machine are referenced by name (plus
    the machine's structural digest), and the execution knobs mirror the
    result-affecting and image-shaping fields of
    :class:`~repro.injection.campaign.CampaignConfig`, with its
    result-neutral engine settings nested as ``engine``.  ``jobs``,
    timeouts and the disk-cache knobs deliberately do not travel - they
    are local execution policy, not campaign identity.
    """

    workload: str
    machine: str
    machine_digest: str
    faults_per_component: int
    seed: int
    cluster_size: int
    golden_cycles: int
    confidence: float = 0.99
    components: tuple[str, ...] = field(
        default_factory=lambda: tuple(c.name for c in Component)
    )
    engine: EngineOptions = EngineOptions()
    version: int = PROTOCOL_VERSION

    @classmethod
    def from_config(
        cls,
        workload_name: str,
        config: CampaignConfig,
        golden_cycles: int,
        components: tuple[Component, ...] = tuple(Component),
    ) -> "CampaignSpec":
        """Derive a spec from a local campaign configuration."""
        if config.target_margin is not None:
            raise FabricError(
                "adaptive campaigns are not fabric-aware yet; submit a "
                "fixed-sample campaign (no --target-margin)"
            )
        return cls(
            workload=workload_name,
            machine=config.machine.name,
            machine_digest=machine_digest(config.machine),
            faults_per_component=config.faults_per_component,
            seed=config.seed,
            cluster_size=config.cluster_size,
            golden_cycles=golden_cycles,
            confidence=config.confidence,
            components=tuple(component.name for component in components),
            engine=config.engine,
        )

    def to_config(self) -> CampaignConfig:
        """Rebuild the local campaign configuration this spec describes.

        The machine is resolved by name and digest-verified; execution
        policy fields (``jobs``, timeouts) take their defaults - the
        caller decides those locally.
        """
        return CampaignConfig(
            faults_per_component=self.faults_per_component,
            seed=self.seed,
            confidence=self.confidence,
            machine=resolve_machine(self.machine, self.machine_digest),
            cluster_size=self.cluster_size,
            **asdict(self.engine),
        )

    def component_list(self) -> tuple[Component, ...]:
        """The campaign's components as enum members."""
        return tuple(Component[name] for name in self.components)

    def to_payload(self) -> dict:
        """JSON-friendly form (the submit body and the worker's fetch)."""
        return asdict(self)

    @classmethod
    def from_payload(cls, payload: dict) -> "CampaignSpec":
        """Parse a spec payload.

        Incompatible protocol versions and malformed payloads (not an
        object, unknown or missing fields) raise :class:`FabricError`.
        """
        if not isinstance(payload, dict):
            raise FabricError(
                f"campaign spec must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        data = dict(payload)
        version = data.get("version", 0)
        if version != PROTOCOL_VERSION:
            raise FabricError(
                f"campaign spec speaks protocol v{version}, this side "
                f"speaks v{PROTOCOL_VERSION}"
            )
        try:
            data["components"] = tuple(data.get("components", ()))
            data["engine"] = EngineOptions(**data.get("engine", {}))
            return cls(**data)
        except TypeError as exc:
            raise FabricError(f"malformed campaign spec: {exc}") from None

    @property
    def campaign_id(self) -> str:
        """Content-derived campaign identifier (stable across restarts)."""
        canonical = json.dumps(self.to_payload(), sort_keys=True)
        return hashlib.blake2b(canonical.encode(), digest_size=6).hexdigest()


def identity_base(spec: CampaignSpec) -> dict:
    """The campaign-invariant part of its faults' identity tuples."""
    return {
        "workload": spec.workload,
        "machine": spec.machine_digest,
        "cluster": spec.cluster_size,
        "seed": spec.seed,
    }


# -- JSON-over-HTTP helpers --------------------------------------------------


def post_json(url: str, payload: dict, timeout: float = 30.0) -> dict:
    """POST a JSON body and parse the JSON response.

    Connection-level failures raise :class:`FabricUnavailable` (retryable:
    the coordinator may be restarting); HTTP-level errors surface the
    coordinator's ``error`` message as :class:`FabricError`.
    """
    body = json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    return _exchange(request, timeout)


def get_json(url: str, timeout: float = 30.0) -> dict:
    """GET a JSON document (same error mapping as :func:`post_json`)."""
    return _exchange(urllib.request.Request(url), timeout)


def get_text(url: str, timeout: float = 30.0) -> str:
    """GET a plain-text document (the ``/metrics`` exposition).

    Same error mapping as :func:`post_json`: connection-level failures
    are retryable :class:`FabricUnavailable`, HTTP errors are
    :class:`FabricError`.
    """
    request = urllib.request.Request(url)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.read().decode()
    except urllib.error.HTTPError as exc:
        raise FabricError(f"{url}: HTTP {exc.code}") from None
    except (urllib.error.URLError, ConnectionError, TimeoutError, OSError) as exc:
        raise FabricUnavailable(
            f"coordinator unreachable at {url}: {exc}"
        ) from None


def _exchange(request: urllib.request.Request, timeout: float) -> dict:
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return json.loads(response.read().decode())
    except urllib.error.HTTPError as exc:
        try:
            detail = json.loads(exc.read().decode()).get("error", "")
        except (ValueError, OSError):
            detail = ""
        raise FabricError(
            f"{request.full_url}: HTTP {exc.code}"
            + (f" ({detail})" if detail else "")
        ) from None
    except (urllib.error.URLError, ConnectionError, TimeoutError, OSError) as exc:
        raise FabricUnavailable(
            f"coordinator unreachable at {request.full_url}: {exc}"
        ) from None
