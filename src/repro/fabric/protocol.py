"""Fabric wire protocol: campaign specs, fault identity, JSON transport.

Everything that crosses the coordinator/worker boundary is plain JSON -
no pickles - so a worker can run on any host that has this package.  A
campaign travels as a :class:`CampaignSpec`: the *recipe* for the
deterministic fault stream and machine image, not the data itself.  Both
sides regenerate the heavy artifacts (golden run, checkpoints, digests,
fault lists) from the spec, and cross-check the invariants that make the
regeneration sound:

- ``program_digest`` (:func:`~repro.injection.identity.program_digest`)
  pins the machine, program and kernel, so a drifted worker refuses the
  campaign instead of silently injecting into a different run;
- ``golden_cycles`` pins the golden run duration (fault cycles are drawn
  from it), guarding against simulator drift.

Fault identity - the store's primary key and the dedup/equivalence unit -
is the tuple ``(workload, program digest, component, cluster, index,
seed)``: everything that determines which bit is flipped at which cycle
of which program on which machine.
"""

from __future__ import annotations

import hashlib
import json
import urllib.error
import urllib.request
from dataclasses import asdict, dataclass, field, fields

from repro.errors import ConfigurationError, ReproError
from repro.injection.campaign import CampaignConfig
from repro.injection.components import Component
from repro.injection.identity import program_digest
from repro.injection.parallel import EngineOptions
from repro.microarch.config import MACHINE_CONFIGS
from repro.workloads.base import Workload
from repro.workloads.suite import MIBENCH_SUITE

#: Bump when the wire format changes incompatibly.
PROTOCOL_VERSION = 4


class FabricError(ReproError):
    """A fabric request was invalid or inconsistent (spec drift, bad lease)."""


class FabricUnavailable(FabricError):
    """The coordinator could not be reached (down, restarting, or gone)."""


@dataclass(frozen=True)
class CampaignSpec:
    """Everything a worker needs to regenerate one campaign's work.

    A pure-JSON recipe: workload and machine are referenced by name (plus
    the digest of the program and machine that run), and the execution
    knobs mirror the result-affecting and image-shaping fields of
    :class:`~repro.injection.campaign.CampaignConfig`, with its
    result-neutral engine settings nested as ``engine``.  ``jobs``,
    timeouts and the disk-cache knobs deliberately do not travel - they
    are local execution policy, not campaign identity.
    """

    workload: str
    machine: str
    program_digest: str
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

    def __post_init__(self):
        """Refuse a spec no worker could run (a 400, never a 500 or a
        silently empty campaign)."""
        _check_types(self, "")
        _check_types(self.engine, "engine.")
        problems = []
        if self.golden_cycles < 1:
            problems.append("golden_cycles must be positive")
        if self.workload not in MIBENCH_SUITE:
            problems.append(f"unknown workload {self.workload!r}")
        if self.machine not in MACHINE_CONFIGS:
            problems.append(f"unknown machine config {self.machine!r}")
        else:
            try:
                self.to_config()  # the local campaign's own value checks
            except ConfigurationError as exc:
                problems.append(str(exc))
        unknown = [
            name for name in self.components if name not in Component.__members__
        ]
        if unknown or not self.components:
            problems.append(f"components must be known names, got {unknown}")
        if problems:
            raise FabricError(f"malformed campaign spec: {'; '.join(problems)}")

    @classmethod
    def from_config(
        cls,
        workload: Workload,
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
            workload=workload.name,
            machine=config.machine.name,
            program_digest=program_digest(workload, config.machine),
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

        The machine is looked up by name (the worker checks the program
        digest once it has the program); execution policy fields
        (``jobs``, timeouts) take their defaults - the caller decides
        those locally.
        """
        return CampaignConfig(
            faults_per_component=self.faults_per_component,
            seed=self.seed,
            confidence=self.confidence,
            machine=MACHINE_CONFIGS[self.machine],
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
        object, unknown or missing fields, wrong types or values) raise
        :class:`FabricError`.
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
            if "components" in data:
                if not isinstance(data["components"], (list, tuple)):
                    raise TypeError("components must be a list of names")
                data["components"] = tuple(data["components"])
            data["engine"] = EngineOptions(**data.get("engine", {}))
            return cls(**data)
        except (TypeError, ConfigurationError) as exc:
            raise FabricError(f"malformed campaign spec: {exc}") from None

    @property
    def campaign_id(self) -> str:
        """Content-derived campaign identifier (stable across restarts)."""
        canonical = json.dumps(self.to_payload(), sort_keys=True)
        return hashlib.blake2b(canonical.encode(), digest_size=6).hexdigest()


#: JSON type of each scalar field annotation a spec carries.
_JSON_TYPES = {"bool": bool, "int": int, "float": (int, float), "str": str}


def _check_types(value, prefix: str) -> None:
    for item in fields(value):
        expected = _JSON_TYPES.get(item.type)
        found = getattr(value, item.name)
        if expected is not None and (
            not isinstance(found, expected)
            or (isinstance(found, bool) and expected is not bool)
        ):
            raise FabricError(
                f"malformed campaign spec: {prefix}{item.name} must be "
                f"{item.type}, got {found!r}"
            )


def identity_base(spec: CampaignSpec) -> dict:
    """The campaign-invariant part of its faults' identity tuples (the
    store's ``machine`` column holds the program digest)."""
    return {
        "workload": spec.workload,
        "machine": spec.program_digest,
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
