"""Result identity: which stored result (cache file, journal, fault-store
row) belongs to a run.  :func:`program_digest` pins the machine and the
assembled program and kernel; :func:`result_key` adds the fields that
determine one kind of result, by exact value.  The simulator itself is
not hashed: the golden-cycle checks guard against it changing."""

from __future__ import annotations

import hashlib

from repro.kernel.source import build_kernel
from repro.microarch.config import MachineConfig
from repro.workloads.base import Workload


def machine_digest(machine: MachineConfig) -> str:
    """Fingerprint of every geometry, latency and policy field (the frozen
    dataclass ``repr``): equal iff the configs are field-for-field equal."""
    return hashlib.blake2b(repr(machine).encode(), digest_size=8).hexdigest()


def program_digest(workload: Workload, machine: MachineConfig) -> str:
    """Fingerprint of what runs: the machine plus the user program and
    kernel assembled for ``machine.layout``."""
    digest = hashlib.blake2b(machine_digest(machine).encode(), digest_size=16)
    for program in (workload.program(machine.layout), build_kernel(machine.layout)):
        digest.update(repr((program.entry, sorted(program.symbols.items()))).encode())
        for seg in program.segments:
            digest.update(repr((seg.name, seg.base, len(seg.data))).encode())
            digest.update(seg.data)
    return digest.hexdigest()


def _canonical(value):
    """Integral floats as ints (``300`` and ``300.0`` beam hours are one
    campaign); every other value by its exact ``repr``."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


def result_key(kind: str, workload: Workload, machine: MachineConfig, **fields) -> str:
    """Filename stem ``<kind>-<workload>-<hash>`` of one stored result,
    hashing ``kind``, the workload name, :func:`program_digest` and every
    result-determining field."""
    identity = (
        kind,
        workload.name,
        program_digest(workload, machine),
        sorted((name, _canonical(value)) for name, value in fields.items()),
    )
    digest = hashlib.blake2b(repr(identity).encode(), digest_size=8).hexdigest()
    return f"{kind}-{workload.name.replace(' ', '_')}-{digest}"
