"""Canonical digests of *all* mutable machine state.

The early-termination layer of the injection engine rests on one fact: the
simulator is a deterministic function of its mutable state.  If an injected
run's state is bit-identical to the golden run's state at the same cycle,
every future cycle is bit-identical too - same terminal outcome, same
output, same counters - so the run can stop right there and be classified
Masked without simulating the remaining millions of cycles.  This is the
first (cheap) level of a two-level classification in the spirit of Hari et
al.'s SDC-rate estimation: an O(state) digest comparison standing in for an
O(cycles) simulation.

:func:`system_digest` hashes each part's declared state encoding, in
``System.PARTS`` order: exactly the state a
:class:`~repro.microarch.snapshot.SystemSnapshot` captures.  The
declarations (:mod:`repro.microarch.state`) are the single source of truth
for what is covered.  Two states with equal digests therefore continue
identically (up to blake2b collisions, ~2^-128 for the 16-byte digest).

The one named exclusion is ``TLB._map``: derived from the entries, it
enters as each entry's "reachable through the lookup map" bit (see
:mod:`repro.microarch.tlb`; the soundness tests pin it).
"""

from __future__ import annotations

from hashlib import blake2b

#: Digest width in bytes.  16 bytes = 128 bits keeps per-probe storage and
#: comparison cheap while making an accidental collision (a diverged state
#: classified Masked) cosmically unlikely.
DIGEST_SIZE = 16


def system_digest(system) -> bytes:
    """Digest every mutable bit of ``system``'s state.

    Equal digests => bit-identical continuation.  The digest soundness
    tests assert sensitivity: any single-bit flip in any modeled component
    changes the digest, and overwriting the flipped state restores it.
    """
    return _digest(system, system.PARTS, arch=False)


def arch_digest(system) -> bytes:
    """Digest only the *architecturally visible* state of ``system``.

    Covers the 16 architectural integer and floating-point registers, the
    core's program counter and counters, CSRs, and the device block - but
    none of the microarchitectural state (caches, TLBs, rename slots).  The
    observability layer compares this against the golden run's value on the
    same probe grid to timestamp the first *architectural divergence* of an
    injected run: the first probe where the fault has escaped the
    microarchitecture and perturbed the architectural trajectory.

    The trajectory deliberately includes timing (``cycle`` is one of the
    core fields): a fault that changes instruction latencies without
    corrupting a register still diverges the machine's observable history,
    and the convergence machinery treats it the same way.
    """
    return _digest(system, system.ARCH_PARTS, arch=True)


def _digest(system, names: tuple[str, ...], arch: bool) -> bytes:
    h = blake2b(digest_size=DIGEST_SIZE)
    for name in names:
        part = getattr(system, name)
        h.update(part.STATE.encode_arch(part) if arch else part.STATE.encode(part))
    return h.digest()


def probe_cycles(golden_cycles: int, count: int) -> list[int]:
    """Evenly spaced digest-probe grid over a golden run's duration.

    Mirrors the checkpoint grid: ``count`` cycles strictly inside
    ``(0, golden_cycles)`` so every probe is reachable before the golden
    run's clean exit.
    """
    if count <= 0 or golden_cycles <= 0:
        return []
    step = max(1, golden_cycles // (count + 1))
    return sorted({step * (index + 1) for index in range(count)})
