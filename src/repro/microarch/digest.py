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

:func:`system_digest` computes a blake2b digest over every piece of state a
:class:`~repro.microarch.snapshot.SystemSnapshot` captures - memory, cache
tags/valid/dirty/LRU/payloads, TLB entries, the physical register file and
its rename cursors, the core's architectural and bookkeeping state
(including the cycle counter), CSRs, and the device block.  Two states with
equal digests therefore continue identically (up to blake2b collisions,
~2^-128 for the 16-byte digest).

Deliberately *excluded* (with reasons - the soundness tests pin these):

- ``TLB.version``: pure change-notification bookkeeping; snapshot restore
  bumps it by one on purpose, so including it would make a restored run's
  digest never match a from-boot golden digest.  No simulator behaviour
  reads it.
- ``TLB._map``: derived from the entries - but *not* always rederivable
  once a tag flip has made two entries collide.  Instead of hashing the
  dict, each entry contributes a "reachable through the lookup map" bit,
  which detects exactly the case where hidden map state could steer the
  future while the entries look golden.
"""

from __future__ import annotations

import struct
from hashlib import blake2b

from repro.microarch.regfile import ARCH_REGS
from repro.microarch.snapshot import _CORE_FIELDS

#: Digest width in bytes.  16 bytes = 128 bits keeps per-probe storage and
#: comparison cheap while making an accidental collision (a diverged state
#: classified Masked) cosmically unlikely.
DIGEST_SIZE = 16

_LINE_META = struct.Struct("<qqB")
_TLB_ENTRY = struct.Struct("<QQQQB")
_COUNTER_PAIR = struct.Struct("<qqq")

_PAGE_SHIFT = 12
_PAGE_SIZE = 1 << _PAGE_SHIFT


def _hash_memory(h, memory) -> None:
    """Fold main memory in as a hash of per-4KB-page hashes.

    The tree form makes the digest memoizable: with
    :meth:`~repro.microarch.memory.MainMemory.enable_digest_cache` armed,
    only pages written since the previous digest (tracked by the same
    dirty marking the copy-on-write restorer uses) are re-hashed, turning
    the per-probe cost from O(memory) into O(pages touched).  Cached and
    uncached callers compute the identical function, so golden digests
    recorded on a plain machine compare against probe digests from a
    caching injector.
    """
    data = memory.data
    pages = (len(data) + _PAGE_SIZE - 1) >> _PAGE_SHIFT
    hashes = memory._page_hashes
    view = memoryview(data)
    if hashes is None:
        page_hashes = [
            blake2b(
                view[page << _PAGE_SHIFT : (page + 1) << _PAGE_SHIFT],
                digest_size=DIGEST_SIZE,
            ).digest()
            for page in range(pages)
        ]
    else:
        page_hashes = hashes
        for page in range(pages):
            if page_hashes[page] is None:
                page_hashes[page] = blake2b(
                    view[page << _PAGE_SHIFT : (page + 1) << _PAGE_SHIFT],
                    digest_size=DIGEST_SIZE,
                ).digest()
    view.release()
    h.update(b"".join(page_hashes))


_META_BATCH: dict[int, struct.Struct] = {}


def _hash_cache(h, cache) -> None:
    parts = [line.data for ways in cache.sets for line in ways]
    meta = [
        field
        for ways in cache.sets
        for line in ways
        for field in (line.tag, line.stamp, line.valid | (line.dirty << 1))
    ]
    # One pack call for all line metadata: "<" uses standard sizes with no
    # padding, so the repeated format is byte-identical to per-line packs.
    lines = len(meta) // 3
    batch = _META_BATCH.get(lines)
    if batch is None:
        batch = _META_BATCH[lines] = struct.Struct("<" + "qqB" * lines)
    parts.append(batch.pack(*meta))
    parts.append(_COUNTER_PAIR.pack(cache._clock, cache.accesses, cache.misses))
    h.update(b"".join(parts))


def _hash_tlb(h, tlb) -> None:
    meta = []
    pack = _TLB_ENTRY.pack
    lookup = tlb._map
    for entry in tlb.entries:
        reachable = lookup.get(entry.vpn) is entry
        meta.append(
            pack(
                entry.vpn,
                entry.ppn,
                entry.perms,
                entry.stamp,
                entry.valid | (reachable << 1),
            )
        )
    meta.append(_COUNTER_PAIR.pack(tlb._clock, tlb.accesses, tlb.misses))
    h.update(b"".join(meta))


def system_digest(system) -> bytes:
    """Digest every mutable bit of ``system``'s state.

    Equal digests => bit-identical continuation.  The digest soundness
    tests assert sensitivity: any single-bit flip in any modeled component
    changes the digest, and overwriting the flipped state restores it.
    """
    h = blake2b(digest_size=DIGEST_SIZE)
    _hash_memory(h, system.memory)
    for name in ("l1i", "l1d", "l2"):
        _hash_cache(h, getattr(system, name))
    for name in ("itlb", "dtlb"):
        _hash_tlb(h, getattr(system, name))
    rf = system.rf
    h.update(struct.pack(f"<{rf.n_int}I", *rf.int_regs))
    h.update(struct.pack(f"<{rf.n_fp}d", *rf.fp_regs))
    core = system.core
    h.update(
        struct.pack(
            f"<{len(_CORE_FIELDS) + 2}q",
            rf._int_history,
            rf._fp_history,
            *(int(getattr(core, field)) for field in _CORE_FIELDS),
        )
    )
    h.update(struct.pack("<16q", *core.csr))
    devices = system._devices
    h.update(devices.output)
    h.update(
        struct.pack(
            "<qB",
            devices.alive_count,
            devices.sdc_flag | (devices.check_done << 1),
        )
    )
    return h.digest()


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
    h = blake2b(digest_size=DIGEST_SIZE)
    rf = system.rf
    h.update(struct.pack(f"<{ARCH_REGS}I", *rf.int_regs[:ARCH_REGS]))
    h.update(struct.pack(f"<{ARCH_REGS}d", *rf.fp_regs[:ARCH_REGS]))
    core = system.core
    h.update(
        struct.pack(
            f"<{len(_CORE_FIELDS)}q",
            *(int(getattr(core, field)) for field in _CORE_FIELDS),
        )
    )
    h.update(struct.pack("<16q", *core.csr))
    devices = system._devices
    h.update(devices.output)
    h.update(
        struct.pack(
            "<qB",
            devices.alive_count,
            devices.sdc_flag | (devices.check_done << 1),
        )
    )
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
