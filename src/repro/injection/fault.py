"""Fault descriptors and statistical fault-list generation."""

from __future__ import annotations

import binascii
import random
from dataclasses import dataclass
from typing import Sequence

from repro.errors import InjectionError
from repro.injection.components import Component


@dataclass(frozen=True)
class Fault:
    """A single-event upset: one bit of one component at one cycle."""

    component: Component
    bit_index: int
    cycle: int

    def __post_init__(self):
        if self.bit_index < 0:
            raise InjectionError(f"negative bit index {self.bit_index}")
        if self.cycle < 0:
            raise InjectionError(f"negative injection cycle {self.cycle}")


@dataclass(frozen=True)
class StrikeSite:
    """Where a fault struck (Section IV-C's injection-only visibility).

    ``mode`` is the core's privilege mode at the flip (``"user"`` or
    ``"kernel"``); ``region`` names the memory region the struck cache
    line held (``None`` for an invalid line or a non-cache component);
    ``live`` is whether any struck cell of the cluster could be observed
    at all (a valid cache line, a live field of a valid TLB entry, an
    architectural register some instruction of the image reads).  With
    early exit armed, a run ends ``dead-cell`` exactly when its site is
    not live; with it off, a not-live run goes unwatched to program exit.
    """

    mode: str
    region: str | None
    live: bool


def _stream_rng(component: Component, component_bits: int, seed: int) -> random.Random:
    """Per-stratum PRNG shared by the fixed and adaptive planners."""
    # Stable across processes (unlike hash() of a str under PYTHONHASHSEED).
    derived = binascii.crc32(f"{seed}:{component.name}:{component_bits}".encode())
    return random.Random(derived)


def generate_faults(
    component: Component,
    component_bits: int,
    duration_cycles: int,
    count: int,
    seed: int = 0,
) -> list[Fault]:
    """Draw ``count`` faults uniformly over (bit, cycle).

    Uniform-over-space x uniform-over-time is the paper's single-bit
    transient model: every memory cell is equally likely to be struck, at
    any point of the program's execution.
    """
    return FaultStream(component, component_bits, duration_cycles, seed).take(count)


class FaultStream:
    """Incrementally extendable per-stratum fault list.

    Draws from the same PRNG stream as :func:`generate_faults`, so for any
    ``n`` the first ``n`` faults of a stream equal ``generate_faults(...,
    count=n)`` exactly (pinned by the prefix-property test).  This is what
    lets the adaptive campaign grow a stratum's sample batch by batch while
    remaining bit-identical to a fixed campaign that asked for the final
    count up front.
    """

    def __init__(
        self,
        component: Component,
        component_bits: int,
        duration_cycles: int,
        seed: int = 0,
    ):
        if component_bits <= 0 or duration_cycles <= 0:
            raise InjectionError("component bits and duration must be positive")
        self.component = component
        self.component_bits = component_bits
        self.duration_cycles = duration_cycles
        self._rng = _stream_rng(component, component_bits, seed)
        self._faults: list[Fault] = []

    def __len__(self) -> int:
        return len(self._faults)

    def take(self, count: int) -> list[Fault]:
        """The first ``count`` faults of the stream (drawing as needed)."""
        while len(self._faults) < count:
            self._faults.append(
                Fault(
                    component=self.component,
                    bit_index=self._rng.randrange(self.component_bits),
                    cycle=self._rng.randrange(self.duration_cycles),
                )
            )
        return self._faults[:count]

    def at(self, indices: Sequence[int]) -> list[Fault]:
        """Faults at arbitrary stream indices, in the order given.

        One adaptive batch is ``at(range(start, stop))``; learned
        importance sampling passes a permutation of the stream, whose
        *set* of faults at any prefix of stream indices is unchanged, only
        the visit order differs.
        """
        if not indices:
            return []
        self.take(max(indices) + 1)
        return [self._faults[index] for index in indices]
