"""One declaration of each machine part's mutable state.

A checkpointed injection with early exit is exact only if the digest
covers everything a snapshot restores.  So each stateful class declares
its mutable state once, as a class-level :class:`State` next to the
``__init__`` that creates it, and :class:`~repro.microarch.system.System`
lists its parts once (``System.PARTS``, in digest order).  Snapshots,
both restore paths, the full and architectural digests, the soft reset
and the performance-counter harvest derive from these declarations.

A declaration is an ordered list of field groups.  A group captures its
fields into a picklable value, writes such a value back, and encodes the
live fields to bytes (``encode_arch``: the architecturally visible part
only).  A part's capture is the tuple of its groups' captures and its
encoding the concatenation of theirs.  Name lists are space-separated, as
in :func:`collections.namedtuple`.
"""

from __future__ import annotations

import operator
import struct


class Scalars:
    """Integer-valued fields, copied by value and packed ``"<q"`` each."""

    def __init__(self, names: str, arch: bool = True):
        self.names = tuple(names.split())
        self.arch = arch
        get = operator.attrgetter(*self.names)
        self._get = get if len(self.names) > 1 else lambda part: (get(part),)
        self._pack = struct.Struct("<" + "q" * len(self.names)).pack

    def capture(self, part) -> tuple:
        return self._get(part)

    def restore(self, part, value) -> None:
        for name, field in zip(self.names, value):
            setattr(part, name, field)

    def encode(self, part) -> bytes:
        return self._pack(*self._get(part))


class Flags(Scalars):
    """Boolean fields packed into one byte, the first field in bit 0."""

    def encode(self, part) -> bytes:
        packed = 0
        for bit, flag in enumerate(self._get(part)):
            packed |= flag << bit
        return bytes((packed,))


class Array:
    """A list of numbers (``struct`` code ``code``), restored in place.

    In-place restores keep the list object, so a probing list subclass
    the observability layer installed survives them.  ``arch_prefix`` is
    the length of the architecturally visible prefix (``None``: all of it).
    """

    arch = True

    def __init__(self, name: str, code: str, arch_prefix: int | None = None):
        self.names = (name,)
        self._name = name
        self._code = code
        self._prefix = arch_prefix

    def capture(self, part):
        return getattr(part, self._name)[:]

    def restore(self, part, value) -> None:
        getattr(part, self._name)[:] = value

    def encode(self, part) -> bytes:
        values = getattr(part, self._name)
        return struct.pack(f"<{len(values)}{self._code}", *values)

    def encode_arch(self, part) -> bytes:
        if self._prefix is None:
            return self.encode(part)
        values = getattr(part, self._name)[: self._prefix]
        return struct.pack(f"<{self._prefix}{self._code}", *values)


class Buffer(Array):
    """A ``bytearray``, copied and encoded as raw bytes."""

    def __init__(self, name: str):
        super().__init__(name, "B")

    def encode(self, part) -> bytes:
        return bytes(getattr(part, self._name))


class State:
    """The declared mutable state of one machine part.

    ``counters`` are the event-counter fields a soft reset zeroes.  Every
    other attribute of the part is named as one of three exclusion kinds,
    and a structural test walks booted, run machines to check that nothing
    escapes: ``constants`` (fixed at construction: configuration, geometry,
    wiring to the other parts), ``attachments`` (observers and
    accelerators hooked on from outside that never steer the simulation)
    and ``derived`` (bookkeeping a restore rebuilds or resets from the
    declared state); the latter two map each name to its reason.
    """

    def __init__(
        self,
        *groups,
        counters: str = "",
        constants: str = "",
        attachments: dict[str, str] | None = None,
        derived: dict[str, str] | None = None,
    ):
        self.groups = groups
        self.fields = tuple(name for group in groups for name in group.names)
        # Bound once: the digests call these at every probe.
        self._encoders = tuple(group.encode for group in groups)
        self._arch_encoders = tuple(
            getattr(group, "encode_arch", group.encode)
            for group in groups
            if getattr(group, "arch", True)
        )
        self.counters = tuple(counters.split())
        self.constants = tuple(constants.split())
        self.attachments = attachments or {}
        self.derived = derived or {}

    def capture(self, part) -> tuple:
        return tuple([group.capture(part) for group in self.groups])

    def restore(self, part, state: tuple) -> None:
        for group, value in zip(self.groups, state):
            group.restore(part, value)

    def encode(self, part) -> bytes:
        return b"".join([encode(part) for encode in self._encoders])

    def encode_arch(self, part) -> bytes:
        """The architecturally visible fields' encoding (groups declared
        ``arch=False`` are left out; an array may keep only a prefix)."""
        return b"".join([encode(part) for encode in self._arch_encoders])

    def reset_counters(self, part) -> None:
        for name in self.counters:
            setattr(part, name, 0)
