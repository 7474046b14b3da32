"""Translation lookaside buffers.

Each TLB caches recent page translations.  Entries are modeled bit-exactly
for injection purposes: the virtual tag, the physical page number, and the
permission flags each occupy dedicated bit ranges of the entry (the paper
observes that flips in the *physical page* field produce wrong translations
and high vulnerability, while flips in the *virtual tag* mostly cause
spurious misses with near-zero AVF - both behaviours fall out of this
model).

Per-entry bit map (``entry_bits`` = 128 by default, matching the paper's
512-byte, 32-entry A9 TLBs):

====== ==========================
bits   field
====== ==========================
0-19   virtual page number (tag)
20-39  physical page number
40-44  permission flags V/R/W/X/U
45-127 attributes (modeled as unused; flips are masked)
====== ==========================
"""

from __future__ import annotations

import struct

from repro.errors import InjectionError
from repro.microarch.config import TLBGeometry
from repro.microarch.state import Scalars, State

_VPN_BITS = 20
_PPN_BITS = 20
_PERM_BITS = 5

VPN_FIELD = range(0, _VPN_BITS)
PPN_FIELD = range(_VPN_BITS, _VPN_BITS + _PPN_BITS)
PERM_FIELD = range(_VPN_BITS + _PPN_BITS, _VPN_BITS + _PPN_BITS + _PERM_BITS)


class TLBEntry:
    """One TLB entry."""

    __slots__ = ("vpn", "ppn", "perms", "valid", "stamp")

    def __init__(self):
        self.vpn = 0
        self.ppn = 0
        self.perms = 0
        self.valid = False
        self.stamp = 0

    def __repr__(self) -> str:
        return (
            f"TLBEntry(vpn={self.vpn:#x}, ppn={self.ppn:#x}, "
            f"perms={self.perms:#x}, valid={self.valid})"
        )


_ENTRY = struct.Struct("<QQQQB")


class _Entries:
    """Every entry's tag, frame, permissions, validity and LRU stamp.

    The lookup map is derived from the entries - but *not* always
    rederivable once a tag flip has made two entries collide.  Instead of
    hashing the dict, each entry encodes a "reachable through the lookup
    map" bit, which detects exactly the case where hidden map state could
    steer the future while the entries look golden.  A restore rebuilds
    the map from the captured (golden, collision-free) entries.
    """

    names = ("entries",)
    record = (TLBEntry, ("vpn", "ppn", "perms", "valid", "stamp"))

    def capture(self, tlb) -> list:
        return [
            (entry.vpn, entry.ppn, entry.perms, entry.valid, entry.stamp)
            for entry in tlb.entries
        ]

    def restore(self, tlb, entries) -> None:
        lookup = tlb._map
        lookup.clear()
        for entry, (vpn, ppn, perms, valid, stamp) in zip(tlb.entries, entries):
            entry.vpn = vpn
            entry.ppn = ppn
            entry.perms = perms
            entry.valid = valid
            entry.stamp = stamp
            if valid:
                lookup[vpn] = entry

    def encode(self, tlb) -> bytes:
        pack = _ENTRY.pack
        lookup = tlb._map
        return b"".join([
            pack(
                entry.vpn,
                entry.ppn,
                entry.perms,
                entry.stamp,
                entry.valid | ((lookup.get(entry.vpn) is entry) << 1),
            )
            for entry in tlb.entries
        ])


class TLB:
    """A fully-associative TLB with LRU replacement.

    A ``vpn -> entry`` dict accelerates lookups; it is rebuilt whenever an
    injected fault rewrites an entry's tag.
    """

    #: Mutable state (:mod:`repro.microarch.state`).
    STATE = State(
        _Entries(),
        Scalars("_clock accesses misses"),
        counters="accesses misses",
        constants="name geometry",
        attachments={"probe": "taint probe: observes lookups, never steers"},
        derived={"_map": "lookup map: encoded as each entry's reachable bit"},
    )

    def __init__(self, name: str, geometry: TLBGeometry):
        self.name = name
        self.geometry = geometry
        self.entries = [TLBEntry() for _ in range(geometry.entries)]
        self._map: dict[int, TLBEntry] = {}
        self._clock = 0
        self.accesses = 0
        self.misses = 0
        #: Optional taint probe (:mod:`repro.observability.taint`).
        self.probe = None

    def lookup(self, vpn: int) -> TLBEntry | None:
        """Return the valid entry for ``vpn``, or None on a miss."""
        self.accesses += 1
        entry = self._map.get(vpn)
        if entry is None or not entry.valid or entry.vpn != vpn:
            self.misses += 1
            return None
        self._clock += 1
        entry.stamp = self._clock
        if self.probe is not None:
            self.probe.on_lookup(self, entry)
        return entry

    def fill(self, vpn: int, ppn: int, perms: int) -> TLBEntry:
        """Install a translation, evicting the LRU entry if needed.

        Refilling an already-present vpn updates that entry in place (a
        real TLB never holds two entries with the same tag).
        """
        victim = self._map.get(vpn)
        if victim is None:
            victim = self.entries[0]
            for entry in self.entries:
                if not entry.valid:
                    victim = entry
                    break
                if entry.stamp < victim.stamp:
                    victim = entry
        if victim.valid:
            self._map.pop(victim.vpn, None)
        if self.probe is not None:
            # Before the victim's fields are overwritten by the new entry.
            self.probe.on_fill(self, victim)
        self._clock += 1
        victim.vpn = vpn
        victim.ppn = ppn
        victim.perms = perms
        victim.valid = True
        victim.stamp = self._clock
        self._map[vpn] = victim
        return victim

    def flush(self) -> None:
        if self.probe is not None:
            self.probe.on_flush(self)
        for entry in self.entries:
            entry.valid = False
        self._map.clear()

    def occupancy(self) -> float:
        return sum(1 for e in self.entries if e.valid) / len(self.entries)

    # -- fault injection interface -------------------------------------------

    @property
    def data_bits(self) -> int:
        return self.geometry.data_bits

    def _locate(self, bit_index: int) -> tuple[TLBEntry, int]:
        """Map a flat bit index to (entry, bit within the entry)."""
        if not 0 <= bit_index < self.data_bits:
            raise InjectionError(f"{self.name}: bit index {bit_index} out of range")
        entry_bits = self.geometry.entry_bits
        return self.entries[bit_index // entry_bits], bit_index % entry_bits

    def observable(self, bit_index: int) -> bool:
        """Whether a flip of this bit could ever be observed: a tag,
        frame or permission bit of a valid entry.

        Invalid entries are never consumed (every lookup, the core's and
        the translator's fast paths and the kernel-page check all gate on
        ``valid``), and :meth:`fill` overwrites every field it revalidates;
        attribute bits are not stored at all.  Equals :meth:`flip_bit`'s
        return.
        """
        entry, bit = self._locate(bit_index)
        return entry.valid and bit < PERM_FIELD.stop

    def line_base_paddr(self, bit_index: int) -> None:
        """Entries hold translations, not copies of memory lines."""
        return None

    def flip_bit(self, bit_index: int) -> bool:
        """Flip one bit of one entry.

        Returns ``True`` when the flip lands in a live field of a valid
        entry (tag, physical page, or permissions) and can therefore be
        observed; ``False`` when it lands in an invalid entry or in the
        unused attribute bits.
        """
        entry, bit = self._locate(bit_index)

        if bit in VPN_FIELD:
            old_vpn = entry.vpn
            entry.vpn ^= 1 << (bit - VPN_FIELD.start)
            if entry.valid:
                self._map.pop(old_vpn, None)
                # The corrupted tag now (mis)matches a different page.
                self._map[entry.vpn] = entry
            return entry.valid
        if bit in PPN_FIELD:
            entry.ppn ^= 1 << (bit - PPN_FIELD.start)
            return entry.valid
        if bit in PERM_FIELD:
            entry.perms ^= 1 << (bit - PERM_FIELD.start)
            return entry.valid
        return False
