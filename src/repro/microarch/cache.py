"""Set-associative write-back caches that store real line data.

Every line holds an actual ``bytearray`` of its contents, so a single-event
upset is literally a flipped bit in the array - subsequent loads, fetches,
page-table walks and write-backs then consume the corrupted value, giving
the same propagation semantics GeFIN relies on in gem5.

Masking behaviours emerge naturally:

- a flip in an *invalid* line is never observed;
- a flip in a valid but *clean* line disappears if the line is evicted
  before being read (the next fill restores correct data from below);
- a flip in a *dirty* line can be written back and corrupt memory, surfacing
  much later.
"""

from __future__ import annotations

import struct

from repro.errors import InjectionError
from repro.microarch.config import CacheGeometry
from repro.microarch.state import Scalars, State


class CacheLine:
    """One cache line: tag, validity, dirtiness, payload, LRU stamp."""

    __slots__ = ("tag", "valid", "dirty", "data", "stamp")

    def __init__(self, line_size: int):
        self.tag = -1
        self.valid = False
        self.dirty = False
        self.data = bytearray(line_size)
        self.stamp = 0


class _Lines:
    """Every :class:`CacheLine`'s fields (``record``), line by line."""

    names = ("sets",)
    record = (CacheLine, ("tag", "valid", "dirty", "data", "stamp"))
    _batches: dict[int, struct.Struct] = {}

    def capture(self, cache) -> list:
        return [
            (line.tag, line.valid, line.dirty, bytes(line.data), line.stamp)
            for ways in cache.sets
            for line in ways
        ]

    def restore(self, cache, lines) -> None:
        index = 0
        for ways in cache.sets:
            for line in ways:
                tag, valid, dirty, data, stamp = lines[index]
                index += 1
                # Most lines are unchanged between a checkpoint and the
                # point an injection diverged from it; five cheap
                # comparisons (the payload compare is a memcmp) beat five
                # writes plus a 32-byte copy per line on the campaign hot
                # path.
                if (
                    line.tag == tag
                    and line.stamp == stamp
                    and line.valid == valid
                    and line.dirty == dirty
                    and line.data == data
                ):
                    continue
                line.tag = tag
                line.valid = valid
                line.dirty = dirty
                line.data[:] = data
                line.stamp = stamp

    def encode(self, cache) -> bytes:
        parts = [line.data for ways in cache.sets for line in ways]
        meta = [
            field
            for ways in cache.sets
            for line in ways
            for field in (line.tag, line.stamp, line.valid | (line.dirty << 1))
        ]
        # One pack call for all line metadata: "<" uses standard sizes with
        # no padding, so the repeated format is byte-identical to per-line
        # "<qqB" packs.
        lines = len(meta) // 3
        batch = self._batches.get(lines)
        if batch is None:
            batch = self._batches[lines] = struct.Struct("<" + "qqB" * lines)
        parts.append(batch.pack(*meta))
        return b"".join(parts)


class Cache:
    """A single cache level.

    Parameters
    ----------
    name:
        Human-readable name used in statistics and injection reports.
    geometry:
        Size/associativity/line size/latency.
    below:
        The next level (another :class:`Cache` or
        :class:`~repro.microarch.memory.MainMemory`).
    Access/miss counts are kept in the ``accesses``/``misses`` attributes
    and harvested into :class:`PerfCounters` by the system at the end of a
    run (cheaper than updating shared counters on every access).
    """

    #: Mutable state (:mod:`repro.microarch.state`).
    STATE = State(
        _Lines(),
        Scalars("_clock accesses misses"),
        counters="accesses misses",
        constants="name geometry below line_size assoc n_sets hit_latency "
        "_offset_bits _set_mask _offset_mask _write_through",
        attachments={"probe": "taint probe: observes accesses, never steers"},
    )

    def __init__(
        self,
        name: str,
        geometry: CacheGeometry,
        below,
    ):
        self.name = name
        self.geometry = geometry
        self.below = below
        self.line_size = geometry.line_size
        self.assoc = geometry.assoc
        self.n_sets = geometry.n_sets
        self.hit_latency = geometry.hit_latency

        self._offset_bits = self.line_size.bit_length() - 1
        self._set_mask = self.n_sets - 1
        self._offset_mask = self.line_size - 1
        self._write_through = geometry.write_through

        self.sets: list[list[CacheLine]] = [
            [CacheLine(self.line_size) for _ in range(self.assoc)]
            for _ in range(self.n_sets)
        ]
        self._clock = 0
        self.accesses = 0
        self.misses = 0
        #: Optional taint probe (:mod:`repro.observability.taint`).  Every
        #: hook site is a single ``is not None`` check, so an unprobed
        #: cache pays one attribute load per access.
        self.probe = None

    # -- core lookup ---------------------------------------------------------

    def _access(self, paddr: int, for_write: bool) -> tuple[CacheLine, int]:
        """Find (filling on miss) the line containing ``paddr``.

        Returns ``(line, latency)``.
        """
        set_index = (paddr >> self._offset_bits) & self._set_mask
        tag = paddr >> self._offset_bits
        ways = self.sets[set_index]
        self._clock += 1
        self.accesses += 1

        for line in ways:
            if line.valid and line.tag == tag:
                line.stamp = self._clock
                if for_write:
                    line.dirty = True
                return line, self.hit_latency

        # Miss: pick a victim (invalid first, else LRU).
        self.misses += 1
        victim = ways[0]
        for line in ways:
            if not line.valid:
                victim = line
                break
            if line.stamp < victim.stamp:
                victim = line

        if self.probe is not None:
            # Before the victim's payload is written back / replaced.
            self.probe.on_fill(self, victim, paddr)
        latency = self.hit_latency
        if victim.valid and victim.dirty:
            victim_addr = victim.tag << self._offset_bits
            latency += self.below.write_block(victim_addr, bytes(victim.data))
            victim.dirty = False

        line_base = paddr & ~self._offset_mask
        data, below_latency = self.below.read_block(line_base, self.line_size)
        latency += below_latency
        victim.data[:] = data
        victim.tag = tag
        victim.valid = True
        victim.dirty = for_write
        victim.stamp = self._clock
        return victim, latency

    # -- CPU-facing interface --------------------------------------------------

    def read(self, paddr: int, size: int) -> tuple[bytes, int]:
        """Read ``size`` bytes (must not cross a line boundary)."""
        line, latency = self._access(paddr, for_write=False)
        if self.probe is not None:
            self.probe.on_read(self, line, paddr, size)
        offset = paddr & self._offset_mask
        return bytes(line.data[offset : offset + size]), latency

    def write(self, paddr: int, data: bytes) -> int:
        """Write bytes (must not cross a line boundary); write-allocate.

        With ``write_through`` geometry the write is also propagated below
        immediately and the line stays clean.
        """
        line, latency = self._access(paddr, for_write=True)
        if self.probe is not None:
            self.probe.on_write(self, line, paddr, len(data))
        offset = paddr & self._offset_mask
        line.data[offset : offset + len(data)] = data
        if self._write_through:
            line.dirty = False
            latency += self.below.write_block(paddr, data)
        return latency

    # -- hierarchy interface (lower level for a cache above) -------------------

    def read_block(self, paddr: int, size: int) -> tuple[bytes, int]:
        return self.read(paddr, size)

    def write_block(self, paddr: int, data: bytes) -> int:
        return self.write(paddr, data)

    # -- maintenance -----------------------------------------------------------

    def invalidate_all(self) -> None:
        """Drop every line without writing back (reset-time cold caches)."""
        for ways in self.sets:
            for line in ways:
                line.valid = False
                line.dirty = False
                line.tag = -1

    def flush(self) -> None:
        """Write back every dirty line and invalidate."""
        if self.probe is not None:
            self.probe.on_flush(self)
        for ways in self.sets:
            for line in ways:
                if line.valid and line.dirty:
                    self.below.write_block(
                        line.tag << self._offset_bits, bytes(line.data)
                    )
                line.valid = False
                line.dirty = False
                line.tag = -1

    def prefill(self, paddr: int) -> None:
        """Firmware-level fill of the line containing ``paddr``.

        Used to establish beam-campaign steady state: in a back-to-back
        irradiation run the caches are *not* cold, they hold whatever the
        OS, the previous execution, and the online check routine left
        behind.  Timing is ignored.
        """
        self._access(paddr, for_write=False)

    # -- functional inspection ---------------------------------------------------

    def peek(self, paddr: int, size: int) -> bytes:
        """Read through the hierarchy without timing or state changes.

        Handles reads of any size, assembling across line boundaries.
        """
        out = bytearray()
        while size > 0:
            offset = paddr & self._offset_mask
            chunk = min(size, self.line_size - offset)
            set_index = (paddr >> self._offset_bits) & self._set_mask
            tag = paddr >> self._offset_bits
            for line in self.sets[set_index]:
                if line.valid and line.tag == tag:
                    out.extend(line.data[offset : offset + chunk])
                    break
            else:
                out.extend(self.below.peek(paddr, chunk))
            paddr += chunk
            size -= chunk
        return bytes(out)

    def occupancy(self) -> float:
        """Fraction of lines currently valid."""
        valid = sum(
            1 for ways in self.sets for line in ways if line.valid
        )
        return valid / (self.n_sets * self.assoc)

    # -- fault injection interface -------------------------------------------

    @property
    def data_bits(self) -> int:
        return self.n_sets * self.assoc * self.line_size * 8

    def locate_bit(self, bit_index: int) -> tuple[int, int, int, int]:
        """Map a flat data-array bit index to (set, way, byte, bit)."""
        if not 0 <= bit_index < self.data_bits:
            raise InjectionError(
                f"{self.name}: bit index {bit_index} out of range"
            )
        bit = bit_index & 7
        byte_index = bit_index >> 3
        byte = byte_index % self.line_size
        line_index = byte_index // self.line_size
        way = line_index % self.assoc
        set_index = line_index // self.assoc
        return set_index, way, byte, bit

    def line_at(self, bit_index: int) -> CacheLine:
        set_index, way, _byte, _bit = self.locate_bit(bit_index)
        return self.sets[set_index][way]

    def observable(self, bit_index: int) -> bool:
        """Whether a flip of this bit could ever be observed: its line is valid.

        A flip in an invalid line is unobservable: the line's data is only
        consumed while ``valid`` (reads, write-backs, ``peek``), and the
        only transition back to valid - a miss fill or ``prefill`` -
        overwrites the whole payload.  Equals :meth:`flip_bit`'s return.
        """
        return self.line_at(bit_index).valid

    def line_base_paddr(self, bit_index: int) -> int | None:
        """Physical base address of the line currently holding this bit,
        or ``None`` when the line is invalid (it holds no memory copy)."""
        line = self.line_at(bit_index)
        return line.tag << self._offset_bits if line.valid else None

    def flip_bit(self, bit_index: int) -> bool:
        """Flip one bit of the data array.

        Returns ``True`` when the bit belongs to a valid line (i.e. the flip
        can possibly be observed), ``False`` for an invalid line.
        """
        set_index, way, byte, bit = self.locate_bit(bit_index)
        line = self.sets[set_index][way]
        line.data[byte] ^= 1 << bit
        return line.valid
