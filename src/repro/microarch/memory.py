"""Main memory: a flat physical byte store with fixed access latency.

Sits below the L2 cache.  The neutron beam spot in the paper deliberately
excluded the on-board DDR, and fault injection did not target DRAM either,
so main memory contents are never corrupted directly - only through
write-backs of corrupted cache lines.
"""

from __future__ import annotations

from hashlib import blake2b

from repro.errors import SegmentationFault
from repro.microarch.digest import DIGEST_SIZE
from repro.microarch.state import State

#: Copy-on-write and digest-memo page granularity.
PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT

#: Chunk size of the compare-and-skip sweep of a full restore.
_RESTORE_CHUNK = 1 << 16


class _Pages:
    """The byte store, encoded as the concatenation of per-page hashes."""

    names = ("data",)

    def capture(self, memory) -> bytes:
        return bytes(memory.data)

    def restore(self, memory, captured: bytes) -> None:
        # Compare-and-skip: the chunks a run never wrote (kernel text,
        # code, read-only data, untouched heap) are compared, not copied.
        data = memory.data
        if data != captured:
            for offset in range(0, len(captured), _RESTORE_CHUNK):
                end = min(offset + _RESTORE_CHUNK, len(captured))
                if data[offset:end] != captured[offset:end]:
                    data[offset:end] = captured[offset:end]
                    memory._mark_dirty(offset, end - offset)
        # Memory now equals the capture exactly; restart write tracking
        # relative to it.
        memory.dirty_pages.clear()

    def encode(self, memory) -> bytes:
        """Per-4KB-page hashes, concatenated.

        The tree form makes the digest memoizable: with
        :meth:`MainMemory.enable_digest_cache` armed, only pages written
        since the previous encoding (tracked by the same dirty marking the
        copy-on-write restorer uses) are re-hashed, turning the per-probe
        cost from O(memory) into O(pages touched).  Cached and uncached
        callers compute the identical bytes, so golden digests recorded on
        a plain machine compare against probe digests from a caching
        injector.
        """
        data = memory.data
        pages = (len(data) + PAGE_SIZE - 1) >> PAGE_SHIFT
        page_hashes = memory._page_hashes
        if page_hashes is None:
            page_hashes = [None] * pages
        view = memoryview(data)
        for page in range(pages):
            if page_hashes[page] is None:
                page_hashes[page] = blake2b(
                    view[page << PAGE_SHIFT : (page + 1) << PAGE_SHIFT],
                    digest_size=DIGEST_SIZE,
                ).digest()
        view.release()
        return b"".join(page_hashes)


class MainMemory:
    """Byte-addressable physical memory backing the cache hierarchy."""

    #: Mutable state (:mod:`repro.microarch.state`).
    STATE = State(
        _Pages(),
        constants="size latency",
        attachments={"probe": "taint probe: observes block traffic, never steers"},
        derived={
            "dirty_pages": "write tracking since the last restore (cleared by it)",
            "_page_hashes": "page-hash memo (restores invalidate rewritten pages)",
        },
    )

    def __init__(self, size: int, latency: int = 30):
        self.size = size
        self.latency = latency
        self.data = bytearray(size)
        #: Optional taint probe (:mod:`repro.observability.taint`).
        self.probe = None
        #: 4 KB pages written since the tracker was last cleared.  Memory
        #: writes are rare (L2 miss refills are reads; only write-backs and
        #: loader pokes land here), so the per-write set insertion is noise,
        #: and it lets :class:`~repro.microarch.snapshot.DeltaRestorer`
        #: rewrite only the pages an injection actually touched.
        self.dirty_pages: set[int] = set()
        #: Memoized per-page digests for :func:`repro.microarch.digest`
        #: (``None`` slots are stale).  Off by default; campaign injectors
        #: opt in via :meth:`enable_digest_cache` so digest probes re-hash
        #: only the pages written since the previous probe.
        self._page_hashes: list | None = None

    def enable_digest_cache(self) -> None:
        """Memoize per-page digests, invalidated by the dirty tracking.

        Only sound on machines whose every memory write goes through
        :meth:`write_block`/:meth:`poke` (atomic-mode cores store into
        ``data`` directly, so they must not enable this).
        """
        self._page_hashes = [None] * ((self.size + PAGE_SIZE - 1) >> PAGE_SHIFT)

    def _mark_dirty(self, paddr: int, size: int) -> None:
        first = paddr >> PAGE_SHIFT
        last = (paddr + size - 1) >> PAGE_SHIFT
        hashes = self._page_hashes
        if first == last:
            self.dirty_pages.add(first)
            if hashes is not None:
                hashes[first] = None
        else:
            self.dirty_pages.update(range(first, last + 1))
            if hashes is not None:
                for page in range(first, last + 1):
                    hashes[page] = None

    # -- hierarchy interface (line granularity, used by caches) -------------

    def read_block(self, paddr: int, size: int) -> tuple[bytes, int]:
        if paddr < 0 or paddr + size > self.size:
            raise SegmentationFault(
                f"physical read outside memory: {paddr:#010x}", pc=0
            )
        if self.probe is not None:
            self.probe.on_read_block(self, paddr, size)
        return bytes(self.data[paddr : paddr + size]), self.latency

    def write_block(self, paddr: int, data: bytes) -> int:
        if paddr < 0 or paddr + len(data) > self.size:
            raise SegmentationFault(
                f"physical write outside memory: {paddr:#010x}", pc=0
            )
        if self.probe is not None:
            self.probe.on_write_block(self, paddr, len(data))
        self.data[paddr : paddr + len(data)] = data
        self._mark_dirty(paddr, len(data))
        return self.latency

    # -- functional (no timing, no state change) access ----------------------

    def peek(self, paddr: int, size: int) -> bytes:
        return bytes(self.data[paddr : paddr + size])

    def poke(self, paddr: int, data: bytes) -> None:
        """Direct store used by the loader/firmware (bypasses caches)."""
        if paddr < 0 or paddr + len(data) > self.size:
            raise SegmentationFault(
                f"loader write outside memory: {paddr:#010x}", pc=0
            )
        self.data[paddr : paddr + len(data)] = data
        self._mark_dirty(paddr, len(data))
