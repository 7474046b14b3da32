"""Host envelope and drift probe for benchmark run records.

Timings from a shared host drift with the neighbours' load, so each run
records which code and interpreter it measured, how many CPUs it saw,
and a fixed probe taken before and after the measured phase.  The probe
is a pure-Python CPU loop plus a random walk over a working set several
times the size of the L2 cache; a change in the probe between runs is
host drift, not a change in the program.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np

_CPU_LOOP = 400_000
_MIN_WALK_BYTES = 32 << 20


def l2_bytes() -> int:
    """L2 size of CPU 0 from sysfs (2 MiB when unknown)."""
    path = Path("/sys/devices/system/cpu/cpu0/cache/index2/size")
    try:
        text = path.read_text().strip()
    except OSError:
        return 2 << 20
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
    digits = text.rstrip("KMG")
    return int(digits) * scale if digits.isdigit() else 2 << 20


class HostProbe:
    """Fixed CPU + memory work whose duration tracks host speed."""

    def __init__(self):
        elements = max(_MIN_WALK_BYTES, 8 * l2_bytes()) // 8
        rng = np.random.default_rng(0)
        self.working_set = np.arange(elements, dtype=np.int64)
        self.order = rng.permutation(elements)

    def measure(self) -> dict[str, float]:
        start = time.perf_counter()
        acc = 0
        for value in range(_CPU_LOOP):
            acc += value * value & 0xFF
        cpu = time.perf_counter() - start
        start = time.perf_counter()
        walked = int(self.working_set[self.order].sum())
        memory = time.perf_counter() - start
        if walked != len(self.order) * (len(self.order) - 1) // 2 or acc < 0:
            raise RuntimeError("host probe computed a wrong sum")
        return {"cpu_s": cpu, "mem_s": memory, "total_s": cpu + memory}


def source_digest(src: Path) -> str:
    """blake2b over the program's Python sources (path + bytes)."""
    digest = hashlib.blake2b(digest_size=12)
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, or ``None`` outside a git work tree."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def envelope(root: Path) -> dict:
    """Identity of what ran and where."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 1
    return {
        "git_sha": git_sha(root),
        "source_digest": source_digest(root / "src" / "repro"),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "l2_bytes": l2_bytes(),
    }


def tree_state(path: Path) -> str | None:
    """Digest of every entry's name, size and mtime under ``path``.

    Metadata only, so checking that a directory was not written never
    reads it.
    """
    if not path.exists():
        return None
    digest = hashlib.blake2b(digest_size=16)
    for entry in sorted(path.rglob("*")):
        stat = entry.stat()
        digest.update(f"{entry.relative_to(path)}:{stat.st_size}:{stat.st_mtime_ns}".encode())
    return digest.hexdigest()
