"""Execution tracing: per-instruction records with disassembly.

Debugging aid for workload/kernel development and for dissecting how an
injected fault propagated.  An :class:`InstructionTrace` keeps a bounded
ring of :class:`TraceRecord` entries; pass its hook to ``System.run(trace=...)``
(or ``Core.run``) and inspect/format the tail afterwards.

Example::

    tracer = InstructionTrace(limit=200)
    result = system.run(max_cycles=1_000_000, trace=tracer.hook)
    print(tracer.format_tail(20))   # the last 20 instructions executed
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.isa.disassembler import disassemble_word
from repro.microarch.core import Core, Mode


@dataclass(frozen=True)
class TraceRecord:
    """One executed (or fetch-attempted) instruction."""

    cycle: int
    pc: int
    mode: str
    word: int | None
    text: str

    def __str__(self) -> str:
        return f"[{self.cycle:>10}] {self.mode[0]} {self.pc:#010x}: {self.text}"


class InstructionTrace:
    """Bounded instruction trace, attachable to a running core."""

    def __init__(self, limit: int = 1000):
        self.records: deque[TraceRecord] = deque(maxlen=limit)
        self.instructions_seen = 0

    def hook(self, core: Core) -> None:
        """Per-instruction callback for ``run(trace=...)``."""
        pc = core.pc
        word = self._fetch_word(core, pc)
        text = disassemble_word(word, pc) if word is not None else "<unfetchable>"
        self.records.append(
            TraceRecord(
                cycle=core.cycle,
                pc=pc,
                mode="kernel" if core.mode == Mode.KERNEL else "user",
                word=word,
                text=text,
            )
        )
        self.instructions_seen += 1

    @staticmethod
    def _fetch_word(core: Core, pc: int) -> int | None:
        """Functional fetch (no timing/state change) of the next word."""
        if pc & 3 or pc + 4 > core.memory.size:
            return None
        if core.atomic:
            return int.from_bytes(core.memory.data[pc : pc + 4], "little")
        # Identity mapping: peek the physical address through the I-side.
        return int.from_bytes(core.l1i.peek(pc, 4), "little")

    def tail(self, count: int = 20) -> list[TraceRecord]:
        return list(self.records)[-count:]

    def format_tail(self, count: int = 20) -> str:
        return "\n".join(str(record) for record in self.tail(count))

    def __len__(self) -> int:
        return len(self.records)
