"""The translator heats block heads only.

A block that leaves its region early (an event or digest-probe limit, a
guard failure, an interrupt ``eret``) hands the rest of the region to the
interpreter.  Those interpreter arrivals inside a compiled region must not
heat their pcs: each would otherwise compile a near-duplicate of the
region's tail.  A block *exit* that lands inside another region (a side
exit, a loop straddling the 64-instruction bound) is a real entry point and
still compiles a block there.  Either way the run stays bit-identical to
the interpreter.
"""

from __future__ import annotations

from repro.isa.assembler import Assembler
from repro.kernel.layout import DEFAULT_LAYOUT
from repro.microarch.config import SCALED_A9_CONFIG
from repro.microarch.core import Mode
from repro.microarch.digest import arch_digest, system_digest
from repro.microarch.system import PerfCounters, System
from repro.microarch.translate import MAX_BLOCK_INSTRUCTIONS, attach_translator


def _filler(count: int) -> list[str]:
    """Straight-line ALU and L1D-resident load/store traffic."""
    shapes = (
        "    addi r{a}, r{b}, 3",
        "    ldw  r{a}, [r11, {off}]",
        "    eor  r{a}, r{a}, r{b}",
        "    stw  r{a}, [r11, {off}]",
    )
    return [
        shapes[i % len(shapes)].format(a=i % 8, b=(i + 3) % 8, off=(i % 16) * 4)
        for i in range(count)
    ]


#: One 40-instruction hot loop, 300 iterations.
HOT_LOOP = "\n".join(
    [
        "_start:",
        "    la   r11, buf",
        "    movi r10, 300",
        "loop:",
        *_filler(37),
        "    subi r10, r10, 1",
        "    cmpi r10, 0",
        "    bne  loop",
        "    movi r0, 0",
        "    movi r7, 0",
        "    syscall",
        "    .data",
        "buf: .space 64",
    ]
) + "\n"

#: ``inner`` sits 25 instructions into the region compiled at ``outer``,
#: and the ``bne inner`` back-edge lies past that region's 64-instruction
#: bound, so ``inner`` is interior to it and not an in-region target.  The
#: first 30 outer iterations run the inner body once (``outer`` gets hot
#: and compiles first); the last 30 iterate it 20 times, so a block exit
#: keeps landing on ``inner``.
STRADDLE = "\n".join(
    [
        "_start:",
        "    la   r11, buf",
        "    movi r10, 60",
        "outer:",
        "    movi r9, 1",
        "    cmpi r10, 30",
        "    bgt  once",
        "    movi r9, 20",
        "once:",
        *_filler(21),
        "inner:",
        *_filler(50),
        "    subi r9, r9, 1",
        "    cmpi r9, 0",
        "    bne  inner",
        "    subi r10, r10, 1",
        "    cmpi r10, 0",
        "    bne  outer",
        "    movi r0, 0",
        "    movi r7, 0",
        "    syscall",
        "    .data",
        "buf: .space 64",
    ]
) + "\n"


def _assemble(source: str):
    assembler = Assembler(
        text_base=DEFAULT_LAYOUT.user_text_base,
        data_base=DEFAULT_LAYOUT.user_data_base,
    )
    return assembler.assemble(source, entry="_start")


def _run(source: str, translate: bool, events=None):
    system = System(_assemble(source), config=SCALED_A9_CONFIG)
    translator = attach_translator(system) if translate else None
    result = system.run(max_cycles=5_000_000, events=events)
    assert result.exited_cleanly
    return system, result, translator


def _assert_indistinguishable(interp, trans):
    (interp_system, interp_result), (trans_system, trans_result) = interp, trans
    assert trans_result.cycles == interp_result.cycles
    for name in PerfCounters.__slots__:
        assert getattr(trans_result.counters, name) == getattr(
            interp_result.counters, name
        ), name
    assert arch_digest(trans_system) == arch_digest(interp_system)
    assert system_digest(trans_system) == system_digest(interp_system)


def test_mid_region_limit_exits_compile_no_extra_blocks():
    _, plain_result, plain = _run(HOT_LOOP, translate=True)
    # An event every 7 cycles: blocks keep stopping mid-region and the
    # interpreter walks each region's tail back to the loop head.
    events = [
        (cycle, lambda: None) for cycle in range(0, plain_result.cycles, 7)
    ]
    evented_system, evented_result, evented = _run(
        HOT_LOOP, translate=True, events=events
    )
    interp_system, interp_result, _ = _run(HOT_LOOP, translate=False, events=events)

    assert evented.block_runs > 0
    assert evented.compiled <= plain.compiled
    _assert_indistinguishable(
        (interp_system, interp_result), (evented_system, evented_result)
    )


def test_block_exit_inside_another_region_still_compiles():
    program = _assemble(STRADDLE)
    outer, inner = program.symbols["outer"], program.symbols["inner"]
    assert (inner - outer) // 4 < MAX_BLOCK_INSTRUCTIONS
    trans_system, trans_result, translator = _run(STRADDLE, translate=True)

    assert ((inner << 1) | int(Mode.USER)) in translator._interior
    assert isinstance(translator._user_blocks.get(inner), list)
    _assert_indistinguishable(
        _run(STRADDLE, translate=False)[:2], (trans_system, trans_result)
    )
