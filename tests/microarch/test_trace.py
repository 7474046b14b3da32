"""Execution tracing."""

from __future__ import annotations

from repro.microarch.trace import InstructionTrace


class TestTracer:
    def test_records_every_instruction(self, run_program, exit0):
        tracer = InstructionTrace(limit=10_000)
        result = run_program(f"""
_start:
    movi r1, 5
    movi r2, 6
    add  r3, r1, r2
{exit0}
""", trace=None)  # baseline instruction count without tracing
        baseline = result.counters.instructions

        result = run_program(f"""
_start:
    movi r1, 5
    movi r2, 6
    add  r3, r1, r2
{exit0}
""", trace=tracer.hook)
        # The trace also records the terminal instruction (the kernel's
        # halt), whose step raises before the retired-instruction counter
        # increments - so it sees exactly one more than icount.
        assert result.counters.instructions == baseline
        assert tracer.instructions_seen == baseline + 1

    def test_ring_buffer_bounded(self, run_program, exit0):
        tracer = InstructionTrace(limit=16)
        run_program(f"""
_start:
    li   r1, 500
loop:
    subi r1, r1, 1
    cmpi r1, 0
    bgt  loop
{exit0}
""", trace=tracer.hook)
        assert len(tracer) == 16
        assert tracer.instructions_seen > 16

    def test_records_carry_disassembly_and_mode(self, run_program, exit0):
        tracer = InstructionTrace(limit=100_000)
        run_program(f"""
_start:
    movi r1, 42
{exit0}
""", trace=tracer.hook)
        texts = [record.text for record in tracer.records]
        assert "movi r1, 42" in texts
        modes = {record.mode for record in tracer.records}
        assert modes == {"user", "kernel"}  # boot + syscall run in kernel

    def test_tail_formatting(self, run_program, exit0):
        tracer = InstructionTrace()
        run_program(f"_start:\n{exit0}", trace=tracer.hook)
        tail = tracer.format_tail(5)
        assert "0x" in tail and len(tail.splitlines()) == 5

    def test_trace_shows_the_faulting_instruction(self, run_program, exit0):
        tracer = InstructionTrace()
        result = run_program(f"""
_start:
    li   r1, 0x00700000
    ldw  r2, [r1]
{exit0}
""", trace=tracer.hook)
        user_records = [r for r in tracer.records if r.mode == "user"]
        assert any("ldw r2, [r1, 0]" in r.text for r in user_records)

    def test_tracing_does_not_change_results(self, run_program, exit0):
        source = f"""
_start:
    li   r1, 100
    movi r3, 0
loop:
    add  r3, r3, r1
    subi r1, r1, 1
    cmpi r1, 0
    bgt  loop
    mov  r0, r3
    movi r7, 3
    syscall
{exit0}
"""
        plain = run_program(source)
        traced = run_program(source, trace=InstructionTrace().hook)
        assert plain.output == traced.output
        assert plain.cycles == traced.cycles
