"""Tests for the interpreter: opcode semantics, control flow, tracing."""

import pytest

from repro.program.asm import assemble
from repro.program.disasm import disassemble_image
from repro.sim.interpreter import ExecutionError, Interpreter, run_program


def run(source, **kwargs):
    return run_program(disassemble_image(assemble(source)), **kwargs)


def outputs(source, **kwargs):
    return run(source, **kwargs).outputs


def arith(body: str):
    """Run a straight-line body and OUTPUT a0."""
    return outputs(f".routine main\n{body}\n output\n halt\n")


class TestArithmetic:
    def test_addq(self):
        assert arith(" li t0, 40\n addq t0, #2, a0") == [42]

    def test_subq_negative_wraps(self):
        result = arith(" li t0, 1\n subq t0, #2, a0")
        assert result == [(1 << 64) - 1]

    def test_mulq(self):
        assert arith(" li t0, 7\n li t1, 6\n mulq t0, t1, a0") == [42]

    def test_logic(self):
        assert arith(" li t0, 12\n and t0, #10, a0") == [8]
        assert arith(" li t0, 12\n bis t0, #3, a0") == [15]
        assert arith(" li t0, 12\n xor t0, #10, a0") == [6]
        assert arith(" li t0, 12\n bic t0, #4, a0") == [8]

    def test_shifts(self):
        assert arith(" li t0, 3\n sll t0, #4, a0") == [48]
        assert arith(" li t0, 48\n srl t0, #4, a0") == [3]

    def test_sra_sign_extends(self):
        result = arith(" li t0, -16\n sra t0, #2, a0")
        assert result == [((1 << 64) - 4)]

    def test_comparisons(self):
        assert arith(" li t0, 3\n li t1, 5\n cmplt t0, t1, a0") == [1]
        assert arith(" li t0, 5\n li t1, 5\n cmpeq t0, t1, a0") == [1]
        assert arith(" li t0, 5\n li t1, 3\n cmple t0, t1, a0") == [0]
        assert arith(" li t0, -1\n li t1, 1\n cmplt t0, t1, a0") == [1]
        # Unsigned: -1 is huge.
        assert arith(" li t0, -1\n li t1, 1\n cmpult t0, t1, a0") == [0]

    def test_conditional_move(self):
        assert arith(" li t0, 0\n li t1, 9\n li a0, 1\n cmoveq t0, t1, a0") == [9]
        assert arith(" li t0, 5\n li t1, 9\n li a0, 1\n cmoveq t0, t1, a0") == [1]

    def test_zero_register_semantics(self):
        assert arith(" addq zero, #5, a0") == [5]
        assert arith(" li a0, 3\n addq zero, #9, zero") == [3]

    def test_lda_ldah(self):
        assert arith(" ldah t0, 2(zero)\n lda a0, 5(t0)") == [0x20005]


class TestMemory:
    def test_store_load_roundtrip(self):
        assert arith(
            " li t0, 77\n stq t0, -8(sp)\n ldq a0, -8(sp)"
        ) == [77]

    def test_data_section_preloaded(self):
        result = outputs(
            """
            .data vals: 11, 22
            .routine main
                li t0, @vals
                ldq a0, 8(t0)
                output
                halt
            """
        )
        assert result == [22]

    def test_unaligned_access_rejected(self):
        with pytest.raises(ExecutionError, match="unaligned"):
            run(".routine main\n li t0, 3\n ldq a0, 0(t0)\n halt\n")


class TestControlFlow:
    def test_conditional_branches(self):
        source = """
        .routine main
            li t0, {value}
            {op} t0, yes
            li a0, 0
            output
            halt
        yes:
            li a0, 1
            output
            halt
        """
        cases = [
            ("beq", 0, 1), ("beq", 5, 0),
            ("bne", 5, 1), ("bne", 0, 0),
            ("blt", -1, 1), ("blt", 1, 0),
            ("ble", 0, 1), ("bgt", 1, 1),
            ("bge", 0, 1), ("blbs", 3, 1), ("blbc", 2, 1),
        ]
        for op, value, expected in cases:
            got = outputs(source.format(op=op, value=value))
            assert got == [expected], (op, value)

    def test_loop(self):
        assert outputs(
            """
            .routine main
                li t0, 5
                li a0, 0
            top:
                addq a0, t0, a0
                subq t0, #1, t0
                bgt t0, top
                output
                halt
            """
        ) == [15]

    def test_call_and_return(self, quick_program):
        result = run_program(quick_program)
        assert result.outputs == [6]

    def test_indirect_call(self):
        assert outputs(
            """
            .routine main
                li  a0, 10
                li  pv, &double
                jsr ra, (pv)
                bis zero, v0, a0
                output
                halt
            .routine double
                addq a0, a0, v0
                ret (ra)
            """
        ) == [20]

    def test_jump_table_dispatch(self):
        source = """
            .routine main
                li   t0, {index}
                li   t2, &T
                sll  t0, #3, t1
                addq t2, t1, t2
                ldq  t2, 0(t2)
                jmp  t2, [T]
            c0: li a0, 100
                output
                halt
            c1: li a0, 200
                output
                halt
            .jumptable T: c0, c1
        """
        assert outputs(source.format(index=0)) == [100]
        assert outputs(source.format(index=1)) == [200]

    def test_recursion(self):
        # factorial(5) via a0, accumulating in v0.
        assert outputs(
            """
            .routine main
                li a0, 5
                bsr ra, fact
                bis zero, v0, a0
                output
                halt
            .routine fact
                lda sp, -16(sp)
                stq ra, 0(sp)
                stq s0, 8(sp)
                bis zero, a0, s0
                li v0, 1
                ble a0, done
                subq a0, #1, a0
                bsr ra, fact
                mulq v0, s0, v0
            done:
                ldq s0, 8(sp)
                ldq ra, 0(sp)
                lda sp, 16(sp)
                ret (ra)
            """
        ) == [120]


class TestLimitsAndErrors:
    def test_step_limit(self):
        with pytest.raises(ExecutionError, match="exceeded"):
            run(".routine main\nspin:\n br spin\n", max_steps=100)

    def test_wild_jump_detected(self):
        with pytest.raises(ExecutionError, match="not executable"):
            run(".routine main\n li t0, 64\n jmp (t0)\n")

    def test_opcode_counts(self):
        result = run(".routine main\n li t0, 1\n addq t0, #1, t0\n halt\n")
        assert result.opcode_counts["addq"] == 1
        assert result.opcode_counts["halt"] == 1
        assert result.steps == 3


class TestCallTracing:
    SOURCE = """
        .routine main
            li a0, 5
            bsr ra, helper
            bis zero, v0, a0
            output
            halt
        .routine helper
            addq a0, #1, v0
            ret (ra)
    """

    def _trace(self):
        program = disassemble_image(assemble(self.SOURCE))
        return run_program(program, trace_calls=True)

    def test_one_call_recorded(self):
        records = self._trace().call_records
        assert len(records) == 1
        assert records[0].callee == "helper"

    def test_read_before_write_observed(self):
        record = self._trace().call_records[0]
        from repro.dataflow.regset import RegisterSet

        names = RegisterSet.from_mask(record.read_before_write).names()
        assert "a0" in names   # helper reads its argument
        assert "ra" in names   # ret reads the return address

    def test_written_and_changed(self):
        record = self._trace().call_records[0]
        from repro.dataflow.regset import RegisterSet

        assert "v0" in RegisterSet.from_mask(record.written).names()
        assert "v0" in RegisterSet.from_mask(record.changed).names()

    def test_nested_calls_fold_into_parent(self):
        program = disassemble_image(
            assemble(
                """
                .routine main
                    li a0, 1
                    bsr ra, outer
                    halt
                .routine outer
                    lda sp, -16(sp)
                    stq ra, 0(sp)
                    bsr ra, inner
                    ldq ra, 0(sp)
                    lda sp, 16(sp)
                    ret (ra)
                .routine inner
                    addq a0, #1, v0
                    ret (ra)
                """
            )
        )
        result = run_program(program, trace_calls=True)
        by_name = {record.callee: record for record in result.call_records}
        assert set(by_name) == {"outer", "inner"}
        # inner's write of v0 is visible in outer's record too.
        from repro.dataflow.regset import RegisterSet

        assert "v0" in RegisterSet.from_mask(by_name["outer"].written).names()

    def test_every_write_is_traced_from_the_row_masks(self):
        """A call's record holds exactly the union of the def masks of
        the rows it executed — a ``br``'s link write included — and
        its reads before writes."""
        from repro.dataflow.regset import RegisterSet

        program = disassemble_image(
            assemble(
                """
                .routine main
                    bsr ra, helper
                    halt
                .routine helper
                    br t0, next
                next:
                    addq t1, #1, t2
                    ret (ra)
                """
            )
        )
        (record,) = run_program(program, trace_calls=True).call_records
        assert RegisterSet.from_mask(record.written).names() == {"t0", "t2"}
        assert RegisterSet.from_mask(record.read_before_write).names() == {
            "t1", "ra"
        }


class TestDeterminism:
    def test_same_program_same_result(self, small_benchmark):
        first = run_program(small_benchmark)
        second = run_program(small_benchmark)
        assert first.observable == second.observable
        assert first.steps == second.steps
