"""Tests for the decoded program model."""

import pytest

from repro.cfg.build import build_cfg
from repro.cfg.cfg import CfgError
from repro.isa.encoding import encode, words_code
from repro.isa.instructions import Opcode
from repro.program.asm import assemble
from repro.program.disasm import disassemble_image
from repro.program.model import (
    Program,
    ProgramError,
    Routine,
    program_statistics,
)


def _routine(name: str, address: int, count: int = 2) -> Routine:
    body = [encode(Opcode.ADDQ, ra=1, rb=2, rc=3)] * (count - 1)
    body.append(encode(Opcode.RET, rb=26))
    return Routine(name, address, words_code(body))


class TestRoutine:
    def test_addressing(self):
        routine = _routine("f", 0x1000, 3)
        assert routine.size == 12
        assert routine.end == 0x100C
        assert routine.address_of(2) == 0x1008
        assert routine.index_of(0x1004) == 1
        assert routine.contains(0x1008)
        assert not routine.contains(0x100C)

    def test_index_of_rejects_outside_and_unaligned(self):
        routine = _routine("f", 0x1000, 2)
        with pytest.raises(ProgramError):
            routine.index_of(0x1008)
        with pytest.raises(ProgramError):
            routine.index_of(0x1001)

    def test_empty_routine_rejected(self):
        with pytest.raises(ProgramError):
            Routine("f", 0x1000, b"")

    def test_unaligned_address_rejected(self):
        with pytest.raises(ProgramError):
            _routine("f", 0x1001)

    def test_relink_to_empty_code_rejected(self):
        # ``lifted`` trusts a validated image; an edit is checked.
        routine = _routine("f", 0x1000, 2)
        with pytest.raises(ProgramError, match="has no instructions"):
            routine.relinked(0x1000, b"", ())
        with pytest.raises(ProgramError, match="unaligned address"):
            routine.relinked(0x1002, routine.code, routine.rows)

    def test_len_and_iter(self):
        routine = _routine("f", 0x1000, 3)
        assert len(routine) == 3
        assert len(routine.rows) == 3


class TestProgram:
    def _program(self) -> Program:
        return Program(
            routines=[_routine("b", 0x1010), _routine("a", 0x1000)],
            entry="a",
        )

    def test_lookup_by_name(self):
        program = self._program()
        assert program.routine("a").address == 0x1000
        with pytest.raises(ProgramError):
            program.routine("zz")

    def test_names_in_address_order(self):
        assert self._program().routine_names() == ["a", "b"]

    def test_entry_routine(self):
        assert self._program().entry_routine.name == "a"

    def test_routine_at_and_containing(self):
        program = self._program()
        assert program.routine_at(0x1010).name == "b"
        assert program.routine_at(0x1014) is None
        assert program.routine_containing(0x1014).name == "b"
        assert program.routine_containing(0x2000) is None

    def test_duplicate_names_rejected(self):
        with pytest.raises(ProgramError, match="duplicate"):
            Program(
                routines=[_routine("a", 0x1000), _routine("a", 0x1010)],
                entry="a",
            )

    def test_overlap_rejected(self):
        with pytest.raises(ProgramError, match="overlap"):
            Program(
                routines=[_routine("a", 0x1000, 4), _routine("b", 0x1008)],
                entry="a",
            )

    def test_missing_entry_rejected(self):
        with pytest.raises(ProgramError, match="entry"):
            Program(routines=[_routine("a", 0x1000)], entry="zz")

    def test_counts(self):
        program = self._program()
        assert program.routine_count == 2
        assert program.instruction_count == 4


class TestCheckSingleEntry:
    """The paper's routine model — a routine has a single entry — is
    what :func:`build_cfg` holds a routine to: a branch or jump-table
    target outside the routine, or a call to no routine entry, is a
    :class:`CfgError`."""

    def test_valid_program_passes(self, quick_program):
        for routine in quick_program:
            build_cfg(quick_program, routine)

    def test_branch_out_of_routine_rejected(self):
        routine = Routine(
            "f",
            0x1000,
            words_code([encode(Opcode.BR, displacement=5),
                           encode(Opcode.RET, rb=26)]),
        )
        program = Program(routines=[routine], entry="f")
        with pytest.raises(CfgError, match="outside the routine"):
            build_cfg(program, routine)

    def test_jump_table_target_out_of_routine_rejected(self):
        routine = Routine(
            "f",
            0x1000,
            words_code([encode(Opcode.JMP, rb=1), encode(Opcode.RET, rb=26)]),
        )
        program = Program(
            routines=[routine], entry="f", jump_targets={0x1000: (0x1008,)}
        )
        with pytest.raises(CfgError, match="outside the routine"):
            build_cfg(program, routine)

    def test_call_into_middle_rejected(self):
        caller = Routine(
            "caller",
            0x1000,
            words_code([encode(Opcode.BSR, ra=26, displacement=2),
                           encode(Opcode.RET, rb=26)]),
        )
        callee = _routine("callee", 0x1008, 3)
        program = Program(routines=[caller, callee], entry="caller")
        with pytest.raises(CfgError, match="not a routine entry"):
            build_cfg(program, caller)


class TestStatistics:
    def test_statistics_of_quick_program(self, quick_program):
        stats = program_statistics(quick_program)
        assert stats["routines"] == 2.0
        assert stats["instructions"] == float(quick_program.instruction_count)
        assert stats["calls_per_routine"] == 0.5  # one bsr over two routines
