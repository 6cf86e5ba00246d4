"""Hostile code: programs that decode but that no CFG or PSG can model.

Each case edits one small, valid program (:func:`base`) so that one
routine breaks one front-end rule.  ``HOSTILE`` maps a case name to
``(edit, expected exception type, a fragment of its message)``; every
path that analyzes the program must raise that exception with that
message.
"""

from __future__ import annotations

import dataclasses
import struct

from repro.cfg.cfg import CfgError
from repro.interproc.errors import AnalysisError
from repro.isa.encoding import code_words, encode, replace_fields, words_code
from repro.isa.instructions import ControlKind, Opcode
from repro.program.asm import assemble
from repro.program.disasm import disassemble_image
from repro.program.model import Program, Routine
from tests.decoded import rows_of

BASE_SOURCE = """
.routine main export
    lda  sp, -16(sp)
    stq  ra, 0(sp)
    and  t0, #1, t1
    li   t2, &T
    sll  t1, #3, t1
    addq t2, t1, t2
    ldq  t2, 0(t2)
    jmp  t2, [T]
c0: bsr  ra, helper
    br   done
c1: li   pv, &helper
    jsr  ra, (pv)
    br   done
.jumptable T: c0, c1
done:
    ldq  ra, 0(sp)
    lda  sp, 16(sp)
    ret  (ra)
.routine helper
    addq a0, #1, v0
    ret  (ra)
"""


def base() -> Program:
    """The valid program every case edits."""
    return disassemble_image(assemble(BASE_SOURCE))


def _with_helper(program: Program, words) -> Program:
    routines = [
        Routine(
            routine.name, routine.address, words_code(words), routine.exported
        )
        if routine.name == "helper" else routine
        for routine in program.routines
    ]
    return dataclasses.replace(program, routines=routines)


def _site(program: Program, control: ControlKind) -> int:
    main_routine = program.routine("main")
    return next(
        main_routine.address_of(index)
        for index, row in enumerate(rows_of(main_routine.code))
        if row.control == control
    )


def _branch_outside(program):
    return _with_helper(program, (encode(Opcode.BR, displacement=50),))


def _call_at_last(program):
    return _with_helper(
        program,
        (encode(Opcode.ADDQ, ra=16, rc=0, literal=1),
         encode(Opcode.BSR, ra=26, displacement=-3)),
    )


def _falls_off(program):
    return _with_helper(
        program, (encode(Opcode.ADDQ, ra=16, rc=0, literal=1),)
    )


def _table_outside(program):
    jump = _site(program, ControlKind.INDIRECT_JUMP)
    return dataclasses.replace(
        program,
        jump_targets={jump: (program.routine("helper").address,)},
    )


def _table_unaligned(program):
    # Inside the routine, two bytes into an instruction.
    jump = _site(program, ControlKind.INDIRECT_JUMP)
    first, *rest = program.jump_targets[jump]
    return dataclasses.replace(
        program, jump_targets={**program.jump_targets, jump: (first + 2, *rest)}
    )


def _bsr_to_non_entry(program):
    main_routine = program.routine("main")
    words = [
        replace_fields(word, displacement=row.displacement + 1)
        if row.control == ControlKind.CALL_DIRECT else word
        for word, row in zip(code_words(main_routine.code), rows_of(main_routine.code))
    ]
    routines = [
        Routine("main", main_routine.address, words_code(words), main_routine.exported)
        if routine.name == "main" else routine
        for routine in program.routines
    ]
    return dataclasses.replace(program, routines=routines)


def _hint_to_non_entry(program):
    call = _site(program, ControlKind.CALL_INDIRECT)
    return dataclasses.replace(
        program,
        call_target_hints={call: (program.routine("helper").address + 4,)},
    )


def _boundary_free_loop(program):
    return _with_helper(
        program,
        (encode(Opcode.ADDQ, ra=1, rc=1, literal=1),
         encode(Opcode.BR, displacement=-2)),
    )


#: name -> (edit, expected exception type, a fragment of its message)
HOSTILE = {
    "branch-outside": (_branch_outside, CfgError, "outside the routine"),
    "call-at-last": (_call_at_last, CfgError, "has no return point"),
    "falls-off": (_falls_off, CfgError, "falls off the end"),
    "table-outside": (_table_outside, CfgError, "jump table at"),
    "table-unaligned": (_table_unaligned, CfgError, "outside the routine"),
    "bsr-to-non-entry": (_bsr_to_non_entry, CfgError, "not a routine entry"),
    "hint-to-non-entry": (_hint_to_non_entry, CfgError, "call-target hint"),
    "boundary-free-loop": (_boundary_free_loop, AnalysisError, "infinite loop"),
}


# ----------------------------------------------------------------------
# Hostile text: two undecodable words, the later one met first by a
# hash-ordered pass
# ----------------------------------------------------------------------

#: Two distinct words no instruction format claims (majors 0x1 and
#: 0x2).  A set of ints places each by its low bits, so a pass over
#: the distinct words in set order meets :data:`LATER_BAD_WORD` before
#: :data:`FIRST_BAD_WORD` — only the stream order may decide which one
#: an error names.
FIRST_BAD_WORD = 1 << 26 | 0x3F
LATER_BAD_WORD = 2 << 26


def two_bad_words(image):
    """``image`` with text word 1 :data:`FIRST_BAD_WORD` and its last
    word :data:`LATER_BAD_WORD`, and the address of the first."""
    words = list(struct.unpack(f"<{len(image.text) // 4}I", image.text))
    words[1] = FIRST_BAD_WORD
    words[-1] = LATER_BAD_WORD
    set_order = [word for word in set(words) if word in (FIRST_BAD_WORD, LATER_BAD_WORD)]
    assert set_order[0] == LATER_BAD_WORD, "the set meets the first bad word first"
    text = struct.pack(f"<{len(words)}I", *words)
    return dataclasses.replace(image, text=text), image.text_base + 4
