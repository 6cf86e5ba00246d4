"""A routine's code as :class:`~repro.isa.instructions.Instruction`
values, for the oracles and tests that read instructions one at a time
(the program model itself holds only rows)."""

from functools import lru_cache
from typing import Tuple

from repro.isa.encoding import code_words, decode_instruction
from repro.isa.instructions import Instruction


@lru_cache(maxsize=1024)
def instructions_of(code: bytes) -> Tuple[Instruction, ...]:
    """``code`` decoded word by word (memoized: the oracles ask for a
    routine's instructions once per block)."""
    return tuple(map(decode_instruction, code_words(code)))
