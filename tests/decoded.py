"""A routine's code as rows with named fields, for the oracles and
tests that read instructions one at a time (the program model holds
plain row tuples, in :data:`~repro.isa.instructions.ROW_FIELDS`
order)."""

from collections import namedtuple
from functools import lru_cache
from typing import Tuple

from repro.isa.encoding import code_words, decode_row
from repro.isa.instructions import ROW_FIELDS

#: A decoded row whose fields can also be read by name
#: (``row.opcode``, ``row.use_mask``, ...); equal to the plain row.
Row = namedtuple("Row", ROW_FIELDS)


def row_of(word: int) -> Row:
    """``word`` decoded, with named fields."""
    return Row._make(decode_row(word))


@lru_cache(maxsize=1024)
def rows_of(code: bytes) -> Tuple[Row, ...]:
    """``code`` decoded word by word (memoized: the oracles ask for a
    routine's rows once per block)."""
    return tuple(map(row_of, code_words(code)))


def operands(row: tuple) -> dict:
    """The keyword arguments of :func:`repro.isa.encoding.encode` that
    give ``row``'s word back."""
    named = Row._make(row)
    return {
        "ra": named.ra, "rb": named.rb, "rc": named.rc,
        "literal": named.literal, "displacement": named.displacement,
    }
