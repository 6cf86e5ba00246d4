"""Tests for the SAX executable image format."""

import struct

import pytest

from repro.api import AnalysisSession
from repro.isa.encoding import encode, words_code
from repro.isa.instructions import Opcode
from repro.program.asm import assemble
from repro.program.disasm import disassemble_image, load_program
from repro.program.image import (
    DEFAULT_DATA_BASE,
    DEFAULT_TEXT_BASE,
    CallTargetHint,
    ExecutableImage,
    ImageFormatError,
    JumpTableInfo,
    Symbol,
    pack_jump_table,
)
from repro.program.linker import ObjectModule, link_modules
from repro.program.rewrite import program_to_image

_SOURCE = """
.routine main export
    bsr     ra, f
    halt
.routine f
    ret     (ra)
"""


def _code(count: int) -> bytes:
    return words_code([encode(Opcode.HALT)] * count)


def _image(**overrides) -> ExecutableImage:
    fields = dict(
        text=_code(4),
        data=b"\x00" * 32,
        symbols=[
            Symbol("main", DEFAULT_TEXT_BASE, 8, exported=True),
            Symbol("f", DEFAULT_TEXT_BASE + 8, 8),
        ],
        entry_point=DEFAULT_TEXT_BASE,
    )
    fields.update(overrides)
    return ExecutableImage(**fields)


class TestSymbol:
    """A symbol is a plain row; :meth:`ExecutableImage.validate` checks
    its fields, like every other image fact."""

    def test_end(self):
        assert Symbol("f", 100, 8).end == 108

    def test_empty_name_rejected(self):
        with pytest.raises(ImageFormatError, match="symbol with empty name"):
            _image(symbols=[Symbol("", DEFAULT_TEXT_BASE, 8)]).validate()

    def test_unaligned_size_rejected(self):
        with pytest.raises(
            ImageFormatError, match="symbol 'f' size 6 not word aligned"
        ):
            _image(
                symbols=[
                    Symbol("main", DEFAULT_TEXT_BASE, 8),
                    Symbol("f", DEFAULT_TEXT_BASE + 8, 6),
                ]
            ).validate()

    def test_negative_fields_rejected(self):
        main = Symbol("main", DEFAULT_TEXT_BASE, 8)
        with pytest.raises(ImageFormatError, match="symbol 'f' .* outside text"):
            _image(symbols=[main, Symbol("f", -4, 8)]).validate()
        with pytest.raises(ImageFormatError, match="'f' has no instructions"):
            _image(
                symbols=[main, Symbol("f", DEFAULT_TEXT_BASE + 8, -8)]
            ).validate()


class TestValidation:
    def test_valid_image_passes(self):
        _image().validate()

    def test_unaligned_text_rejected(self):
        with pytest.raises(ImageFormatError):
            _image(text=b"\x00" * 6).validate()

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(ImageFormatError, match="duplicate"):
            _image(
                symbols=[
                    Symbol("f", DEFAULT_TEXT_BASE, 8),
                    Symbol("f", DEFAULT_TEXT_BASE + 8, 8),
                ]
            ).validate()

    def test_overlapping_symbols_rejected(self):
        with pytest.raises(ImageFormatError, match="overlap"):
            _image(
                symbols=[
                    Symbol("a", DEFAULT_TEXT_BASE, 12),
                    Symbol("b", DEFAULT_TEXT_BASE + 8, 8),
                ]
            ).validate()

    def test_symbol_outside_text_rejected(self):
        with pytest.raises(ImageFormatError, match="outside text"):
            _image(symbols=[Symbol("a", DEFAULT_TEXT_BASE, 64)]).validate()

    def test_entry_point_must_be_inside_a_routine(self):
        with pytest.raises(ImageFormatError, match="entry point"):
            _image(entry_point=DEFAULT_TEXT_BASE + 100).validate()

    def test_jump_table_outside_data_rejected(self):
        with pytest.raises(ImageFormatError, match="outside data"):
            _image(
                jump_tables=[
                    JumpTableInfo(DEFAULT_TEXT_BASE, DEFAULT_DATA_BASE + 64, 2)
                ]
            ).validate()

    def test_jump_table_owner_outside_text_rejected(self):
        with pytest.raises(ImageFormatError, match="owner"):
            _image(
                jump_tables=[JumpTableInfo(0x1, DEFAULT_DATA_BASE, 2)]
            ).validate()

    def test_empty_jump_table_rejected(self):
        message = f"jump table at {DEFAULT_DATA_BASE:#x} has count 0"
        with pytest.raises(ImageFormatError, match=message):
            _image(
                jump_tables=[JumpTableInfo(DEFAULT_TEXT_BASE, DEFAULT_DATA_BASE, 0)]
            ).validate()

    def test_data_relocation_outside_data_rejected(self):
        with pytest.raises(ImageFormatError, match="relocation"):
            _image(data_relocations=[DEFAULT_DATA_BASE + 32]).validate()


class TestLookups:
    def test_symbol_by_name(self):
        image = _image()
        assert image.symbol_by_name("main").address == DEFAULT_TEXT_BASE
        with pytest.raises(KeyError):
            image.symbol_by_name("nope")

    def test_symbol_at(self):
        image = _image()
        assert image.symbol_at(DEFAULT_TEXT_BASE + 8).name == "f"
        assert image.symbol_at(DEFAULT_TEXT_BASE + 4) is None

    def test_read_jump_table(self):
        targets = (DEFAULT_TEXT_BASE, DEFAULT_TEXT_BASE + 4)
        image = _image(
            data=pack_jump_table(targets) + b"\x00" * 16,
            jump_tables=[JumpTableInfo(DEFAULT_TEXT_BASE, DEFAULT_DATA_BASE, 2)],
        )
        info = image.jump_tables[0]
        assert image.read_jump_table(info) == targets

    def test_instruction_count(self):
        assert _image().instruction_count == 4


class TestSerialization:
    def test_roundtrip(self):
        image = _image(
            data=pack_jump_table((DEFAULT_TEXT_BASE, DEFAULT_TEXT_BASE + 4))
            + b"\xAB" * 16,
            jump_tables=[JumpTableInfo(DEFAULT_TEXT_BASE, DEFAULT_DATA_BASE, 2)],
            data_relocations=[DEFAULT_DATA_BASE + 8, DEFAULT_DATA_BASE + 16],
            call_target_hints=[
                CallTargetHint(DEFAULT_TEXT_BASE + 4, (DEFAULT_TEXT_BASE + 8,)),
                CallTargetHint(
                    DEFAULT_TEXT_BASE + 12,
                    (DEFAULT_TEXT_BASE, DEFAULT_TEXT_BASE + 8),
                ),
            ],
        )
        restored = ExecutableImage.from_bytes(image.to_bytes())
        assert restored == image
        assert restored.read_jump_table(restored.jump_tables[0]) == (
            DEFAULT_TEXT_BASE, DEFAULT_TEXT_BASE + 4,
        )
        assert restored.to_bytes() == image.to_bytes()

    def test_bad_magic_rejected(self):
        blob = bytearray(_image().to_bytes())
        blob[:4] = b"NOPE"
        with pytest.raises(ImageFormatError, match="magic"):
            ExecutableImage.from_bytes(bytes(blob))

    def test_truncated_rejected(self):
        blob = _image().to_bytes()
        with pytest.raises(ImageFormatError):
            ExecutableImage.from_bytes(blob[:10])
        with pytest.raises(ImageFormatError):
            ExecutableImage.from_bytes(blob[:-4])

    def test_truncated_relocations_are_named(self):
        blob = _image(data_relocations=[DEFAULT_DATA_BASE]).to_bytes()
        with pytest.raises(ImageFormatError, match="truncated data relocations"):
            ExecutableImage.from_bytes(blob[:-1])

    def test_exported_flag_survives(self):
        restored = ExecutableImage.from_bytes(_image().to_bytes())
        assert restored.symbol_by_name("main").exported
        assert not restored.symbol_by_name("f").exported


class TestHostileSymbolTables:
    """Symbol tables no linker writes: each must be a typed
    :class:`ImageFormatError` at parse time, never a raw
    ``UnicodeDecodeError`` or a ``ProgramError`` out of the lifter."""

    def test_each_is_rejected_at_parse_time(self, hostile_symbol_tables):
        hostile = hostile_symbol_tables(_image().to_bytes())
        expected = {
            "symbol-name-not-utf8": "symbol name is not UTF-8",
            "symbol-zero-size": "symbol 'f' has no instructions",
            "symbol-unaligned": "symbol 'f' at unaligned address 0x1000a",
        }
        assert sorted(hostile) == sorted(expected)
        for name, message in expected.items():
            with pytest.raises(ImageFormatError, match=message):
                ExecutableImage.from_bytes(hostile[name])

    def test_validate_rejects_the_same_symbols_in_memory(self):
        with pytest.raises(ImageFormatError, match="has no instructions"):
            _image(
                symbols=[
                    Symbol("main", DEFAULT_TEXT_BASE, 8),
                    Symbol("f", DEFAULT_TEXT_BASE + 8, 0),
                ]
            ).validate()
        with pytest.raises(ImageFormatError, match="unaligned address"):
            _image(
                symbols=[
                    Symbol("main", DEFAULT_TEXT_BASE, 8),
                    Symbol("f", DEFAULT_TEXT_BASE + 10, 4),
                ]
            ).validate()

    def test_validate_returns_the_symbols_by_entry_address(self):
        image = _image()
        assert image.validate() == {
            symbol.address: symbol for symbol in image.symbols
        }


class TestOneValidationPerOpen:
    """Opening image bytes runs each :meth:`ExecutableImage.validate`
    check once: ``parse`` reads, and whoever lifts or hands out the
    image validates it."""

    @pytest.fixture
    def validations(self, monkeypatch):
        """The images :meth:`ExecutableImage.validate` has checked."""
        calls = []
        validate = ExecutableImage.validate
        monkeypatch.setattr(
            ExecutableImage, "validate",
            lambda image: calls.append(image) or validate(image),
        )
        return calls

    def test_from_image_bytes_validates_once(self, validations):
        blob = _image().to_bytes()
        validations.clear()
        AnalysisSession.from_image_bytes(blob)
        assert len(validations) == 1
        ExecutableImage.from_bytes(blob)
        assert len(validations) == 2

    def test_assembled_bytes_validate_once(self, validations):
        assemble(_SOURCE).to_bytes()
        assert len(validations) == 1

    def test_linked_bytes_validate_once(self, validations):
        app = ObjectModule("app").extern("f")
        app.routine("main", exported=True)
        app.bsr("f")
        app.halt()
        lib = ObjectModule("lib")
        lib.routine("f")
        lib.ret()
        link_modules([app, lib], entry="main").to_bytes()
        assert len(validations) == 1

    def test_rewritten_bytes_validate_once(self, validations):
        program = disassemble_image(assemble(_SOURCE))
        validations.clear()
        program_to_image(program).to_bytes()
        assert len(validations) == 1

    def test_disassembling_an_assembled_image_validates_once(
        self, validations
    ):
        disassemble_image(assemble(_SOURCE))
        assert len(validations) == 1

    def test_an_entry_point_inside_a_routine_is_rejected(self):
        # One word into "main": inside a routine, but not its entry.
        address = DEFAULT_TEXT_BASE + 4
        message = f"entry point {address:#x} is not a routine entry"
        with pytest.raises(ImageFormatError, match=message):
            _image(entry_point=address).validate()
        blob = bytearray(_image().to_bytes())
        struct.pack_into("<Q", blob, 24, address)
        for open_image in (
            ExecutableImage.from_bytes, load_program,
            AnalysisSession.from_image_bytes,
        ):
            with pytest.raises(ImageFormatError, match=message):
                open_image(bytes(blob))

    def test_an_inconsistent_image_parses_and_fails_validation(self):
        # The entry point moved past every routine: a consistency
        # check, not a reading one.
        blob = bytearray(_image().to_bytes())
        struct.pack_into("<Q", blob, 24, DEFAULT_TEXT_BASE + 64)
        blob = bytes(blob)
        assert ExecutableImage.parse(blob).entry_point == DEFAULT_TEXT_BASE + 64
        message = f"entry point {DEFAULT_TEXT_BASE + 64:#x} not inside any routine"
        for open_image in (
            ExecutableImage.from_bytes, load_program,
            AnalysisSession.from_image_bytes,
        ):
            with pytest.raises(ImageFormatError, match=message):
                open_image(blob)
