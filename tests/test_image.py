"""Tests for the SAX executable image format."""

import pytest

from repro.isa.encoding import encode_stream
from repro.isa.instructions import Instruction, Opcode
from repro.program.image import (
    DEFAULT_DATA_BASE,
    DEFAULT_TEXT_BASE,
    ExecutableImage,
    ImageFormatError,
    JumpTableInfo,
    Symbol,
    pack_jump_table,
)


def _code(count: int) -> bytes:
    return encode_stream([Instruction(Opcode.HALT)] * count)


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
    def test_end(self):
        assert Symbol("f", 100, 8).end == 108

    def test_empty_name_rejected(self):
        with pytest.raises(ImageFormatError):
            Symbol("", 0, 8)

    def test_unaligned_size_rejected(self):
        with pytest.raises(ImageFormatError):
            Symbol("f", 0, 6)

    def test_negative_fields_rejected(self):
        with pytest.raises(ImageFormatError):
            Symbol("f", -4, 8)


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
        with pytest.raises(ImageFormatError):
            JumpTableInfo(DEFAULT_TEXT_BASE, DEFAULT_DATA_BASE, 0)

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
        assert image.jump_table_for(DEFAULT_TEXT_BASE) is info
        assert image.jump_table_for(DEFAULT_TEXT_BASE + 4) is None

    def test_instruction_count(self):
        assert _image().instruction_count == 4


class TestSerialization:
    def test_roundtrip(self):
        image = _image(
            data=pack_jump_table((DEFAULT_TEXT_BASE,)) + b"\xAB" * 24,
            jump_tables=[JumpTableInfo(DEFAULT_TEXT_BASE, DEFAULT_DATA_BASE, 1)],
            data_relocations=[DEFAULT_DATA_BASE + 8],
        )
        restored = ExecutableImage.from_bytes(image.to_bytes())
        assert restored.text == image.text
        assert restored.data == image.data
        assert restored.symbols == image.symbols
        assert restored.jump_tables == image.jump_tables
        assert restored.data_relocations == image.data_relocations
        assert restored.entry_point == image.entry_point

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
