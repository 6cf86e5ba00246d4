"""Tests for repro.isa.registers."""

import pytest

from repro.isa.registers import (
    FLOAT_ZERO_REGISTER,
    NUM_REGISTERS,
    RETURN_ADDRESS,
    STACK_POINTER,
    Register,
    RegisterFile,
    ZERO_REGISTER,
    all_registers,
)


class TestRegister:
    def test_integer_indices(self):
        assert Register.integer(0).index == 0
        assert Register.integer(31).index == 31

    def test_float_indices_offset_by_32(self):
        assert Register.float(0).index == 32
        assert Register.float(31).index == 63

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            Register(64)
        with pytest.raises(ValueError):
            Register(-1)

    def test_integer_constructor_rejects_32(self):
        with pytest.raises(ValueError):
            Register.integer(32)

    def test_float_constructor_rejects_32(self):
        with pytest.raises(ValueError):
            Register.float(32)

    def test_is_integer_is_float_partition(self):
        for register in all_registers():
            assert register.is_integer != register.is_float

    def test_zero_registers(self):
        assert Register(ZERO_REGISTER).is_zero
        assert Register(FLOAT_ZERO_REGISTER).is_zero
        assert not Register(0).is_zero

    def test_hardware_names(self):
        assert Register(4).hardware_name == "r4"
        assert Register(36).hardware_name == "f4"

    def test_software_names(self):
        assert Register(0).name == "v0"
        assert Register(9).name == "s0"
        assert Register(16).name == "a0"
        assert Register(RETURN_ADDRESS).name == "ra"
        assert Register(STACK_POINTER).name == "sp"
        assert Register(ZERO_REGISTER).name == "zero"

    def test_float_names_fall_back_to_hardware(self):
        assert Register.float(7).name == "f7"

    def test_hardware_name_is_only_formatted_as_the_fallback(self, monkeypatch):
        """A software-named register never pays for the f-string (it
        was the eager ``dict.get`` default: 43k formats per payload)."""
        formatted = []
        original = Register.hardware_name.fget

        def counting(self):
            formatted.append(self.index)
            return original(self)

        monkeypatch.setattr(Register, "hardware_name", property(counting))
        assert Register(STACK_POINTER).name == "sp"
        assert formatted == []
        assert Register.float(7).name == "f7"
        assert formatted == [39]

    def test_parse_hardware_name(self):
        assert Register.parse("r17").index == 17
        assert Register.parse("f2").index == 34

    def test_parse_software_name(self):
        assert Register.parse("t0").index == 1
        assert Register.parse("pv").index == 27

    def test_parse_is_case_insensitive(self):
        assert Register.parse("SP").index == STACK_POINTER

    def test_parse_unknown_name(self):
        with pytest.raises(ValueError):
            Register.parse("r99")
        with pytest.raises(ValueError):
            Register.parse("bogus")

    def test_parse_roundtrips_every_register(self):
        for register in all_registers():
            assert Register.parse(register.name) == register
            assert Register.parse(register.hardware_name) == register

    def test_ordering_by_index(self):
        assert Register(3) < Register(7)
        assert sorted([Register(5), Register(1)]) == [Register(1), Register(5)]

    def test_equality_and_hash(self):
        assert Register(12) == Register(12)
        assert len({Register(1), Register(1), Register(2)}) == 2

    def test_all_registers_count(self):
        assert len(list(all_registers())) == NUM_REGISTERS


class TestRegisterFile:
    def test_initial_zero(self):
        assert RegisterFile().read(5) == 0

    def test_write_read(self):
        rf = RegisterFile()
        rf.write(3, 42)
        assert rf.read(3) == 42

    def test_write_accepts_register_objects(self):
        rf = RegisterFile()
        rf.write(Register(7), 9)
        assert rf.read(Register(7)) == 9

    def test_zero_register_reads_zero(self):
        rf = RegisterFile()
        rf.write(ZERO_REGISTER, 99)
        assert rf.read(ZERO_REGISTER) == 0

    def test_float_zero_register_discards_writes(self):
        rf = RegisterFile()
        rf.write(FLOAT_ZERO_REGISTER, 99)
        assert rf.read(FLOAT_ZERO_REGISTER) == 0

    def test_values_wrap_to_64_bits(self):
        rf = RegisterFile()
        rf.write(1, 1 << 64)
        assert rf.read(1) == 0
        rf.write(1, -1)
        assert rf.read(1) == (1 << 64) - 1

    def test_read_signed(self):
        rf = RegisterFile()
        rf.write(2, (1 << 64) - 5)
        assert rf.read_signed(2) == -5
        rf.write(2, 7)
        assert rf.read_signed(2) == 7

    def test_out_of_range_rejected(self):
        rf = RegisterFile()
        with pytest.raises(IndexError):
            rf.read(64)
        with pytest.raises(IndexError):
            rf.write(-1, 0)

    def test_initial_values(self):
        rf = RegisterFile({4: 11, 5: 22})
        assert rf.read(4) == 11
        assert rf.read(5) == 22

    def test_snapshot_is_immutable_copy(self):
        rf = RegisterFile({1: 10})
        snap = rf.snapshot()
        rf.write(1, 20)
        assert snap[1] == 10
        assert len(snap) == NUM_REGISTERS

    def test_copy_is_independent(self):
        rf = RegisterFile({1: 10})
        clone = rf.copy()
        clone.write(1, 99)
        assert rf.read(1) == 10
        assert clone.read(1) == 99
