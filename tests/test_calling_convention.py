"""Tests for repro.isa.calling_convention."""

import pytest

from repro.isa.calling_convention import NT_ALPHA, CallingConvention, _ints


class TestNtAlpha:
    def test_return_registers(self):
        names = {r.name for r in NT_ALPHA.return_registers}
        assert names == {"v0", "f0", "f1"}

    def test_argument_registers(self):
        names = {r.name for r in NT_ALPHA.argument_registers}
        assert names == {"a0", "a1", "a2", "a3", "a4", "a5",
                         "f16", "f17", "f18", "f19", "f20", "f21"}

    def test_callee_saved(self):
        names = {r.name for r in NT_ALPHA.callee_saved}
        assert {"s0", "s1", "s2", "s3", "s4", "s5", "fp"} <= names
        assert {"f2", "f9"} <= names

    def test_special_registers(self):
        assert NT_ALPHA.stack_pointer.name == "sp"
        assert NT_ALPHA.return_address.name == "ra"
        assert NT_ALPHA.global_pointer.name == "gp"

    def test_roles_do_not_overlap(self):
        groups = (
            NT_ALPHA.argument_registers,
            NT_ALPHA.callee_saved,
            NT_ALPHA.temporaries,
        )
        seen = set()
        for group in groups:
            assert not (seen & set(group))
            seen |= set(group)

    def test_caller_saved_includes_temporaries_and_returns(self):
        caller = NT_ALPHA.caller_saved
        assert NT_ALPHA.temporaries <= caller
        assert NT_ALPHA.return_registers <= caller
        assert NT_ALPHA.return_address in caller

    def test_unknown_call_used_has_args_ra_sp(self):
        used = NT_ALPHA.unknown_call_used()
        assert NT_ALPHA.argument_registers <= used
        assert NT_ALPHA.return_address in used
        assert NT_ALPHA.stack_pointer in used

    def test_unknown_call_defined_is_return_registers(self):
        assert NT_ALPHA.unknown_call_defined() == NT_ALPHA.return_registers

    def test_unknown_call_killed_excludes_callee_saved(self):
        killed = NT_ALPHA.unknown_call_killed()
        assert not (killed & NT_ALPHA.callee_saved)
        assert NT_ALPHA.temporaries <= killed


class TestValidation:
    def test_overlapping_roles_rejected(self):
        with pytest.raises(ValueError):
            CallingConvention(
                name="bad",
                argument_registers=_ints(16),
                return_registers=_ints(0),
                callee_saved=_ints(16),  # overlaps arguments
                temporaries=_ints(1),
            )
