"""Tests for per-block DEF/UBD computation."""

from repro.cfg.build import build_cfg
from repro.dataflow.local import compute_local_sets
from repro.isa.encoding import decode_row, encode
from repro.isa.instructions import Opcode
from tests.cfg_oracle import local_sets_of_rows


def regs(names):
    from repro.isa.registers import Register

    return {Register.parse(n).index for n in names}


class TestLocalSets:
    def test_use_before_def(self):
        sets = local_sets_of_rows(
            [decode_row(encode(Opcode.ADDQ, ra=1, rb=2, rc=3))]
        )
        assert sets.used_before_defined.names() == {"t0", "t1"}
        assert sets.defs.names() == {"t2"}

    def test_def_shadows_later_use(self):
        sets = local_sets_of_rows(
            [
                decode_row(encode(Opcode.LDA, ra=1, rb=31, displacement=5)),  # def t0
                decode_row(encode(Opcode.ADDQ, ra=1, rb=1, rc=2)),            # use t0
            ]
        )
        assert "t0" not in sets.used_before_defined.names()
        assert sets.defs.names() == {"t0", "t1"}

    def test_use_then_def_of_same_register(self):
        sets = local_sets_of_rows(
            [decode_row(encode(Opcode.ADDQ, ra=1, rb=1, rc=1))]  # t0 = t0 + t0
        )
        assert "t0" in sets.used_before_defined.names()
        assert "t0" in sets.defs.names()

    def test_empty_sequence(self):
        sets = local_sets_of_rows([])
        assert sets.def_mask == 0 and sets.ubd_mask == 0

    def test_store_uses_both(self):
        sets = local_sets_of_rows(
            [decode_row(encode(Opcode.STQ, ra=26, rb=30, displacement=0))]
        )
        assert sets.used_before_defined.names() == {"ra", "sp"}
        assert sets.def_mask == 0

    def test_call_instruction_defs_link_register(self):
        sets = local_sets_of_rows(
            [decode_row(encode(Opcode.BSR, ra=26, displacement=0))]
        )
        assert sets.defs.names() == {"ra"}


class TestPerCfg:
    def test_per_block_sets(self, quick_program):
        cfg = build_cfg(quick_program, quick_program.routine("main"))
        sets = compute_local_sets(cfg)
        assert len(sets) == cfg.block_count
        # The entry block saves ra: ra and sp are used before defined.
        assert {"ra", "sp"} <= sets[0].used_before_defined.names()

    def test_program_wide(self, quick_program):
        from repro.cfg.build import build_all_cfgs

        cfgs = build_all_cfgs(quick_program)
        assert set(cfgs) == {"main", "helper"}
        helper = compute_local_sets(cfgs["helper"])
        assert helper[0].used_before_defined.names() == {"a0", "ra"}
        assert helper[0].defs.names() == {"v0"}
