"""Tests for the synthetic generator's internal planning and emission."""

import random

import pytest

from repro.workloads.generator import (
    GeneratorConfig,
    _Plan,
    _estimate_instructions,
    _plan_program,
    generate_image,
    generate_program,
)
from repro.workloads.shapes import shape_by_name
from tests.decoded import rows_of


def plan(shape_name="li", scale=0.1, seed=0, **config_overrides):
    shape = shape_by_name(shape_name).scaled(scale)
    config = GeneratorConfig(seed=seed, **config_overrides)
    rng = random.Random(seed)
    return _plan_program(shape, config, rng)


class TestPlanning:
    def test_plan_count_excludes_main(self):
        shape = shape_by_name("li").scaled(0.1)
        plans, _pool = plan()
        assert len(plans) == shape.routines - 1

    def test_levels_form_a_dag_with_entry_routines(self):
        plans, _pool = plan()
        by_name = {p.name: p for p in plans}
        entry_level = [p for p in plans if p.level == 1]
        assert len(entry_level) >= 3  # main needs callees
        for p in plans:
            for target, kind, _hint in p.calls:
                if kind == "self":
                    assert target == p.name
                else:
                    assert by_name[target].level > p.level

    def test_deepest_level_routines_are_leaves(self):
        plans, _pool = plan()
        deepest = max(p.level for p in plans)
        for p in plans:
            if p.level == deepest:
                assert not p.calls

    def test_opaque_targets_collected(self):
        plans, pool = plan(opaque_call_fraction=0.5, seed=3)
        opaque_calls = [
            c for p in plans for c in p.calls if c[1] == "opaque"
        ]
        assert opaque_calls
        for target, _kind, _hint in opaque_calls:
            assert target in pool

    def test_opaque_targets_marked_exported(self):
        plans, pool = plan(opaque_call_fraction=0.5, seed=3)
        by_name = {p.name: p for p in plans}
        for name in pool:
            assert by_name[name].exported

    def test_hinted_calls_carry_targets(self):
        plans, _pool = plan(hinted_call_fraction=0.5, seed=4)
        hinted = [c for p in plans for c in p.calls if c[1] == "hinted"]
        assert hinted
        for target, _kind, hint in hinted:
            assert target in hint

    def test_switch_probability_tracks_reduction(self):
        low_plans, _ = plan("winword", scale=0.02)   # 0.3% reduction
        high_plans, _ = plan("sqlservr", scale=0.05)  # 80% reduction
        low = sum(1 for p in low_plans if p.switch_ways)
        high = sum(1 for p in high_plans if p.switch_ways)
        assert high / max(1, len(high_plans)) > low / max(1, len(low_plans))

    def test_estimate_counts_structure(self):
        empty = _Plan(name="x", level=1)
        with_calls = _Plan(
            name="y", level=1, calls=[("z", "bsr", ())] * 3
        )
        assert _estimate_instructions(with_calls) > _estimate_instructions(empty)


class TestEmissionInvariants:
    def test_budget_guard_bounds_execution(self):
        """Smaller initial budgets run strictly less work."""
        from repro.sim.interpreter import run_program

        shape = shape_by_name("go").scaled(0.08)
        small = generate_program(shape, GeneratorConfig(seed=1, initial_budget=3))
        big = generate_program(shape, GeneratorConfig(seed=1, initial_budget=9))
        steps_small = run_program(small).steps
        steps_big = run_program(big, max_steps=20_000_000).steps
        assert steps_small < steps_big

    def test_scratch_pool_untouched(self):
        """t3 and t8 are reserved for the reallocation pass."""
        from repro.isa.registers import Register

        t3 = Register.parse("t3").index
        t8 = Register.parse("t8").index
        program = generate_program(
            shape_by_name("li").scaled(0.1), GeneratorConfig(seed=2)
        )
        for routine in program:
            for instruction in rows_of(routine.code):
                touched = instruction.use_mask | instruction.def_mask
                assert not touched >> t3 & 1
                assert not touched >> t8 & 1

    def test_exit_counts_near_shape(self):
        from repro.cfg.build import build_all_cfgs

        shape = shape_by_name("m88ksim").scaled(0.2)  # 1.75 exits/routine
        program = generate_program(shape, GeneratorConfig(seed=5))
        cfgs = build_all_cfgs(program)
        exits = sum(len(c.exits) for c in cfgs.values()) / len(cfgs)
        assert exits == pytest.approx(shape.exits_per_routine, abs=0.45)

    def test_conforming_frames(self):
        """Every generated routine with a frame restores sp exactly."""
        from repro.sim.interpreter import Interpreter

        program = generate_program(
            shape_by_name("perl").scaled(0.05), GeneratorConfig(seed=6)
        )
        interpreter = Interpreter(program, trace_calls=True)
        result = interpreter.run()
        from repro.isa.registers import STACK_POINTER

        sp_bit = 1 << STACK_POINTER
        for record in result.call_records:
            assert not (record.changed & sp_bit), record.callee

    def test_image_round_trip(self):
        shape = shape_by_name("compress").scaled(0.1)
        image = generate_image(shape, GeneratorConfig(seed=8))
        from repro.program.image import ExecutableImage

        assert ExecutableImage.from_bytes(image.to_bytes()).text == image.text
