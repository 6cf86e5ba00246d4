"""Deterministic synthetic program generator.

Given a :class:`~repro.workloads.shapes.BenchmarkShape`, produce an
executable image whose structure matches the shape: routine count,
calls / branches / exits per routine, instruction density, and — for
the benchmarks whose Table-4 branch-node reductions are large —
multiway branches inside loops with calls at each target (the exact
structure §3.6 motivates).

The generated code is *conforming and executable*:

* every routine honors the NT-Alpha calling standard — stack frames,
  ``ra`` and callee-saved registers saved in the prologue and restored
  on every exit, arguments in ``a0``/``a1``, results in ``v0``;
* recursion and call fan-out terminate: callers pass a *budget* in
  ``a0``, kept in a callee-saved register, decremented before every
  call, and calls are skipped once it reaches zero — so the dynamic
  call tree is finite and the interpreter can run any generated
  program end to end;
* the register-allocation patterns the Figure-1 optimizations target
  occur naturally: values spilled around calls (1c), values held in
  callee-saved registers across calls (1d), and occasional dead
  definitions (1a/1b);
* a fraction of calls go through function-pointer tables in the data
  section — opaque to the analysis (§3.5's unknown-call path) yet
  valid at run time; routines reachable that way are exported so the
  analysis treats their callers conservatively.

Everything is driven by a seeded :class:`random.Random`, so a given
``(shape, config)`` always yields the identical image.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.program.asm import Assembler
from repro.program.disasm import disassemble_image
from repro.program.image import ExecutableImage
from repro.program.model import Program
from repro.workloads.shapes import BenchmarkShape, shape_by_name

# Register roles used by generated code (software names).
_SCRATCH = ("t0", "t1", "t2")       # filler arithmetic
_LOOP_TEMP = "t4"                    # loop counter (call-free loops)
_LOOP_SAVED = "s3"                   # loop counter (loops containing calls)
_SPILL_REGS = ("t5", "t6", "t7")     # figure-1c spill patterns
_DEAD_REG = "t9"                     # planted dead definitions
_SWITCH_REGS = ("t10", "t11")        # jump-table dispatch
_BUDGET_REG = "s5"                   # call budget (live across calls)
_CROSS_REG = "s4"                    # figure-1d cross-call value
_PTR_REG = "pv"                      # indirect call target
# t3 and t8 are deliberately never emitted: they are the scratch pool
# the reallocation pass (Figure 1d) can rename into.


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the synthetic generator."""

    seed: int = 0
    #: Budget passed to top-level calls; bounds the dynamic call tree.
    initial_budget: int = 7
    #: Fraction of calls emitted as resolvable ``li``+``jsr``.
    indirect_call_fraction: float = 0.08
    #: Fraction of calls through data-section pointer tables (opaque).
    opaque_call_fraction: float = 0.04
    #: Fraction of calls emitted as two-way virtual dispatch with a
    #: linker call-target hint (§3.5's suggested improvement).
    hinted_call_fraction: float = 0.05
    #: Fraction of routines with a guarded self-recursive call.
    recursion_fraction: float = 0.04
    #: Fraction of call sites wrapped in a figure-1c spill pattern.
    spill_fraction: float = 0.28
    #: Fraction of call sites followed by a planted dead definition.
    dead_code_fraction: float = 0.16
    #: Fraction of calling routines keeping a value in s4 across calls.
    cross_call_value_fraction: float = 0.45
    #: Fraction of routines exported beyond those in pointer tables.
    exported_fraction: float = 0.02


@dataclass
class _Plan:
    """Everything decided about one routine before emission."""

    name: str
    level: int
    exported: bool = False
    #: (callee name, kind, hint targets) with kind in
    #: {"bsr", "jsr", "opaque", "self", "hinted"}; the third element is
    #: non-empty only for hinted virtual dispatch.
    calls: List[Tuple[str, str, Tuple[str, ...]]] = field(default_factory=list)
    if_thens: int = 0
    diamonds: int = 0
    loops: int = 0
    early_exits: int = 0
    switch_ways: int = 0
    switch_in_loop: bool = False
    switch_case_calls: int = 0
    cross_value: bool = False
    spill_calls: int = 0
    dead_calls: int = 0
    filler: int = 2
    extra_segments: int = 0
    #: Probability that a (non-switch) call is followed by a direct
    #: branch to the routine's tail — the dispatch idiom
    #: ``if (cond) { call; return; }``.  Without it, sequential call
    #: chains make every return node reach every later call node,
    #: inflating PSG edges quadratically beyond what the paper's
    #: call-dense benchmarks (maxeda: 15 calls but only 46 PSG
    #: edges/routine) exhibit.
    early_return_prob: float = 0.0

    @property
    def has_calls(self) -> bool:
        return bool(self.calls) or self.switch_case_calls > 0


def generate_benchmark(
    name: str,
    scale: float = 1.0,
    config: Optional[GeneratorConfig] = None,
) -> Tuple[Program, BenchmarkShape]:
    """Generate the named benchmark at ``scale``; returns (program, shape)."""
    shape = shape_by_name(name)
    if scale != 1.0:
        shape = shape.scaled(scale)
    return generate_program(shape, config), shape


def generate_program(
    shape: BenchmarkShape, config: Optional[GeneratorConfig] = None
) -> Program:
    """Generate a decoded program matching ``shape``."""
    return disassemble_image(generate_image(shape, config))


def generate_image(
    shape: BenchmarkShape, config: Optional[GeneratorConfig] = None
) -> ExecutableImage:
    """Generate an executable image matching ``shape``."""
    config = config or GeneratorConfig()
    rng = random.Random(
        (config.seed << 20) ^ zlib.crc32(shape.name.encode("utf-8"))
    )
    plans, opaque = _plan_program(shape, config, rng)

    assembler = Assembler()
    if opaque:
        assembler.data_code_pointers("fnptrs", list(opaque))
    _emit_main(assembler, plans, config, rng)
    for plan in plans:
        _Emitter(assembler, plan, shape, config, rng, opaque).emit()
    return assembler.build(entry="main")


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------

def _plan_program(
    shape: BenchmarkShape, config: GeneratorConfig, rng: random.Random
) -> Tuple[List[_Plan], Dict[str, int]]:
    count = max(2, shape.routines - 1)  # main is emitted separately
    levels = max(2, min(10, int(math.log2(count)) + 1))
    plans: List[_Plan] = []
    by_level: Dict[int, List[str]] = {level: [] for level in range(1, levels + 1)}
    for index in range(count):
        name = f"f{index}"
        level = 1 + min(
            levels - 1, int(rng.random() * levels)
        )
        if index < 3:
            level = 1  # guarantee entry-level routines for main to call
        by_level[level].append(name)
        plans.append(_Plan(name=name, level=level))

    # Each level's callees: every deeper level's routines, shallowest
    # level first.
    deeper_of: Dict[int, List[str]] = {levels: []}
    for level in range(levels - 1, 0, -1):
        deeper_of[level] = by_level[level + 1] + deeper_of[level + 1]

    # Pick which routines are reachable through the pointer table, by
    # their slot in it.
    opaque: Dict[str, int] = {}

    switch_probability = min(0.9, shape.paper_edge_reduction_pct / 85.0)
    mean_calls = shape.calls_per_routine
    mean_branches = shape.branches_per_routine

    for plan in plans:
        deeper = deeper_of[plan.level]
        is_leaf = not deeper or plan.level == levels
        if not is_leaf:
            n_calls = max(0, round(rng.gauss(mean_calls, mean_calls * 0.5)))
        else:
            n_calls = 0

        for _ in range(n_calls):
            target = rng.choice(deeper)
            roll = rng.random()
            hint: Tuple[str, ...] = ()
            if roll < config.opaque_call_fraction:
                kind = "opaque"
                opaque.setdefault(target, len(opaque))
            elif roll < config.opaque_call_fraction + config.hinted_call_fraction:
                kind = "hinted"
                other = rng.choice(deeper)
                hint = (target, other) if other != target else (target,)
            elif roll < (
                config.opaque_call_fraction
                + config.hinted_call_fraction
                + config.indirect_call_fraction
            ):
                kind = "jsr"
            else:
                kind = "bsr"
            plan.calls.append((target, kind, hint))
        if n_calls and rng.random() < config.recursion_fraction:
            plan.calls.append((plan.name, "self", ()))

        # Each call segment contributes one budget-guard conditional of
        # its own, so the planned branchy segments cover the remainder.
        n_branches = max(
            0,
            round(rng.gauss(mean_branches, mean_branches * 0.4)) - n_calls,
        )
        plan.loops = min(2, n_branches // 5)
        plan.early_exits = (
            1 if rng.random() < (shape.exits_per_routine - 1.0) else 0
        )
        remaining = max(0, n_branches - plan.loops - plan.early_exits)
        plan.diamonds = round(remaining * 0.3)
        plan.if_thens = remaining - plan.diamonds

        if rng.random() < switch_probability and n_branches >= 3:
            reduction = shape.paper_edge_reduction_pct
            plan.switch_ways = 8 if reduction >= 30 else rng.choice((4, 4, 8))
            plan.switch_in_loop = reduction >= 10
            if plan.calls and reduction >= 30:
                # The structure behind the paper's large reductions:
                # *every* call sits at a multiway target inside a loop,
                # so without branch nodes each return node reaches each
                # call node (O(n^2) edges, §3.6 / Figure 12).
                plan.switch_case_calls = len(plan.calls)
            elif plan.calls and reduction >= 10:
                plan.switch_case_calls = min(len(plan.calls), plan.switch_ways)

        plan.cross_value = (
            bool(plan.calls)
            and rng.random() < config.cross_call_value_fraction
        )
        plan.spill_calls = sum(
            1 for _ in plan.calls if rng.random() < config.spill_fraction
        )
        plan.dead_calls = sum(
            1 for _ in plan.calls if rng.random() < config.dead_code_fraction
        )
        plan.exported = rng.random() < config.exported_fraction
        plan.filler = max(1, round(shape.instructions_per_block) - 2)
        plan.early_return_prob = max(0.0, min(0.7, (mean_calls - 3.0) / 9.0))

        # Pad with straight-line segments toward the per-routine size.
        target_instr = shape.instructions / shape.routines
        estimate = _estimate_instructions(plan)
        if estimate < target_instr:
            plan.extra_segments = int(
                (target_instr - estimate) / max(2, plan.filler)
            )

    for plan in plans:
        if plan.name in opaque:
            plan.exported = True
    return plans, opaque


def _estimate_instructions(plan: _Plan) -> float:
    per_call = 6 + plan.filler
    per_branchy = 3 + plan.filler
    switch = (
        6 + plan.switch_ways * (2 + plan.filler) if plan.switch_ways else 0
    )
    prologue = 8 if plan.has_calls else 3
    return (
        prologue
        + len(plan.calls) * per_call
        + (plan.if_thens + plan.diamonds + plan.loops) * per_branchy
        + switch
        + plan.early_exits * 4
    )


# ----------------------------------------------------------------------
# Emission
# ----------------------------------------------------------------------

def _emit_main(
    assembler: Assembler,
    plans: Sequence[_Plan],
    config: GeneratorConfig,
    rng: random.Random,
) -> None:
    """main: call a few level-1 routines, OUTPUT their results, halt."""
    assembler.routine("main", exported=True)
    entry_level = [plan.name for plan in plans if plan.level == 1]
    targets = entry_level[: max(2, min(4, len(entry_level)))]
    for target in targets:
        assembler.li("a0", config.initial_budget)
        assembler.li("a1", rng.randrange(1, 100))
        assembler.bsr(target)
        assembler.op("bis", "zero", "v0", "a0")
        assembler.output()
    assembler.halt()


class _Emitter:
    """Emit one routine from its plan."""

    def __init__(
        self,
        assembler: Assembler,
        plan: _Plan,
        shape: BenchmarkShape,
        config: GeneratorConfig,
        rng: random.Random,
        opaque_slots: Mapping[str, int],
    ) -> None:
        self.asm = assembler
        self.plan = plan
        self.shape = shape
        self.config = config
        self.rng = rng
        #: Each opaque target's slot in the ``fnptrs`` table (shared).
        self.opaque_slots = opaque_slots
        self._labels = 0
        self._tables = 0
        self._call_queue: List[Tuple[str, str, Tuple[str, ...]]] = list(plan.calls)
        self._vtables = 0
        self._spills_left = plan.spill_calls
        self._deads_left = plan.dead_calls
        self._next_slot = 0
        self._early_exit_labels: List[str] = []
        self._tail_label: Optional[str] = None
        # Frame layout.
        self.saves: List[Tuple[str, int]] = []
        if plan.has_calls:
            self.saves.append(("ra", self._alloc_slot()))
            self.saves.append((_BUDGET_REG, self._alloc_slot()))
            if plan.cross_value:
                self.saves.append((_CROSS_REG, self._alloc_slot()))
            if plan.loops:
                self.saves.append((_LOOP_SAVED, self._alloc_slot()))
        self._spill_slots = [
            self._alloc_slot() for _ in range(min(4, plan.spill_calls) or 0)
        ]
        self._spill_cursor = 0
        slots = self._next_slot // 8
        self.frame = 16 * ((slots * 8 + 15) // 16) if slots else 0

    # -- small helpers ---------------------------------------------------

    def _alloc_slot(self) -> int:
        slot = self._next_slot
        self._next_slot += 8
        return slot

    def fresh(self, prefix: str) -> str:
        self._labels += 1
        return f"{prefix}_{self._labels}"

    def filler(self, count: Optional[int] = None) -> None:
        """Straight-line arithmetic on the scratch registers.

        The values chain forward (each op reads the previous result) and
        the chain ends in ``t0``, which every exit folds into ``v0`` —
        so filler computations are *live*, as real compiled code is;
        only the explicitly planted dead definitions are dead.
        """
        rng = self.rng
        total = count if count is not None else self.plan.filler
        source = "t0"
        for index in range(total):
            destination = _SCRATCH[(index + 1) % len(_SCRATCH)]
            if index == total - 1:
                destination = "t0"  # terminate the chain live
            kind = rng.randrange(5)
            if kind == 0:
                self.asm.op("addq", source, rng.randrange(1, 64), destination)
            elif kind == 1:
                self.asm.op("subq", source, rng.choice(_SCRATCH), destination)
            elif kind == 2:
                self.asm.op("xor", source, rng.choice(_SCRATCH), destination)
            elif kind == 3:
                self.asm.op("sll", source, rng.randrange(1, 8), destination)
            else:
                self.asm.op("and", source, rng.randrange(1, 255), destination)
            source = destination

    # -- emission --------------------------------------------------------

    def emit(self) -> None:
        plan = self.plan
        asm = self.asm
        asm.routine(plan.name, exported=plan.exported)
        self._prologue()

        segments: List[str] = []
        segments.extend(["call"] * len(self._call_queue))
        segments.extend(["if_then"] * plan.if_thens)
        segments.extend(["diamond"] * plan.diamonds)
        segments.extend(["loop"] * plan.loops)
        segments.extend(["straight"] * plan.extra_segments)
        self.rng.shuffle(segments)
        if plan.switch_ways:
            position = self.rng.randrange(len(segments) + 1)
            segments.insert(position, "switch")
        # Early exits interleave anywhere but the very start.
        for _ in range(plan.early_exits):
            position = self.rng.randrange(1, len(segments) + 1)
            segments.insert(position, "early_exit")

        for segment in segments:
            if segment == "call":
                self._segment_call()
            elif segment == "if_then":
                self._segment_if_then()
            elif segment == "diamond":
                self._segment_diamond()
            elif segment == "loop":
                self._segment_loop()
            elif segment == "switch":
                self._segment_switch()
            elif segment == "early_exit":
                self._segment_early_exit()
            else:
                self.filler()

        if self._tail_label is not None:
            asm.label(self._tail_label)
        self._final_value()
        self._epilogue()
        for label in self._early_exit_labels:
            asm.label(label)
            self._final_value()
            self._epilogue()

    def _prologue(self) -> None:
        asm = self.asm
        if self.frame:
            asm.memory("lda", "sp", -self.frame, "sp")
            for register, slot in self.saves:
                asm.memory("stq", register, slot, "sp")
        if self.plan.has_calls:
            # Keep the call budget in a callee-saved register.
            asm.op("bis", "zero", "a0", _BUDGET_REG)
        if self.plan.cross_value:
            asm.li(_CROSS_REG, self.rng.randrange(1, 50))
        # Seed the scratch value and the return value.
        asm.op("bis", "zero", "a1", "t0")
        asm.li("t1", self.rng.randrange(1, 30))
        asm.op("addq", "t0", "t1", "t2")
        asm.li("v0", self.rng.randrange(1, 20))

    def _final_value(self) -> None:
        asm = self.asm
        asm.op("addq", "v0", "t0", "v0")
        if self.plan.cross_value:
            asm.op("addq", "v0", _CROSS_REG, "v0")

    def _epilogue(self) -> None:
        asm = self.asm
        if self.frame:
            for register, slot in reversed(self.saves):
                asm.memory("ldq", register, slot, "sp")
            asm.memory("lda", "sp", self.frame, "sp")
        asm.ret()

    # -- segments ----------------------------------------------------------

    def _segment_call(self, from_switch: bool = False) -> None:
        if not self._call_queue:
            self.filler()
            return
        target, kind, hint = self._call_queue.pop()
        asm = self.asm
        rng = self.rng
        skip = self.fresh("skip")
        asm.op("subq", _BUDGET_REG, 1, _BUDGET_REG)
        asm.branch("ble", _BUDGET_REG, skip)

        spill_register = None
        spill_slot = None
        if self._spills_left > 0 and self._spill_slots:
            self._spills_left -= 1
            spill_register = rng.choice(_SPILL_REGS)
            spill_slot = self._spill_slots[
                self._spill_cursor % len(self._spill_slots)
            ]
            self._spill_cursor += 1
            asm.op("addq", "t0", rng.randrange(1, 32), spill_register)
            asm.memory("stq", spill_register, spill_slot, "sp")

        asm.op("bis", "zero", _BUDGET_REG, "a0")
        asm.li("a1", rng.randrange(1, 64))
        if kind == "bsr" or kind == "self":
            asm.bsr(target)
        elif kind == "jsr":
            asm.li(_PTR_REG, f"&{target}")
            asm.jsr(_PTR_REG)
        elif kind == "hinted" and len(hint) > 1:
            # Two-way virtual dispatch through a private pointer table,
            # covered by a §3.5 linker call-target hint.
            self._vtables += 1
            table = f"vt_{self.plan.name}_{self._vtables}"
            asm.data_code_pointers(table, list(hint))
            asm.op("and", _BUDGET_REG, len(hint) - 1, _SWITCH_REGS[0])
            asm.op("sll", _SWITCH_REGS[0], 3, _SWITCH_REGS[0])
            asm.li(_SWITCH_REGS[1], f"@{table}")
            asm.op("addq", _SWITCH_REGS[1], _SWITCH_REGS[0], _SWITCH_REGS[1])
            asm.memory("ldq", _PTR_REG, 0, _SWITCH_REGS[1])
            asm.jsr(_PTR_REG, hint_targets=list(hint))
        elif kind == "hinted":
            asm.li(_PTR_REG, f"&{target}")
            asm.jsr(_PTR_REG, hint_targets=[target])
        else:  # opaque: load the pointer from the data table
            index = self.opaque_slots[target]
            offset = 8 * index
            asm.li(_SWITCH_REGS[0], "@fnptrs")
            if offset <= 0x7FFF:
                asm.memory("ldq", _PTR_REG, offset, _SWITCH_REGS[0])
            else:
                # Large pointer tables exceed the 16-bit displacement.
                asm.li(_SWITCH_REGS[1], offset)
                asm.op("addq", _SWITCH_REGS[0], _SWITCH_REGS[1], _SWITCH_REGS[0])
                asm.memory("ldq", _PTR_REG, 0, _SWITCH_REGS[0])
            asm.jsr(_PTR_REG)

        if spill_register is not None:
            asm.memory("ldq", spill_register, spill_slot, "sp")
            asm.op("addq", spill_register, "v0", "t0")
        else:
            asm.op("addq", "t0", "v0", "t0")
        if self.plan.cross_value and rng.random() < 0.6:
            asm.op("addq", _CROSS_REG, "v0", _CROSS_REG)
        if self._deads_left > 0:
            self._deads_left -= 1
            asm.op("addq", "v0", rng.randrange(1, 100), _DEAD_REG)
        if (
            not from_switch
            and rng.random() < self.plan.early_return_prob
        ):
            # Dispatch idiom: once this call has run, leave the routine.
            if self._tail_label is None:
                self._tail_label = self.fresh("tail")
            asm.br(self._tail_label)
        asm.label(skip)

    def _segment_if_then(self) -> None:
        asm = self.asm
        join = self.fresh("join")
        asm.op("and", "t0", 1 << self.rng.randrange(3), "t1")
        asm.branch("beq", "t1", join)
        self.filler()
        asm.label(join)

    def _segment_diamond(self) -> None:
        asm = self.asm
        other = self.fresh("else")
        join = self.fresh("join")
        asm.op("and", "t0", 1 << self.rng.randrange(3), "t1")
        asm.branch("bne", "t1", other)
        self.filler()
        asm.br(join)
        asm.label(other)
        self.filler()
        asm.label(join)

    def _segment_loop(self) -> None:
        asm = self.asm
        rng = self.rng
        head = self.fresh("loop")
        trips = rng.randrange(2, 5)
        call_in_loop = bool(self._call_queue) and rng.random() < 0.5
        counter = _LOOP_SAVED if (call_in_loop and self.plan.has_calls) else _LOOP_TEMP
        if counter == _LOOP_SAVED and not any(
            register == _LOOP_SAVED for register, _slot in self.saves
        ):
            counter = _LOOP_TEMP
            call_in_loop = False
        asm.li(counter, trips)
        asm.label(head)
        self.filler()
        if call_in_loop:
            self._segment_call()
        asm.op("subq", counter, 1, counter)
        asm.branch("bgt", counter, head)

    def _segment_switch(self) -> None:
        asm = self.asm
        plan = self.plan
        rng = self.rng
        ways = plan.switch_ways
        self._tables += 1
        table = f"{plan.name}_tbl{self._tables}"
        head = self.fresh("swloop")
        join = self.fresh("swjoin")
        cases = [self.fresh("case") for _ in range(ways)]

        loop_counter = None
        if plan.switch_in_loop:
            loop_counter = (
                _LOOP_SAVED
                if plan.switch_case_calls
                and any(r == _LOOP_SAVED for r, _s in self.saves)
                else _LOOP_TEMP
            )
            if plan.switch_case_calls and loop_counter == _LOOP_TEMP:
                plan.switch_case_calls = 0  # cannot keep counter alive
            asm.li(loop_counter, rng.randrange(2, 4))
            asm.label(head)

        index_source = _BUDGET_REG if plan.has_calls else "t0"
        asm.op("and", index_source, ways - 1, _SWITCH_REGS[0])
        asm.li(_SWITCH_REGS[1], f"&{table}")
        asm.op("sll", _SWITCH_REGS[0], 3, _SWITCH_REGS[0])
        asm.op("addq", _SWITCH_REGS[1], _SWITCH_REGS[0], _SWITCH_REGS[1])
        asm.memory("ldq", _SWITCH_REGS[1], 0, _SWITCH_REGS[1])
        asm.jmp(_SWITCH_REGS[1], table=table)

        calls_remaining = plan.switch_case_calls
        for index, case in enumerate(cases):
            asm.label(case)
            self.filler(max(1, plan.filler - 1))
            # Spread the remaining case calls over the remaining cases
            # (several calls per case when calls outnumber the ways).
            share = -(-calls_remaining // (ways - index))  # ceil division
            for _ in range(share):
                if calls_remaining > 0 and self._call_queue:
                    calls_remaining -= 1
                    self._segment_call(from_switch=True)
            asm.br(join)
        asm.jump_table(table, cases)
        asm.label(join)
        if plan.switch_in_loop:
            assert loop_counter is not None
            asm.op("subq", loop_counter, 1, loop_counter)
            asm.branch("bgt", loop_counter, head)

    def _segment_early_exit(self) -> None:
        label = self.fresh("early")
        self._early_exit_labels.append(label)
        self.asm.op("cmpeq", "t0", "t1", "t2")
        self.asm.branch("bne", "t2", label)
