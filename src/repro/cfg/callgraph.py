"""The interprocedural call graph.

Built from per-routine *site tables*, the call graph records, for every
routine, who calls it and from which call sites; which call sites have
unknown targets (and therefore use the §3.5 calling-standard
assumptions); and which routines are *externally callable* — exported
from the image, address-taken (their entry address escapes into memory
or past a block boundary, so an unresolved indirect call might reach
them), or the program entry itself.  Externally callable routines get
conservative live-at-exit seeds during phase 2.

A routine's site table and escape candidates come from its CFG and a
scan of its instructions — or, when the caller supplies a front-end
record that still matches the routine's shape, from that record, in
which case the routine's CFG is never asked for (``cfgs`` may be a
:class:`repro.cfg.build.LazyCfgs`).  Nothing the graph answers
afterwards touches a CFG.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.isa.encoding import INSTRUCTION_SIZE
from repro.isa.instructions import ControlKind, Opcode
from repro.isa.registers import ZERO_REGISTER
from repro.program.model import Program, Routine
from repro.cfg.cfg import CallSite, ControlFlowGraph, FrontendRecord
from repro.cfg.build import build_all_cfgs, recorded_call_sites


@dataclass
class CallGraph:
    """Call relationships among the routines of one program."""

    program: Program
    #: Possibly lazy (see :class:`repro.cfg.build.LazyCfgs`); the graph
    #: itself only reads :attr:`sites`.
    cfgs: Mapping[str, ControlFlowGraph]
    #: routine name -> its call sites, in block order.
    sites: Dict[str, Sequence[CallSite]]
    #: routine name -> its sorted escape candidates
    #: (:func:`escape_candidates`; kept for the front-end records).
    escape_candidates: Dict[str, Tuple[int, ...]]
    #: callee name -> [(caller name, call site), ...] for resolved sites.
    callers: Dict[str, List[Tuple[str, CallSite]]]
    #: call sites whose target could not be resolved.
    unknown_sites: List[Tuple[str, CallSite]]
    #: routines whose entry address escapes.
    address_taken: Set[str]
    #: routines that may be entered from outside the analysis' view.
    externally_callable: Set[str]

    def callees_of(self, caller: str) -> List[str]:
        """Every possible target of every call site in ``caller``.

        Multi-target (hinted) sites contribute each of their targets;
        unknown sites contribute nothing.
        """
        names: List[str] = []
        for site in self.sites[caller]:
            names.extend(site.targets)
        return names

    def call_sites_of(self, caller: str) -> Sequence[CallSite]:
        return self.sites[caller]

    def callers_of(self, callee: str) -> List[Tuple[str, CallSite]]:
        return self.callers.get(callee, [])

    @property
    def routine_names(self) -> List[str]:
        return self.program.routine_names()

    # ------------------------------------------------------------------
    # Orderings
    # ------------------------------------------------------------------

    def strongly_connected_components(self) -> List[List[str]]:
        """Tarjan SCCs of the call graph, in reverse topological order.

        Each returned component lists routines that (transitively) call
        each other; components appear callees-first, so processing them
        in order lets phase 1 converge with few worklist revisits even
        in the presence of recursion.
        """
        names = self.routine_names
        successors: Dict[str, List[str]] = {
            name: self.callees_of(name) for name in names
        }
        index_of: Dict[str, int] = {}
        lowlink: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        components: List[List[str]] = []
        counter = [0]

        for root in names:
            if root in index_of:
                continue
            # Iterative Tarjan to survive deep call chains.
            work: List[Tuple[str, int]] = [(root, 0)]
            while work:
                node, child_index = work.pop()
                if child_index == 0:
                    index_of[node] = lowlink[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack.add(node)
                recurse = False
                children = successors[node]
                while child_index < len(children):
                    child = children[child_index]
                    child_index += 1
                    if child not in index_of:
                        work.append((node, child_index))
                        work.append((child, 0))
                        recurse = True
                        break
                    if child in on_stack:
                        lowlink[node] = min(lowlink[node], index_of[child])
                if recurse:
                    continue
                if lowlink[node] == index_of[node]:
                    component: List[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
        return components

    def reverse_topological_order(self) -> List[str]:
        """Routines ordered callees-before-callers (SCCs flattened)."""
        order: List[str] = []
        for component in self.strongly_connected_components():
            order.extend(component)
        return order

    def condensation(self) -> "Condensation":
        """The SCC condensation DAG (the incremental engine's
        dependency map; see :mod:`repro.interproc.incremental`)."""
        components = self.strongly_connected_components()
        component_of: Dict[str, int] = {}
        for index, component in enumerate(components):
            for name in component:
                component_of[name] = index
        callee_components: List[Set[int]] = [set() for _ in components]
        caller_components: List[Set[int]] = [set() for _ in components]
        for index, component in enumerate(components):
            for name in component:
                for callee in self.callees_of(name):
                    target = component_of[callee]
                    if target != index:
                        callee_components[index].add(target)
                        caller_components[target].add(index)
        return Condensation(
            components=components,
            component_of=component_of,
            callee_components=callee_components,
            caller_components=caller_components,
        )


@dataclass
class Condensation:
    """The call graph collapsed to its SCC DAG.

    ``components`` lists SCCs in reverse topological (callee-first)
    order, so iterating forward visits callees before callers — the
    phase-1 processing order — and iterating backward visits callers
    before callees — the phase-2 order.  Editing a routine dirties its
    whole component plus, transitively, its caller components (whose
    phase-1 summaries consume it) and its callee components (whose
    phase-2 liveness consumes it).
    """

    #: SCCs, callee-first; each is a list of routine names.
    components: List[List[str]]
    #: routine name -> index into :attr:`components`.
    component_of: Dict[str, int]
    #: component index -> indices of components it calls into.
    callee_components: List[Set[int]]
    #: component index -> indices of components that call into it.
    caller_components: List[Set[int]]

    def component_index(self, routine: str) -> int:
        return self.component_of[routine]

    def members(self, index: int) -> List[str]:
        return self.components[index]

    def _closure(self, roots: Set[int], step: List[Set[int]]) -> Set[int]:
        seen = set(roots)
        stack = list(roots)
        while stack:
            for neighbor in step[stack.pop()]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        return seen

    def transitive_caller_components(self, roots: Set[int]) -> Set[int]:
        """``roots`` plus every component that transitively calls into
        them (the phase-1 invalidation cone)."""
        return self._closure(roots, self.caller_components)

    def transitive_callee_components(self, roots: Set[int]) -> Set[int]:
        """``roots`` plus every component they transitively call into
        (the phase-2 invalidation cone)."""
        return self._closure(roots, self.callee_components)

    def routines_of(self, indices: Set[int]) -> Set[str]:
        names: Set[str] = set()
        for index in indices:
            names.update(self.components[index])
        return names

    def partition_shards(
        self, costs: Dict[str, int], max_shards: int
    ) -> "ShardPlan":
        """Partition the condensation into at most ``max_shards`` shards.

        Each shard is a *contiguous interval* of components in the
        callee-first order.  Because every call-graph edge goes from a
        later component (caller) to an earlier one (callee), the
        quotient graph over intervals is automatically acyclic, so the
        shard DAG inherits the scheduling property the parallel solver
        needs: solving shards callee-first (phase 1) or caller-first
        (phase 2) always finds every cross-shard input already
        published.

        ``costs[name]`` is the work estimate for one routine (the
        parallel engine uses CFG block counts — solve time is roughly
        linear in PSG size, which tracks block count).  The greedy cut
        closes a shard once it holds ~1/``max_shards`` of the total
        cost, which balances shards even when component sizes are
        skewed; a component is never split, so one giant SCC bounds the
        achievable balance.
        """
        if max_shards < 1:
            raise ValueError("max_shards must be >= 1")
        component_costs = [
            max(1, sum(costs.get(name, 1) for name in component))
            for component in self.components
        ]
        total = sum(component_costs)
        target = max(1, -(-total // max_shards))  # ceil division
        shards: List[Shard] = []
        shard_of_component: List[int] = [0] * len(self.components)
        start = 0
        accumulated = 0
        for index, cost in enumerate(component_costs):
            accumulated += cost
            last = index == len(self.components) - 1
            if accumulated >= target or last:
                shard_index = len(shards)
                component_range = list(range(start, index + 1))
                members: List[str] = []
                for component_index in component_range:
                    members.extend(self.components[component_index])
                    shard_of_component[component_index] = shard_index
                shards.append(
                    Shard(
                        index=shard_index,
                        components=component_range,
                        routines=members,
                        cost=accumulated,
                    )
                )
                start = index + 1
                accumulated = 0
        callee_shards: List[Set[int]] = [set() for _ in shards]
        caller_shards: List[Set[int]] = [set() for _ in shards]
        for component_index, callees in enumerate(self.callee_components):
            src = shard_of_component[component_index]
            for callee_component in callees:
                dst = shard_of_component[callee_component]
                if dst != src:
                    callee_shards[src].add(dst)
                    caller_shards[dst].add(src)
        return ShardPlan(
            shards=shards,
            shard_of_component=shard_of_component,
            shard_of_routine={
                name: shard.index
                for shard in shards
                for name in shard.routines
            },
            callee_shards=callee_shards,
            caller_shards=caller_shards,
        )


@dataclass
class Shard:
    """One unit of parallel work: a run of condensation components."""

    index: int
    #: Indices into :attr:`Condensation.components`, callee-first.
    components: List[int]
    #: Every routine in those components, in component order.
    routines: List[str]
    #: Estimated work (sum of the member routines' cost heuristic).
    cost: int


@dataclass
class ShardPlan:
    """A partition of the condensation DAG into schedulable shards.

    Shards are callee-first: every cross-shard call goes from a
    higher-index shard (caller side) to a lower-index one (callee
    side), so the shard graph is acyclic by construction.  Phase 1
    runs a shard once all of :attr:`callee_shards` have published
    entry triples; phase 2 once all of :attr:`caller_shards` have
    published return-point liveness.
    """

    shards: List[Shard]
    #: condensation component index -> shard index.
    shard_of_component: List[int]
    #: routine name -> shard index.
    shard_of_routine: Dict[str, int]
    #: shard index -> shards it calls into (phase-1 prerequisites).
    callee_shards: List[Set[int]]
    #: shard index -> shards that call into it (phase-2 prerequisites).
    caller_shards: List[Set[int]]

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def largest_cost(self) -> int:
        return max((shard.cost for shard in self.shards), default=0)


def build_call_graph(
    program: Program,
    cfgs: Optional[Mapping[str, ControlFlowGraph]] = None,
    records: Optional[Mapping[str, FrontendRecord]] = None,
) -> CallGraph:
    """Construct the call graph (building CFGs if not supplied).

    ``records`` holds, for any subset of the routines, a front-end
    record the caller has matched to the routine's current shape; such
    a routine's sites are re-resolved from the record and ``cfgs`` is
    not consulted for it (a record that turns out not to fit is
    ignored).  Errors surface in program order either way.
    """
    if cfgs is None:
        cfgs = build_all_cfgs(program)
    sites: Dict[str, Sequence[CallSite]] = {}
    candidates: Dict[str, Tuple[int, ...]] = {}
    for routine in program:
        name = routine.name
        record = records.get(name) if records else None
        resolved = (
            recorded_call_sites(program, routine, record) if record else None
        )
        if resolved is not None:
            candidates[name] = record.escape_candidates
        else:
            candidates[name] = escape_candidates(routine)
            resolved = cfgs[name].call_sites
        sites[name] = resolved
    callers: Dict[str, List[Tuple[str, CallSite]]] = {}
    unknown_sites: List[Tuple[str, CallSite]] = []
    for name, routine_sites in sites.items():
        for site in routine_sites:
            if site.is_unknown:
                unknown_sites.append((name, site))
                continue
            for target in site.targets:
                if target not in cfgs:
                    raise KeyError(
                        f"{name!r} calls unknown routine {target!r}"
                    )
                callers.setdefault(target, []).append((name, site))
    address_taken = _entries_among(program, candidates.values())
    externally_callable = (
        {routine.name for routine in program.exported_routines()}
        | address_taken
        | {program.entry}
    )
    return CallGraph(
        program=program,
        cfgs=cfgs,
        sites=sites,
        escape_candidates=candidates,
        callers=callers,
        unknown_sites=unknown_sites,
        address_taken=address_taken,
        externally_callable=externally_callable,
    )


def find_address_taken(program: Program) -> Set[str]:
    """Routines whose entry address escapes (see
    :func:`escape_candidates` for what "escapes" means)."""
    return _entries_among(
        program, (escape_candidates(routine) for routine in program)
    )


def _entries_among(program: Program, candidate_sets) -> Set[str]:
    entries = {routine.address: routine.name for routine in program}
    return {
        entries[value]
        for values in candidate_sets
        for value in values
        if value in entries
    }


def escape_candidates(routine: Routine) -> Tuple[int, ...]:
    """The constants ``routine`` lets escape that could be a routine's
    entry address, sorted — a function of its instructions alone.

    Runs a forward constant pass over every basic-block-shaped region
    (straight-line runs between terminators suffice: constants are
    killed at joins by construction here, which is conservative in the
    escape direction).  A constant escapes when it is stored to memory,
    used by a non-address instruction, or still held in a register when
    the straight-line run ends — unless its only use is the indirect
    call it feeds (a resolved ``jsr`` does not take the address).
    Whether an escaped constant *is* an entry depends on the image, so
    that test is the caller's; only values no entry can equal (negative
    or unaligned) are dropped here.
    """
    escaped: Set[int] = set()
    constants: Dict[int, int] = {}
    for instruction in routine.instructions:
        opcode = instruction.opcode
        if not constants and (
            (opcode is not Opcode.LDA and opcode is not Opcode.LDAH)
            or instruction.rb != ZERO_REGISTER
        ):
            # Nothing is tracked and this instruction cannot start
            # tracking: every branch below would be a no-op.
            continue
        control = instruction.control
        defs = instruction.def_mask
        if opcode is Opcode.LDA or opcode is Opcode.LDAH:
            shift = 16 if opcode is Opcode.LDAH else 0
            base = instruction.rb
            if base == ZERO_REGISTER:
                value: Optional[int] = instruction.displacement << shift
            elif base in constants:
                value = constants[base] + (instruction.displacement << shift)
            else:
                value = None
            _kill(constants, defs)
            if value is not None:
                constants[instruction.ra] = value
            continue
        if (
            opcode is Opcode.BIS
            and instruction.literal is None
            and ZERO_REGISTER in (instruction.ra, instruction.rb)
        ):
            source = (
                instruction.rb
                if instruction.ra == ZERO_REGISTER
                else instruction.ra
            )
            value = constants.get(source)
            _kill(constants, defs)
            if value is not None:
                constants[instruction.rc] = value
            continue
        if control in (ControlKind.CALL_DIRECT, ControlKind.CALL_INDIRECT):
            # The call target register is consumed, not escaped; every
            # other constant is dropped across the call (it clobbers
            # temporaries) and a dropped constant is no longer tracked,
            # so count it as escaping here.
            for register, value in constants.items():
                if register != instruction.rb:
                    escaped.add(value)
            constants.clear()
            continue
        # Any other use of a register holding a constant escapes it.
        uses = instruction.use_mask
        for register, value in constants.items():
            if uses >> register & 1:
                escaped.add(value)
        _kill(constants, defs)
        if control != ControlKind.FALLTHROUGH:
            # Block boundary: surviving constants could flow to a join
            # where we stop tracking them.
            escaped.update(constants.values())
            constants.clear()
    return tuple(
        sorted(
            value
            for value in escaped
            if value >= 0 and not value % INSTRUCTION_SIZE
        )
    )


def _kill(constants: Dict[int, int], defs: int) -> None:
    while defs:
        lowest = defs & -defs
        constants.pop(lowest.bit_length() - 1, None)
        defs ^= lowest
