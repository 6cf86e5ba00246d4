"""Unit tests for the phase-1/phase-2 engines on hand-built PSGs.

These bypass the CFG analysis entirely: node rows (``tests/psg_rows.py``)
and labeled edges are handed straight to
:class:`~repro.psg.build.PsgAssembly` (the one construction path), so
the dataflow engines are tested in isolation against values computed
by hand.  The graphs use tiny register universes (R0=bit0, R1=bit1,
...) — the engines are agnostic.
"""

import pytest

from repro.cfg.cfg import CallSite, ExitKind
from repro.dataflow.regset import TRACKED_MASK
from repro.interproc.phase1 import run_phase1
from repro.interproc.phase2 import run_phase2
from repro.isa.calling_convention import NT_ALPHA
from repro.psg.build import PsgAssembly
from repro.psg.graph import RoutinePSG
from repro.psg.nodes import NodeKind
from tests.psg_rows import add_call_return, add_node

R0, R1, R2, R3 = 1, 2, 4, 8


class _Builder:
    """Minimal PSG assembly helper for tests."""

    def __init__(self):
        self.assembly = PsgAssembly()

    def call_return(self, src, dst, callees):
        add_call_return(self.assembly, src, dst, tuple(callees))

    def node(self, kind, routine, block=0, **extra):
        return add_node(self.assembly, kind, routine, block, **extra)

    def flow(self, src, dst, may_use=0, may_def=0, must_def=0):
        self.assembly.add_flow_edges([(src, dst, (may_use, may_def, must_def))])

    def routine(self, name, entry, exits, call_pairs=(), branch=()):
        self.assembly.routines[name] = RoutinePSG(
            routine=name,
            entry_node=entry,
            exit_nodes=list(exits),
            call_pairs=list(call_pairs),
            branch_nodes=list(branch),
        )

    def graph(self):
        return self.assembly.finish(partial=False)


def _order(psg):
    return list(range(psg.node_count))


def _site(block=0, targets=("callee",)):
    return CallSite(
        block=block, instruction_index=0, targets=tuple(targets), indirect=False
    )


def build_caller_callee(callee_use=R1, callee_must=R2, callee_may=R2 | R3):
    """caller: entry -> call -> return -> exit; callee: entry -> exit.

    The callee's single flow edge carries the given sets; the caller's
    edges are transparent except entry->call defining R0.
    """
    b = _Builder()
    site = _site(targets=("callee",))
    caller_entry = b.node(NodeKind.ENTRY, "caller")
    caller_exit = b.node(NodeKind.EXIT, "caller", exit_kind=ExitKind.RETURN)
    call = b.node(NodeKind.CALL, "caller", call_site=site)
    ret = b.node(NodeKind.RETURN, "caller", call_site=site)
    callee_entry = b.node(NodeKind.ENTRY, "callee")
    callee_exit = b.node(NodeKind.EXIT, "callee", exit_kind=ExitKind.RETURN)

    b.flow(caller_entry, call, may_use=0, may_def=R0, must_def=R0)
    b.flow(ret, caller_exit, may_use=R0)  # caller uses R0 after the return
    b.call_return(call, ret, ("callee",))
    b.flow(
        callee_entry, callee_exit,
        may_use=callee_use, may_def=callee_may, must_def=callee_must,
    )
    b.routine("caller", caller_entry, [(caller_exit, ExitKind.RETURN)],
              [(call, ret, site)])
    b.routine("callee", callee_entry, [(callee_exit, ExitKind.RETURN)])
    psg = b.graph()
    ids = dict(
        caller_entry=caller_entry, caller_exit=caller_exit, call=call,
        ret=ret, callee_entry=callee_entry, callee_exit=callee_exit,
    )
    return psg, ids


class TestPhase1HandBuilt:
    def test_callee_summary_propagates_to_caller(self):
        psg, ids = build_caller_callee()
        result = run_phase1(psg, {}, 0, _order(psg))
        # Callee entry: uses R1, must-def R2, may-def {R2, R3}.
        assert result.may_use[ids["callee_entry"]] == R1
        assert result.must_def[ids["callee_entry"]] == R2
        assert result.may_def[ids["callee_entry"]] == R2 | R3
        # Caller entry: R1 blocked? No - the caller's entry->call edge
        # only defines R0, so the callee's use of R1 surfaces.
        assert result.may_use[ids["caller_entry"]] == R1
        assert result.must_def[ids["caller_entry"]] == R0 | R2
        assert result.may_def[ids["caller_entry"]] == R0 | R2 | R3

    def test_caller_defining_arg_blocks_callee_use(self):
        psg, ids = build_caller_callee(callee_use=R0)
        result = run_phase1(psg, {}, 0, _order(psg))
        # The entry->call edge must-defines R0, so the callee's use of
        # R0 does not reach the caller's entry.
        assert result.may_use[ids["caller_entry"]] == 0

    def test_cr_label_written_after_convergence(self):
        psg, ids = build_caller_callee()
        run_phase1(psg, {}, 0, _order(psg))
        label = psg.cr_label[0]
        assert label.may_use == R1
        assert label.must_def == R2
        assert label.may_def == R2 | R3

    def test_filtering_strips_saved_registers(self):
        psg, ids = build_caller_callee(
            callee_use=R1 | R3, callee_must=R2 | R3, callee_may=R2 | R3
        )
        # Pretend the callee saves/restores "R3".
        result = run_phase1(psg, {"callee": R3}, 0, _order(psg))
        assert result.may_use[ids["callee_entry"]] == R1
        assert result.must_def[ids["callee_entry"]] == R2
        assert result.may_def[ids["callee_entry"]] == R2

    def test_preserved_mask_strips_defs_only(self):
        psg, ids = build_caller_callee(
            callee_use=R1, callee_must=R1 | R2, callee_may=R1 | R2
        )
        result = run_phase1(psg, {}, preserved_mask=R1, seed_order=_order(psg))
        # R1 still call-used, no longer call-defined/killed.
        assert result.may_use[ids["callee_entry"]] & R1
        assert not result.must_def[ids["callee_entry"]] & R1
        assert not result.may_def[ids["callee_entry"]] & R1

    def test_halt_exit_is_vacuous_must_def(self):
        b = _Builder()
        entry = b.node(NodeKind.ENTRY, "f")
        halt = b.node(NodeKind.EXIT, "f", exit_kind=ExitKind.HALT)
        ret = b.node(NodeKind.EXIT, "f", block=1, exit_kind=ExitKind.RETURN)
        b.flow(entry, halt, must_def=R0, may_def=R0)
        b.flow(entry, ret, must_def=R1, may_def=R1)
        b.routine("f", entry, [(halt, ExitKind.HALT), (ret, ExitKind.RETURN)])
        psg = b.graph()
        result = run_phase1(psg, {}, 0, _order(psg))
        # The halting path contributes T to the intersection, so only
        # the returning path's R1 is call-defined.
        assert result.must_def[entry] == R1
        assert result.may_def[entry] == R0 | R1

    def test_unknown_jump_exit_poisons_may_sets(self):
        b = _Builder()
        entry = b.node(NodeKind.ENTRY, "f")
        wild = b.node(NodeKind.EXIT, "f", exit_kind=ExitKind.UNKNOWN_JUMP)
        b.flow(entry, wild, must_def=R0, may_def=R0)
        b.routine("f", entry, [(wild, ExitKind.UNKNOWN_JUMP)])
        psg = b.graph()
        result = run_phase1(psg, {}, 0, _order(psg))
        assert result.may_use[entry] == TRACKED_MASK & ~R0  # R0 defined first
        assert result.may_def[entry] == TRACKED_MASK | R0
        assert result.must_def[entry] == R0

    def test_recursion_converges(self):
        """f calls itself; must-def via the GFP stays precise."""
        b = _Builder()
        site = _site(targets=("f",))
        entry = b.node(NodeKind.ENTRY, "f")
        exit_node = b.node(NodeKind.EXIT, "f", exit_kind=ExitKind.RETURN)
        call = b.node(NodeKind.CALL, "f", call_site=site)
        ret = b.node(NodeKind.RETURN, "f", call_site=site)
        # entry: either straight to exit defining R2, or into the call.
        b.flow(entry, exit_node, may_def=R2, must_def=R2)
        b.flow(entry, call, may_def=R1, must_def=R1)
        b.flow(ret, exit_node, may_def=R2, must_def=R2)
        b.call_return(call, ret, ("f",))
        b.routine("f", entry, [(exit_node, ExitKind.RETURN)],
                  [(call, ret, site)])
        psg = b.graph()
        result = run_phase1(psg, {}, 0, _order(psg))
        # Every returning path defines R2; only recursive paths touch R1.
        assert result.must_def[entry] == R2
        assert result.may_def[entry] == R1 | R2

    def test_multi_callee_combines(self):
        b = _Builder()
        site = _site(targets=("a", "b"))
        entry = b.node(NodeKind.ENTRY, "main")
        exit_node = b.node(NodeKind.EXIT, "main", exit_kind=ExitKind.RETURN)
        call = b.node(NodeKind.CALL, "main", call_site=site)
        ret = b.node(NodeKind.RETURN, "main", call_site=site)
        a_entry = b.node(NodeKind.ENTRY, "a")
        a_exit = b.node(NodeKind.EXIT, "a", exit_kind=ExitKind.RETURN)
        b_entry = b.node(NodeKind.ENTRY, "b")
        b_exit = b.node(NodeKind.EXIT, "b", exit_kind=ExitKind.RETURN)
        b.flow(entry, call)
        b.flow(ret, exit_node)
        b.call_return(call, ret, ("a", "b"))
        b.flow(a_entry, a_exit, may_use=R0, may_def=R1 | R2, must_def=R1 | R2)
        b.flow(b_entry, b_exit, may_use=R3, may_def=R1, must_def=R1)
        b.routine("main", entry, [(exit_node, ExitKind.RETURN)],
                  [(call, ret, site)])
        b.routine("a", a_entry, [(a_exit, ExitKind.RETURN)])
        b.routine("b", b_entry, [(b_exit, ExitKind.RETURN)])
        psg = b.graph()
        result = run_phase1(psg, {}, 0, _order(psg))
        # main's entry: MAY-USE unions, MUST-DEF intersects.
        assert result.may_use[entry] == R0 | R3
        assert result.must_def[entry] == R1
        assert result.may_def[entry] == R1 | R2


class TestPhase2HandBuilt:
    def test_live_at_exit_via_return_copy(self):
        psg, ids = build_caller_callee()
        run_phase1(psg, {}, 0, _order(psg))
        result = run_phase2(psg, set(), NT_ALPHA, _order(psg))
        # The caller uses R0 after the return; the callee never defines
        # R0, so it is live at the callee's exit AND entry.
        assert result.may_use[ids["callee_exit"]] == R0
        assert result.may_use[ids["callee_entry"]] == R0 | R1

    def test_callee_must_def_blocks_liveness(self):
        # Callee must-defines R0; the caller's post-call use of R0 then
        # does NOT make R0 live before the call.
        psg, ids = build_caller_callee(
            callee_use=0, callee_must=R0, callee_may=R0
        )
        run_phase1(psg, {}, 0, _order(psg))
        result = run_phase2(psg, set(), NT_ALPHA, _order(psg))
        assert result.may_use[ids["call"]] == 0
        # ...but it IS live at the callee's exit (the callee's value
        # flows out to the caller's use).
        assert result.may_use[ids["callee_exit"]] == R0

    def test_externally_callable_seed(self):
        psg, ids = build_caller_callee()
        run_phase1(psg, {}, 0, _order(psg))
        result = run_phase2(psg, {"callee"}, NT_ALPHA, _order(psg))
        from repro.interproc.phase2 import conservative_exit_live_mask

        seed = conservative_exit_live_mask(NT_ALPHA)
        assert result.may_use[ids["callee_exit"]] & seed == seed

    def test_valid_paths_precision(self):
        """Liveness at one call site does not leak to another caller.

        Two callers call the same callee; only caller1 uses R3 after
        its return.  live-at-exit(callee) must include R3 (some return
        path uses it) but caller2's live-before-call must NOT — the
        meet-over-valid-paths property the two-phase approach buys.
        """
        b = _Builder()
        site1 = _site(targets=("shared",))
        site2 = CallSite(
            block=1, instruction_index=0, targets=("shared",), indirect=False
        )
        c1_entry = b.node(NodeKind.ENTRY, "c1")
        c1_exit = b.node(NodeKind.EXIT, "c1", exit_kind=ExitKind.RETURN)
        c1_call = b.node(NodeKind.CALL, "c1", call_site=site1)
        c1_ret = b.node(NodeKind.RETURN, "c1", call_site=site1)
        c2_entry = b.node(NodeKind.ENTRY, "c2")
        c2_exit = b.node(NodeKind.EXIT, "c2", exit_kind=ExitKind.RETURN)
        c2_call = b.node(NodeKind.CALL, "c2", call_site=site2)
        c2_ret = b.node(NodeKind.RETURN, "c2", call_site=site2)
        s_entry = b.node(NodeKind.ENTRY, "shared")
        s_exit = b.node(NodeKind.EXIT, "shared", exit_kind=ExitKind.RETURN)

        b.flow(c1_entry, c1_call)
        b.flow(c1_ret, c1_exit, may_use=R3)   # caller1 uses R3 after return
        b.flow(c2_entry, c2_call)
        b.flow(c2_ret, c2_exit)               # caller2 does not
        b.call_return(c1_call, c1_ret, ("shared",))
        b.call_return(c2_call, c2_ret, ("shared",))
        b.flow(s_entry, s_exit)               # transparent callee
        b.routine("c1", c1_entry, [(c1_exit, ExitKind.RETURN)],
                  [(c1_call, c1_ret, site1)])
        b.routine("c2", c2_entry, [(c2_exit, ExitKind.RETURN)],
                  [(c2_call, c2_ret, site2)])
        b.routine("shared", s_entry, [(s_exit, ExitKind.RETURN)])
        psg = b.graph()
        run_phase1(psg, {}, 0, _order(psg))
        result = run_phase2(psg, set(), NT_ALPHA, _order(psg))
        assert result.may_use[s_exit] == R3          # union over returns
        assert result.may_use[c1_call] == R3         # R3 live before call 1
        assert result.may_use[c2_call] == 0          # but NOT before call 2
        # The callee reports R3 live at entry (it might be c1's call),
        # which is the conservative union the PSG summaries give.
        assert result.may_use[s_entry] == R3
