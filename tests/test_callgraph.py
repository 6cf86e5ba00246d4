"""Tests for the call graph, SCCs and the address-taken escape analysis."""

from repro.cfg.callgraph import build_call_graph, find_address_taken
from repro.program.asm import assemble
from repro.program.disasm import disassemble_image


def program_of(source: str, entry=None):
    return disassemble_image(assemble(source, entry=entry))


class TestCallers:
    def test_callers_recorded(self, quick_program):
        graph = build_call_graph(quick_program)
        callers = graph.callers_of("helper")
        assert len(callers) == 1
        assert callers[0][0] == "main"
        assert graph.callees_of("main") == ("helper",)
        assert graph.callees_of("main") is graph.callees_of("main")

    def test_unknown_sites(self):
        program = program_of(
            """
            .data p: 0
            .routine main
                li  t0, @p
                ldq pv, 0(t0)
                jsr ra, (pv)
                halt
            """
        )
        graph = build_call_graph(program)
        assert len(graph.unknown_sites) == 1
        assert graph.unknown_sites[0][0] == "main"


class TestExternallyCallable:
    def test_entry_always_externally_callable(self, quick_program):
        graph = build_call_graph(quick_program)
        assert "main" in graph.externally_callable
        assert "helper" not in graph.externally_callable

    def test_exported_routines(self):
        program = program_of(
            """
            .routine main
                halt
            .routine api export
                ret (ra)
            """
        )
        graph = build_call_graph(program)
        assert "api" in graph.externally_callable


class TestAddressTaken:
    def test_address_stored_to_memory_escapes(self):
        program = program_of(
            """
            .routine main
                li  t0, &f
                stq t0, 0(sp)
                halt
            .routine f
                ret (ra)
            """
        )
        assert "f" in find_address_taken(program)

    def test_address_feeding_resolved_jsr_does_not_escape(self):
        program = program_of(
            """
            .routine main
                li  pv, &f
                jsr ra, (pv)
                halt
            .routine f
                ret (ra)
            """
        )
        assert "f" not in find_address_taken(program)

    def test_address_surviving_block_boundary_escapes(self):
        program = program_of(
            """
            .routine main
                li  t5, &f
                beq t0, skip
                addq t1, #1, t1
            skip:
                halt
            .routine f
                ret (ra)
            """
        )
        assert "f" in find_address_taken(program)

    def test_address_used_arithmetically_escapes(self):
        program = program_of(
            """
            .routine main
                li   t0, &f
                addq t0, t1, t2
                halt
            .routine f
                ret (ra)
            """
        )
        assert "f" in find_address_taken(program)

    def test_plain_constants_do_not_escape(self):
        program = program_of(
            """
            .routine main
                li  t0, 1234
                stq t0, 0(sp)
                halt
            .routine f
                ret (ra)
            """
        )
        assert find_address_taken(program) == set()


class TestOrderings:
    DIAMOND = """
        .routine main
            bsr ra, left
            bsr ra, right
            halt
        .routine left
            lda sp, -16(sp)
            stq ra, 0(sp)
            bsr ra, leaf
            ldq ra, 0(sp)
            lda sp, 16(sp)
            ret (ra)
        .routine right
            lda sp, -16(sp)
            stq ra, 0(sp)
            bsr ra, leaf
            ldq ra, 0(sp)
            lda sp, 16(sp)
            ret (ra)
        .routine leaf
            ret (ra)
    """

    def test_reverse_topological_order(self):
        graph = build_call_graph(program_of(self.DIAMOND))
        order = graph.reverse_topological_order()
        assert order.index("leaf") < order.index("left")
        assert order.index("leaf") < order.index("right")
        assert order.index("left") < order.index("main")
        assert set(order) == {"main", "left", "right", "leaf"}

    def test_sccs_of_mutual_recursion(self):
        program = program_of(
            """
            .routine main
                bsr ra, even
                halt
            .routine even
                lda sp, -16(sp)
                stq ra, 0(sp)
                ble a0, even_done
                subq a0, #1, a0
                bsr ra, odd
            even_done:
                ldq ra, 0(sp)
                lda sp, 16(sp)
                ret (ra)
            .routine odd
                lda sp, -16(sp)
                stq ra, 0(sp)
                ble a0, odd_done
                subq a0, #1, a0
                bsr ra, even
            odd_done:
                ldq ra, 0(sp)
                lda sp, 16(sp)
                ret (ra)
            """
        )
        graph = build_call_graph(program)
        components = graph.strongly_connected_components()
        by_size = sorted(components, key=len)
        assert sorted(by_size[-1]) == ["even", "odd"]
        # Callees-first: the even/odd component precedes main's.
        names = [set(c) for c in components]
        assert names.index({"even", "odd"}) < names.index({"main"})

    def test_self_recursion_is_singleton_scc(self):
        program = program_of(
            """
            .routine main
                lda sp, -16(sp)
                stq ra, 0(sp)
                ble a0, done
                subq a0, #1, a0
                bsr ra, main
            done:
                ldq ra, 0(sp)
                lda sp, 16(sp)
                ret (ra)
            """
        )
        graph = build_call_graph(program)
        assert [["main"]] == graph.strongly_connected_components()

    def test_scc_on_generated_program(self, small_benchmark):
        graph = build_call_graph(small_benchmark)
        order = graph.reverse_topological_order()
        assert sorted(order) == sorted(small_benchmark.routine_names())
