"""Tests for the RoutineSummary / SummarySet API."""

import pytest

from repro.cfg.cfg import CallSite, ExitKind
from repro.dataflow.regset import mask_of
from tests.facade import analyze_program
from repro.dataflow.equations import SummaryTriple
from repro.interproc.summaries import (
    SummarySet,
    CallSiteSummary,
    RoutineSummary,
    SiteEffect,
)


def _site(block=1, callee="g"):
    return CallSite(
        block=block, instruction_index=3, targets=(callee,), indirect=False
    )


def _call_site(site):
    return CallSiteSummary(
        site=site,
        used_mask=mask_of(["a0"]),
        defined_mask=mask_of(["v0"]),
        killed_mask=mask_of(["v0", "t1"]),
        live_before_mask=mask_of(["a0"]),
        live_after_mask=mask_of(["v0"]),
    )


def _summary(name="f", **overrides):
    fields = dict(
        name=name,
        call_used_mask=mask_of(["a0"]),
        call_defined_mask=mask_of(["v0"]),
        call_killed_mask=mask_of(["v0", "t0"]),
        live_at_entry_mask=mask_of(["a0", "ra"]),
        exit_live_masks={2: mask_of(["v0"])},
        exit_kinds={2: ExitKind.RETURN},
        call_sites=[_call_site(_site())],
    )
    fields.update(overrides)
    return RoutineSummary(**fields)


class TestRoutineSummary:
    def test_register_set_accessors(self):
        summary = _summary()
        assert summary.call_used.names() == {"a0"}
        assert summary.call_defined.names() == {"v0"}
        assert summary.call_killed.names() == {"v0", "t0"}
        assert summary.live_at_entry.names() == {"a0", "ra"}

    def test_live_at_exit(self):
        summary = _summary()
        assert summary.live_at_exit(2).names() == {"v0"}
        with pytest.raises(KeyError):
            summary.live_at_exit(99)

    def test_live_at_any_exit_only_returns(self):
        summary = _summary(
            exit_live_masks={2: mask_of(["v0"]), 5: mask_of(["t7"])},
            exit_kinds={2: ExitKind.RETURN, 5: ExitKind.HALT},
        )
        assert summary.live_at_any_exit_mask == mask_of(["v0"])

    def test_site_summary_lookup(self):
        summary = _summary()
        assert summary.site_summary(1).site.callee == "g"
        with pytest.raises(KeyError):
            summary.site_summary(42)

    def test_site_effects_kill_is_defined_not_killed(self):
        effects = _summary().site_effects()
        assert effects[1].gen == mask_of(["a0"])
        assert effects[1].kill == mask_of(["v0"])  # MUST-DEF only

    def test_return_exit_live(self):
        summary = _summary(
            exit_live_masks={2: mask_of(["v0"]), 5: 0},
            exit_kinds={2: ExitKind.RETURN, 5: ExitKind.HALT},
        )
        assert summary.return_exit_live() == {2: mask_of(["v0"])}


class TestCallSiteSummary:
    def test_survives_call(self):
        site = _summary().call_sites[0]
        from repro.isa.registers import Register

        assert site.survives_call(Register.parse("t5").index)
        assert not site.survives_call(Register.parse("t1").index)

    def test_register_set_accessors(self):
        site = _summary().call_sites[0]
        assert site.used.names() == {"a0"}
        assert site.defined.names() == {"v0"}
        assert site.live_before.names() == {"a0"}
        assert site.live_after.names() == {"v0"}


class TestToJson:
    def test_register_sets_are_sorted_name_lists(self):
        payload = _summary().to_json()
        assert payload["call_killed"] == ["t0", "v0"]
        assert payload["live_at_entry"] == ["a0", "ra"]
        assert payload["live_at_exit"] == {"2": ["v0"]}

    def test_every_call_returns_fresh_lists(self):
        """The names are memoized per mask; the payload's lists are
        not shared, so a caller may edit one."""
        summary = _summary()
        first = summary.to_json()
        first["call_killed"].append("clobbered")
        first["live_at_exit"]["2"].clear()
        assert summary.to_json() == _summary().to_json()
        assert summary.to_json()["call_killed"] == ["t0", "v0"]


class TestSummarySet:
    def test_container_protocol(self):
        result = SummarySet({"f": _summary()})
        assert "f" in result
        assert result["f"].name == "f"
        assert result.routine("f") is result["f"]
        assert [s.name for s in result] == ["f"]

    def test_equal_summaries_positive(self):
        a = SummarySet({"f": _summary()})
        b = SummarySet({"f": _summary()})
        assert a.equal_summaries(b)
        assert a.diff(b) == []

    def test_equal_summaries_detects_mask_change(self):
        a = SummarySet({"f": _summary()})
        b = SummarySet({"f": _summary(call_used_mask=mask_of(["a1"]))})
        assert not a.equal_summaries(b)
        assert any("call_used" in line for line in a.diff(b))

    def test_equal_summaries_detects_missing_routine(self):
        a = SummarySet({"f": _summary()})
        b = SummarySet({})
        assert not a.equal_summaries(b)
        assert any("missing" in line for line in a.diff(b))

    def test_equal_summaries_detects_site_change(self):
        changed = _summary()
        site = changed.call_sites[0]
        modified = CallSiteSummary(
            site=site.site,
            used_mask=site.used_mask,
            defined_mask=site.defined_mask,
            killed_mask=site.killed_mask,
            live_before_mask=mask_of(["t9"]),
            live_after_mask=site.live_after_mask,
        )
        a = SummarySet({"f": _summary()})
        b = SummarySet({"f": _summary(call_sites=[modified])})
        assert not a.equal_summaries(b)
        assert any("live_before" in line for line in a.diff(b))

    def test_exit_live_difference_detected(self):
        a = SummarySet({"f": _summary()})
        b = SummarySet(
            {"f": _summary(exit_live_masks={2: mask_of(["t2"])})}
        )
        assert not a.equal_summaries(b)

    def test_equal_summaries_detects_dropped_site(self):
        """A result that loses a call site is not equal to one that has
        it, whichever side is missing it."""
        a = SummarySet({"f": _summary()})
        b = SummarySet({"f": _summary(call_sites=[])})
        for left, right in ((a, b), (b, a)):
            assert not left.equal_summaries(right)
            assert any("call sites" in line for line in left.diff(right))

    @pytest.mark.parametrize("row", [
        {"block": 4},
        {"instruction_index": 0},
        {"targets": ("h",)},
        {"targets": ("g", "h")},
        {"indirect": True},
    ])
    def test_equal_summaries_detects_site_row_change(self, row):
        """Same masks, different call site: block, index, targets or
        the indirect flag."""
        moved = _call_site(_site()._replace(**row))
        a = SummarySet({"f": _summary()})
        b = SummarySet({"f": _summary(call_sites=[moved])})
        assert not a.equal_summaries(b)
        assert any(line.endswith(repr(moved.site)) for line in a.diff(b))

    def test_equal_summaries_detects_exit_kind_change(self):
        a = SummarySet({"f": _summary()})
        b = SummarySet({"f": _summary(exit_kinds={2: ExitKind.HALT})})
        assert not a.equal_summaries(b)
        assert any("exit_kinds" in line for line in a.diff(b))

    def test_equal_summaries_detects_saved_restored_change(self):
        a = SummarySet({"f": _summary()})
        b = SummarySet({"f": _summary(saved_restored_mask=mask_of(["s0"]))})
        assert not a.equal_summaries(b)
        assert any("saved_restored" in line for line in a.diff(b))

    def test_list_and_tuple_sites_compare_equal(self):
        """Readers and assemblers may hold the sites in either."""
        summary = _summary()
        rows = summary._replace(call_sites=tuple(summary.call_sites))
        a, b = SummarySet({"f": summary}), SummarySet({"f": rows})
        assert a.equal_summaries(b)
        assert a.diff(b) == []


class TestRows:
    """Summaries are plain rows: positional, with tuple equality."""

    def test_triple_equals_its_tuple(self):
        triple = SummaryTriple(1, 2, 3)
        assert triple == (1, 2, 3)
        assert triple == SummaryTriple(may_use=1, may_def=2, must_def=3)
        may_use, may_def, must_def = triple
        assert (may_use, may_def, must_def) == (1, 2, 3)
        assert SummaryTriple() == (0, 0, 0)

    def test_positional_and_keyword_summaries_agree(self):
        summary = _summary()
        site = summary.call_sites[0]
        assert CallSiteSummary(*site) == site
        assert RoutineSummary(*summary) == summary
        assert site.site_effect() == SiteEffect(site.used_mask, site.defined_mask)

    def test_call_sites_default_empty(self):
        summary = RoutineSummary("f", 0, 0, 0, 0, {}, {})
        assert summary.call_sites == ()
        assert summary.saved_restored_mask == 0
        assert summary.site_effects() == {}


class TestSummariesFromAnalysis:
    def test_every_routine_summarized(self, small_benchmark):
        analysis = analyze_program(small_benchmark)
        assert set(analysis.result.summaries) == set(
            small_benchmark.routine_names()
        )

    def test_call_sites_in_block_order(self, small_benchmark):
        analysis = analyze_program(small_benchmark)
        for name in small_benchmark.routine_names():
            summary = analysis.summary(name)
            cfg_sites = [s.block for s in analysis.cfgs[name].call_sites]
            assert [s.site.block for s in summary.call_sites] == cfg_sites

    def test_must_def_subset_of_may_def_everywhere(self, small_benchmark):
        """call-defined ⊆ call-killed except for never-returning paths."""
        analysis = analyze_program(small_benchmark)
        for summary in analysis.result:
            exit_kinds = set(summary.exit_kinds.values())
            if exit_kinds == {ExitKind.RETURN}:
                assert (
                    summary.call_defined_mask & ~summary.call_killed_mask == 0
                ), summary.name
