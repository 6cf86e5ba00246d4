"""Routine summaries: the product of the interprocedural analysis (§2).

A :class:`RoutineSummary` is exactly the information Spike needs to
optimize one routine in isolation:

* ``live_at_entry`` / ``live_at_exit`` — registers live at each
  entrance / exit;
* ``call_used`` / ``call_defined`` / ``call_killed`` — the
  call-summary sets callers substitute for calls to this routine;
* per call site, the summary of the *callee* (the call-summary
  instruction of §2) and the registers live immediately before and
  after the call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Set, Tuple

from repro.dataflow.equations import SummaryTriple
from repro.dataflow.liveness import SiteEffect
from repro.dataflow.regset import RegisterSet, sorted_names
from repro.cfg.cfg import CallSite, ExitKind


@dataclass(frozen=True)
class CallSiteSummary:
    """Everything the optimizer knows about one call site."""

    site: CallSite
    #: Registers the call-summary instruction uses (callee's call-used).
    used_mask: int
    #: Registers the call-summary instruction defines (call-defined).
    defined_mask: int
    #: Registers the call-summary instruction kills (call-killed).
    killed_mask: int
    #: Registers live immediately before the call instruction.
    live_before_mask: int
    #: Registers live at the call's return point.
    live_after_mask: int

    @property
    def used(self) -> RegisterSet:
        return RegisterSet.from_mask(self.used_mask)

    @property
    def defined(self) -> RegisterSet:
        return RegisterSet.from_mask(self.defined_mask)

    @property
    def killed(self) -> RegisterSet:
        return RegisterSet.from_mask(self.killed_mask)

    @property
    def live_before(self) -> RegisterSet:
        return RegisterSet.from_mask(self.live_before_mask)

    @property
    def live_after(self) -> RegisterSet:
        return RegisterSet.from_mask(self.live_after_mask)

    def site_effect(self) -> SiteEffect:
        """Gen/kill masks for client-side liveness (§2).

        Only *definite* definitions kill liveness, so the kill set is
        call-defined, not call-killed.
        """
        return SiteEffect(gen=self.used_mask, kill=self.defined_mask)

    def survives_call(self, register_index: int) -> bool:
        """True when the callee provably preserves ``register_index``
        (the Figure 1(c)/(d) test: not call-killed)."""
        return not (self.killed_mask >> register_index) & 1


@dataclass(frozen=True)
class RoutineSummary:
    """The complete external-register-usage summary of one routine."""

    name: str
    call_used_mask: int
    call_defined_mask: int
    call_killed_mask: int
    live_at_entry_mask: int
    #: exit block index -> live-at-exit mask (every exit kind).
    exit_live_masks: Mapping[int, int]
    #: exit block index -> exit kind.
    exit_kinds: Mapping[int, ExitKind]
    call_sites: List[CallSiteSummary] = field(default_factory=list)
    #: Callee-saved registers this routine saves and restores (§3.4).
    saved_restored_mask: int = 0

    @property
    def call_used(self) -> RegisterSet:
        return RegisterSet.from_mask(self.call_used_mask)

    @property
    def call_defined(self) -> RegisterSet:
        return RegisterSet.from_mask(self.call_defined_mask)

    @property
    def call_killed(self) -> RegisterSet:
        return RegisterSet.from_mask(self.call_killed_mask)

    @property
    def live_at_entry(self) -> RegisterSet:
        return RegisterSet.from_mask(self.live_at_entry_mask)

    @property
    def saved_restored(self) -> RegisterSet:
        return RegisterSet.from_mask(self.saved_restored_mask)

    def live_at_exit(self, exit_block: int) -> RegisterSet:
        """Registers live at the exit in block ``exit_block``."""
        return RegisterSet.from_mask(self.exit_live_masks[exit_block])

    @property
    def live_at_any_exit_mask(self) -> int:
        """Union of the live-at-exit masks over RETURN exits."""
        mask = 0
        for block, kind in self.exit_kinds.items():
            if kind == ExitKind.RETURN:
                mask |= self.exit_live_masks[block]
        return mask

    def site_summary(self, block_index: int) -> CallSiteSummary:
        """The call-site summary for the call ending ``block_index``."""
        for summary in self.call_sites:
            if summary.site.block == block_index:
                return summary
        raise KeyError(f"no call site in block {block_index} of {self.name!r}")

    def site_effects(self) -> Dict[int, SiteEffect]:
        """Block index -> :class:`SiteEffect` for every call site."""
        return {s.site.block: s.site_effect() for s in self.call_sites}

    def return_exit_live(self) -> Dict[int, int]:
        """Block index -> live mask for RETURN exits (liveness input)."""
        return {
            block: self.exit_live_masks[block]
            for block, kind in self.exit_kinds.items()
            if kind == ExitKind.RETURN
        }

    def to_json(self) -> Dict[str, object]:
        """The schema-1 JSON rendering of one routine's summary.

        Register sets are sorted name lists and exit blocks are string
        keys, so the payload round-trips through JSON unchanged; this
        is the shape both the CLI ``query --json`` output and the
        daemon's ``summaries`` sections carry.
        """
        return {
            "routine": self.name,
            "call_used": list(sorted_names(self.call_used_mask)),
            "call_defined": list(sorted_names(self.call_defined_mask)),
            "call_killed": list(sorted_names(self.call_killed_mask)),
            "live_at_entry": list(sorted_names(self.live_at_entry_mask)),
            "live_at_exit": {
                str(block): list(sorted_names(mask))
                for block, mask in sorted(self.exit_live_masks.items())
            },
        }


def _triple_of(summary: RoutineSummary) -> SummaryTriple:
    """A summary's phase-1 triple, in solver orientation."""
    return SummaryTriple(
        may_use=summary.call_used_mask,
        may_def=summary.call_killed_mask,
        must_def=summary.call_defined_mask,
    )


class ExitSeeds:
    """Exit seeds read off final caller summaries.

    A component's exit seed for a member is the OR of the live-after
    masks at every out-of-component call site targeting it.  Phase 2
    runs callers-first, so once a caller's summary is final (found in
    the first of ``sources`` that has it; a caller in none has no
    sites) its call sites are indexed by ``(block, instruction index)``
    on first ask, and every later site lookup is a dict hit.
    """

    def __init__(self, *sources: Mapping[str, RoutineSummary]) -> None:
        self._sources = sources
        self._masks: Dict[str, Dict[Tuple[int, int], int]] = {}

    def live_after(self, caller: str, site: CallSite) -> int:
        """Live-after mask of the call ``site`` in ``caller``."""
        masks = self._masks.get(caller)
        if masks is None:
            summary = next(
                (s[caller] for s in self._sources if caller in s), None
            )
            masks = {} if summary is None else {
                (known.site.block, known.site.instruction_index):
                known.live_after_mask
                for known in summary.call_sites
            }
            self._masks[caller] = masks
        return masks.get((site.block, site.instruction_index), 0)

    def seed(self, name: str, member_set: Set[str], call_graph) -> int:
        """The exit seed of ``name`` in the component ``member_set``
        (in-component flow happens inside the solve)."""
        mask = 0
        for caller, site in call_graph.callers_of(name):
            if caller not in member_set:
                mask |= self.live_after(caller, site)
        return mask


@dataclass
class SummarySet:
    """Whole-program analysis output: one summary per routine."""

    summaries: Dict[str, RoutineSummary]

    def __getitem__(self, name: str) -> RoutineSummary:
        return self.summaries[name]

    def __contains__(self, name: str) -> bool:
        return name in self.summaries

    def __iter__(self):
        return iter(self.summaries.values())

    def routine(self, name: str) -> RoutineSummary:
        return self.summaries[name]

    def equal_summaries(self, other: "SummarySet") -> bool:
        """True when both results carry identical dataflow facts.

        Used to cross-validate the PSG analysis against the full-CFG
        baseline.
        """
        if set(self.summaries) != set(other.summaries):
            return False
        for name, mine in self.summaries.items():
            theirs = other.summaries[name]
            if (
                mine.call_used_mask != theirs.call_used_mask
                or mine.call_defined_mask != theirs.call_defined_mask
                or mine.call_killed_mask != theirs.call_killed_mask
                or mine.live_at_entry_mask != theirs.live_at_entry_mask
                or dict(mine.exit_live_masks) != dict(theirs.exit_live_masks)
            ):
                return False
            site_pairs = zip(mine.call_sites, theirs.call_sites)
            for site_a, site_b in site_pairs:
                if (
                    site_a.used_mask != site_b.used_mask
                    or site_a.defined_mask != site_b.defined_mask
                    or site_a.killed_mask != site_b.killed_mask
                    or site_a.live_before_mask != site_b.live_before_mask
                    or site_a.live_after_mask != site_b.live_after_mask
                ):
                    return False
        return True

    def diff(self, other: "SummarySet") -> List[str]:
        """Human-readable description of summary differences."""
        problems: List[str] = []
        for name in sorted(set(self.summaries) | set(other.summaries)):
            mine = self.summaries.get(name)
            theirs = other.summaries.get(name)
            if mine is None or theirs is None:
                problems.append(f"{name}: missing on one side")
                continue
            for label, a, b in (
                ("call_used", mine.call_used_mask, theirs.call_used_mask),
                ("call_defined", mine.call_defined_mask, theirs.call_defined_mask),
                ("call_killed", mine.call_killed_mask, theirs.call_killed_mask),
                ("live_at_entry", mine.live_at_entry_mask, theirs.live_at_entry_mask),
            ):
                if a != b:
                    problems.append(
                        f"{name}.{label}: "
                        f"{RegisterSet.from_mask(a)!r} != "
                        f"{RegisterSet.from_mask(b)!r}"
                    )
            if dict(mine.exit_live_masks) != dict(theirs.exit_live_masks):
                problems.append(f"{name}.live_at_exit differs")
            for site_a, site_b in zip(mine.call_sites, theirs.call_sites):
                for label in (
                    "used_mask",
                    "defined_mask",
                    "killed_mask",
                    "live_before_mask",
                    "live_after_mask",
                ):
                    a = getattr(site_a, label)
                    b = getattr(site_b, label)
                    if a != b:
                        problems.append(
                            f"{name} call@block{site_a.site.block}.{label}: "
                            f"{RegisterSet.from_mask(a)!r} != "
                            f"{RegisterSet.from_mask(b)!r}"
                        )
        return problems
