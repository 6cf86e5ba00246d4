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

from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple

from repro.dataflow.equations import SummaryTriple
from repro.dataflow.regset import RegisterSet, sorted_names
from repro.cfg.cfg import CallSite, ExitKind


class SiteEffect(NamedTuple):
    """Gen/kill masks summarizing a call site for liveness."""

    gen: int
    kill: int


class CallSiteSummary(NamedTuple):
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
        return SiteEffect(self.used_mask, self.defined_mask)

    def survives_call(self, register_index: int) -> bool:
        """True when the callee provably preserves ``register_index``
        (the Figure 1(c)/(d) test: not call-killed)."""
        return not (self.killed_mask >> register_index) & 1


class RoutineSummary(NamedTuple):
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
    call_sites: Sequence[CallSiteSummary] = ()
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
        summary.call_used_mask, summary.call_killed_mask,
        summary.call_defined_mask,
    )


def live_after_masks(summary: RoutineSummary) -> Tuple[int, ...]:
    """Per call target of ``summary``'s sites, in site order, the
    live-after mask of its site: what the callees' exit seeds read."""
    return tuple([
        site.live_after_mask
        for site in summary.call_sites for _target in site.site.targets
    ])


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
        """True when both results carry identical dataflow facts: every
        field of every routine's summary, call sites included.

        Used to cross-validate the PSG analysis against the full-CFG
        baseline.
        """
        if set(self.summaries) != set(other.summaries):
            return False
        return all(
            _fields(mine) == _fields(other.summaries[name])
            for name, mine in self.summaries.items()
        )

    def diff(self, other: "SummarySet") -> List[str]:
        """Human-readable description of summary differences: one line
        per field :meth:`equal_summaries` finds unequal."""
        problems: List[str] = []
        for name in sorted(set(self.summaries) | set(other.summaries)):
            mine = self.summaries.get(name)
            theirs = other.summaries.get(name)
            if mine is None or theirs is None:
                problems.append(f"{name}: missing on one side")
                continue
            for label, a, b in zip(_FIELDS, _fields(mine), _fields(theirs)):
                if a == b:
                    continue
                if isinstance(a, int):
                    problems.append(
                        f"{name}.{label}: "
                        f"{RegisterSet.from_mask(a)!r} != "
                        f"{RegisterSet.from_mask(b)!r}"
                    )
                elif label != "call_sites":
                    problems.append(f"{name}.{label} differs")
                elif len(a) != len(b):
                    problems.append(
                        f"{name}: {len(a)} call sites != {len(b)}"
                    )
            for site_a, site_b in zip(mine.call_sites, theirs.call_sites):
                where = f"{name} call@block{site_a.site.block}"
                if site_a.site != site_b.site:
                    problems.append(
                        f"{where}.site: {site_a.site!r} != {site_b.site!r}"
                    )
                for label, a, b in zip(
                    CallSiteSummary._fields[1:], site_a[1:], site_b[1:]
                ):
                    if a != b:
                        problems.append(
                            f"{where}.{label}: "
                            f"{RegisterSet.from_mask(a)!r} != "
                            f"{RegisterSet.from_mask(b)!r}"
                        )
        return problems


#: What :meth:`SummarySet.equal_summaries` compares, in :func:`_fields`
#: order.
_FIELDS = (
    "call_used", "call_defined", "call_killed", "live_at_entry",
    "saved_restored", "live_at_exit", "exit_kinds", "call_sites",
)


def _fields(summary: RoutineSummary) -> Tuple[object, ...]:
    """Every field of ``summary`` but its name, as plain values: masks,
    dicts and a tuple of call-site rows."""
    return (
        summary.call_used_mask,
        summary.call_defined_mask,
        summary.call_killed_mask,
        summary.live_at_entry_mask,
        summary.saved_restored_mask,
        dict(summary.exit_live_masks),
        dict(summary.exit_kinds),
        tuple(summary.call_sites),
    )
