"""Robustness and round-trip properties of the summary sidecar formats.

Three layers of guarantees for ``SUM1`` and the incremental cache
(``SUM5``, an indexed pack; the fixtures and tests below still say
``sum2``, the name of the sidecar file), front-end record section
included:

* **truncation fuzz** — a valid blob cut at *every* byte offset raises
  :class:`SummaryFormatError`; no ``struct.error``, ``IndexError`` or
  ``UnicodeDecodeError`` ever escapes the parser.  A sidecar's
  checksum catches any damage to the file, so the section decoders
  behind it are fuzzed through *forged* sidecars: a section edited and
  the pack re-checksummed (:func:`_reframed`);
* **Hypothesis round-trip** — ``load(dump(r)) == r`` for generated
  :class:`SummarySet`/:class:`SummaryCache` values covering every
  exit kind, indirect and hinted sites, empty target tuples, unicode
  routine names, all-ones masks and PSG fragments;
* **fingerprint strength** — :func:`image_fingerprint` is a genuine
  64-bit hash: known CRC32-colliding inputs (which the historical
  ``crc32 | (len << 32)`` scheme could not tell apart) get distinct
  fingerprints.
"""

import dataclasses
import struct
import zlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cfg.cfg import CallSite, ExitKind, FrontendRecord, RecordedSite
from repro.dataflow.regset import FULL_MASK, TRACKED_MASK
from tests.facade import analyze_program
from repro.dataflow.equations import SummaryTriple
from repro.interproc.persist import (
    GRADE_BODY,
    GRADE_RECORDS,
    GRADE_TABLE,
    RoutineRow,
    SummaryCache,
    SummaryFormatError,
    crc64,
    decode_pack,
    dump_cache,
    dump_summaries,
    encode_pack,
    image_fingerprint,
    load_cache,
    load_summaries,
)
from repro.psg.build import PsgFragment
from repro.interproc.summaries import (
    SummarySet,
    CallSiteSummary,
    RoutineSummary,
)


# ----------------------------------------------------------------------
# Truncation fuzz: every malformed prefix is a clean format error
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def sum1_blob(quick_program):
    return dump_summaries(analyze_program(quick_program).result)


@pytest.fixture(scope="module")
def sum2_blob(quick_program):
    from tests.facade import analyze_incremental

    return dump_cache(analyze_incremental(quick_program).cache)


def _slot(blob, grade, key=0):
    """The record a sidecar holds in slot ``(grade, key)``."""
    for found_grade, found_key, start, end in decode_pack(blob):
        if (found_grade, found_key) == (grade, key):
            return blob[start:end]
    raise KeyError((grade, key))


def _reframed(blob, grade, key, edit):
    """``blob`` with the record in slot ``(grade, key)`` replaced by
    ``edit(record)`` and the pack re-checksummed: a forged sidecar only
    the section decoders can refuse."""
    records = {
        (found_grade, found_key): blob[start:end]
        for found_grade, found_key, start, end in decode_pack(blob)
    }
    records[grade, key] = edit(records[grade, key])
    return encode_pack(records)


def _assert_all_prefixes_rejected(blob, loader):
    for size in range(len(blob)):
        try:
            loader(blob[:size])
        except SummaryFormatError:
            continue
        except Exception as error:  # pragma: no cover - the failure mode
            pytest.fail(
                f"prefix of {size} bytes leaked "
                f"{type(error).__name__}: {error}"
            )
        pytest.fail(f"prefix of {size} bytes was accepted")


class TestTruncationFuzz:
    def test_sum1_every_prefix(self, sum1_blob):
        _assert_all_prefixes_rejected(sum1_blob, load_summaries)

    def test_sum2_every_prefix(self, sum2_blob):
        _assert_all_prefixes_rejected(sum2_blob, load_cache)

    def test_sum1_trailing_garbage(self, sum1_blob):
        with pytest.raises(SummaryFormatError, match="trailing"):
            load_summaries(sum1_blob + b"\x00")

    def test_sum2_trailing_garbage(self, sum2_blob):
        with pytest.raises(SummaryFormatError, match="checksum"):
            load_cache(sum2_blob + b"\x00")
        # Behind the checksum, every eagerly read section and every
        # body must be consumed exactly.
        for grade in (GRADE_TABLE, GRADE_RECORDS):
            forged = _reframed(sum2_blob, grade, 0, lambda record: record + b"\x00")
            with pytest.raises(SummaryFormatError, match="trailing"):
                load_cache(forged)
        forged = load_cache(
            _reframed(sum2_blob, GRADE_BODY, 0, lambda body: body + b"\x00")
        )
        first = next(iter(forged.result.summaries))
        with pytest.raises(SummaryFormatError, match="trailing"):
            forged.result.summaries[first]

    def test_sum2_unknown_flag_bits_rejected(self, sum2_blob):
        blob = load_cache(sum2_blob)  # premise: valid as-is
        assert blob is not None
        # Set a reserved bit in every byte of the routine table (the
        # flags byte follows each name and fingerprint) and require at
        # least one clean flags reject (and never a non-format
        # exception anywhere).
        table = _slot(sum2_blob, GRADE_TABLE)
        saw_flag_error = False
        for index in range(len(table)):
            forged = _reframed(
                sum2_blob, GRADE_TABLE, 0,
                lambda record: record[:index]
                + bytes([record[index] | 0x80]) + record[index + 1:],
            )
            try:
                load_cache(forged)
            except SummaryFormatError as error:
                saw_flag_error = saw_flag_error or "flags" in str(error)
            except Exception as error:  # pragma: no cover
                pytest.fail(
                    f"byte {index} mutation leaked "
                    f"{type(error).__name__}: {error}"
                )
        assert saw_flag_error

    def test_record_section_every_prefix(self):
        # One record of every wire shape: direct, indirect without and
        # with a (negative, huge) constant, no sites, many candidates.
        blob = dump_cache(_RECORDS_ONLY)
        assert load_cache(blob) == _RECORDS_ONLY
        empty = dump_cache(dataclasses.replace(_RECORDS_ONLY, frontend_records={}))
        assert len(blob) > len(empty)
        _assert_all_prefixes_rejected(blob, load_cache)
        section = _slot(blob, GRADE_RECORDS)
        for size in range(len(section)):
            with pytest.raises(SummaryFormatError):
                load_cache(
                    _reframed(blob, GRADE_RECORDS, 0, lambda record: record[:size])
                )
        with pytest.raises(SummaryFormatError, match="trailing"):
            load_cache(_reframed(blob, GRADE_RECORDS, 0, lambda record: record + b"\x00"))

    def test_record_section_survives_every_byte_flip(self):
        blob = dump_cache(_RECORDS_ONLY)
        section = _slot(blob, GRADE_RECORDS)
        for index in range(len(section)):
            for bit in (0x01, 0x80):
                forged = _reframed(
                    blob, GRADE_RECORDS, 0,
                    lambda record: record[:index]
                    + bytes([record[index] ^ bit]) + record[index + 1:],
                )
                try:
                    load_cache(forged)
                except SummaryFormatError:
                    pass
                except Exception as error:  # pragma: no cover
                    pytest.fail(
                        f"byte {index} ^ {bit:#x} leaked "
                        f"{type(error).__name__}: {error}"
                    )

    @pytest.mark.parametrize(
        "body, message",
        [
            # shape key | block count | site count | sites | candidates
            (struct.pack("<QII", 1, 0, 0) + struct.pack("<I", 0), "no blocks"),
            (
                struct.pack("<QII", 1, 4, 1)
                + struct.pack("<IIB", 3, 9, 0) + struct.pack("<I", 0),
                "outside its blocks",
            ),
            (
                struct.pack("<QII", 1, 9, 2)
                + struct.pack("<IIB", 2, 9, 0) + struct.pack("<IIB", 2, 11, 1)
                + struct.pack("<I", 0),
                "out of order",
            ),
            (
                struct.pack("<QII", 1, 9, 1)
                + struct.pack("<IIB", 5, 3, 1) + struct.pack("<I", 0),
                "out of order",
            ),
            (
                struct.pack("<QII", 1, 9, 1)
                + struct.pack("<IIBq", 2, 9, 2, 64) + struct.pack("<I", 0),
                "constant on a direct call",
            ),
            (
                struct.pack("<QII", 1, 9, 1)
                + struct.pack("<IIB", 2, 9, 4) + struct.pack("<I", 0),
                "call-site flags",
            ),
            (
                struct.pack("<QII", 1, 9, 0) + struct.pack("<I", 0xFFFFFFFF),
                "truncated",
            ),
            (struct.pack("<QII", 1, 9, 0xFFFFFFFF), "truncated"),
        ],
    )
    def test_malformed_records_are_format_errors(self, body, message):
        empty = dump_cache(
            SummaryCache(image_fingerprint=1, result=SummarySet(summaries={}))
        )
        assert _slot(empty, GRADE_RECORDS) == struct.pack("<I", 0)
        blob = _reframed(
            empty, GRADE_RECORDS, 0,
            lambda _record: struct.pack("<I", 1) + body,
        )
        with pytest.raises(SummaryFormatError, match=message):
            load_cache(blob)

    def test_table_out_of_name_order_rejected(self):
        # A body's slot is its row's place in name order, so a table
        # whose names are not in that order (or repeat one) is refused.
        cache = SummaryCache(
            image_fingerprint=1,
            result=SummarySet(summaries={}),
            rows={name: RoutineRow(7, (), None, SummaryTriple(), ()) for name in "ab"},
        )
        blob = dump_cache(cache)
        assert load_cache(blob) == cache
        for names in (b"ba", b"aa"):
            forged = _reframed(
                blob, GRADE_TABLE, 0,
                lambda table: table.replace(
                    b"\x01\x00a\x01\x00b",
                    b"\x01\x00" + names[:1] + b"\x01\x00" + names[1:],
                ),
            )
            with pytest.raises(SummaryFormatError, match="name order"):
                load_cache(forged)

    def test_wrong_magic_each_format(self, sum1_blob, sum2_blob):
        with pytest.raises(SummaryFormatError, match="magic"):
            load_cache(sum1_blob)
        with pytest.raises(SummaryFormatError, match="magic"):
            load_summaries(sum2_blob)


_RECORDS_ONLY = SummaryCache(
    image_fingerprint=7,
    result=SummarySet(summaries={}),
    frontend_records={
        2**64 - 1: FrontendRecord(2**64 - 1, 1, (), ()),
        0x1234: FrontendRecord(
            shape_key=0x1234,
            block_count=40,
            sites=(
                RecordedSite(0, 3, False),
                RecordedSite(2, 9, True),
                RecordedSite(5, 17, True, 0x12_0000_4000),
                RecordedSite(6, 18, True, -8),
                RecordedSite(38, 2**32 - 1, True, -(2**63)),
            ),
            escape_candidates=(0, 4, 0x4000, 2**64 - 4),
        ),
    },
)


# ----------------------------------------------------------------------
# Hypothesis: dump/load round-trips
# ----------------------------------------------------------------------

_MASKS = st.one_of(
    st.just(0),
    st.just(FULL_MASK),  # all-ones
    st.just(TRACKED_MASK),
    st.integers(min_value=0, max_value=FULL_MASK),
)
_NAMES = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)),
    min_size=1,
    max_size=8,
)
_EXIT_KINDS = st.sampled_from(list(ExitKind))


@st.composite
def _call_site_summaries(draw):
    # Covers direct (1 target), hinted (several), and unknown (empty
    # tuple) sites, both direct and indirect.
    targets = tuple(draw(st.lists(_NAMES, max_size=3)))
    site = CallSite(
        block=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        instruction_index=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        targets=targets,
        indirect=draw(st.booleans()),
    )
    return CallSiteSummary(
        site=site,
        used_mask=draw(_MASKS),
        defined_mask=draw(_MASKS),
        killed_mask=draw(_MASKS),
        live_before_mask=draw(_MASKS),
        live_after_mask=draw(_MASKS),
    )


@st.composite
def _routine_summaries(draw, name):
    exit_blocks = draw(
        st.lists(
            st.integers(min_value=0, max_value=2**31 - 1),
            unique=True,
            max_size=3,
        )
    )
    return RoutineSummary(
        name=name,
        call_used_mask=draw(_MASKS),
        call_defined_mask=draw(_MASKS),
        call_killed_mask=draw(_MASKS),
        live_at_entry_mask=draw(_MASKS),
        exit_live_masks={block: draw(_MASKS) for block in exit_blocks},
        exit_kinds={block: draw(_EXIT_KINDS) for block in exit_blocks},
        call_sites=draw(st.lists(_call_site_summaries(), max_size=3)),
        saved_restored_mask=draw(_MASKS),
    )


@st.composite
def _analysis_results(draw):
    names = draw(st.lists(_NAMES, unique=True, max_size=4))
    return SummarySet(
        summaries={name: draw(_routine_summaries(name)) for name in names}
    )


@st.composite
def _frontend_records(draw):
    sites = []
    block = index = -1
    for _ in range(draw(st.integers(0, 4))):
        block += draw(st.integers(1, 3))
        index = max(index + 1, block) + draw(st.integers(0, 5))
        indirect = draw(st.booleans())
        constant = (
            draw(st.none() | st.integers(-(2**63), 2**63 - 1))
            if indirect else None
        )
        sites.append(RecordedSite(block, index, indirect, constant))
    return FrontendRecord(
        shape_key=draw(st.integers(0, 2**64 - 1)),
        block_count=block + 2 + draw(st.integers(0, 3)),
        sites=tuple(sites),
        escape_candidates=tuple(
            sorted(draw(st.sets(st.integers(0, 2**64 - 1), max_size=4)))
        ),
    )


@st.composite
def _fragments(draw):
    """A well-formed fragment: every edge leaves a source node (entry,
    return, branch) and enters a target node (exit, call, branch), and
    its labels are the ones its edges use, in order of first use."""
    exits = tuple(draw(st.lists(
        st.tuples(st.integers(0, 2**32 - 1), _EXIT_KINDS), max_size=3
    )))
    site_count = draw(st.integers(0, 3))
    branch_blocks = tuple(draw(st.lists(st.integers(0, 2**32 - 1), max_size=2)))
    labels = tuple(
        (may_use, may_def, must_def & may_def)
        for may_use, may_def, must_def in draw(
            st.lists(st.tuples(_MASKS, _MASKS, _MASKS), min_size=1, max_size=3)
        )
    )
    calls = 1 + len(exits)
    branches = calls + 2 * site_count
    end = branches + len(branch_blocks)
    sources = [0] + [calls + 2 * k + 1 for k in range(site_count)]
    sources += range(branches, end)
    targets = list(range(1, calls)) + [calls + 2 * k for k in range(site_count)]
    targets += range(branches, end)
    edges = draw(st.lists(
        st.tuples(
            st.sampled_from(sources), st.sampled_from(targets),
            st.integers(0, len(labels) - 1),
        ),
        max_size=6,
    )) if targets else []
    first_use = list(dict.fromkeys(edge[2] for edge in edges))
    return PsgFragment(
        exits=exits,
        site_count=site_count,
        branch_blocks=branch_blocks,
        saved=draw(_MASKS),
        labels=tuple(labels[index] for index in first_use),
        sources=tuple(edge[0] for edge in edges),
        targets=tuple(edge[1] for edge in edges),
        label_ids=tuple(first_use.index(edge[2]) for edge in edges),
    )


_TRIPLES = st.builds(SummaryTriple, _MASKS, _MASKS, _MASKS)


@st.composite
def _rows(draw, summarized):
    """A table row: any call targets inside or outside the component;
    phase-2 inputs and live-after masks (one per target) only for a
    ``summarized`` one."""
    callees = tuple(draw(st.lists(st.none() | _TRIPLES, max_size=4)))
    phase2, live_after = None, ()
    if summarized:
        phase2 = (draw(st.booleans()), draw(_MASKS))
        live_after = tuple(draw(
            st.lists(_MASKS, min_size=len(callees), max_size=len(callees))
        ))
    return RoutineRow(
        fingerprint=draw(st.integers(min_value=0, max_value=2**64 - 1)),
        callees=callees,
        phase2=phase2,
        triple=draw(_TRIPLES),
        live_after=live_after,
    )


@st.composite
def _summary_caches(draw):
    result = draw(_analysis_results())
    # Phase-1-only rows beside the summarized ones.
    names = set(result.summaries) | set(draw(st.lists(_NAMES, max_size=3)))
    return SummaryCache(
        image_fingerprint=draw(
            st.integers(min_value=0, max_value=2**64 - 1)
        ),
        result=result,
        rows={
            name: draw(_rows(name in result.summaries)) for name in sorted(names)
        },
        # Keyed independently of the rows: by shape key.
        frontend_records={
            record.shape_key: record
            for record in draw(st.lists(_frontend_records(), max_size=3))
        },
        config_digest=draw(st.integers(min_value=0, max_value=2**64 - 1)),
        # ... and fragments by any shape key.
        fragments=draw(
            st.dictionaries(st.integers(0, 2**64 - 1), _fragments(), max_size=3)
        ),
    )


_PROPERTY = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestRoundTripProperties:
    @_PROPERTY
    @given(result=_analysis_results())
    def test_sum1_roundtrip(self, result):
        blob = dump_summaries(result)
        loaded = load_summaries(blob)
        assert loaded == result
        assert dump_summaries(loaded) == blob

    @_PROPERTY
    @given(cache=_summary_caches())
    def test_sum2_roundtrip(self, cache):
        blob = dump_cache(cache)
        loaded = load_cache(blob)
        assert loaded == cache
        assert dump_cache(loaded) == blob

    @_PROPERTY
    @given(result=_analysis_results(), fingerprint=st.integers(2, 2**64 - 1))
    def test_sum1_fingerprint_binding(self, result, fingerprint):
        blob = dump_summaries(result, fingerprint)
        assert load_summaries(blob, fingerprint) == result
        # A *nonzero* mismatch is stale (0 means "skip the check").
        with pytest.raises(SummaryFormatError, match="stale"):
            load_summaries(blob, fingerprint - 1)


# ----------------------------------------------------------------------
# Fingerprint strength
# ----------------------------------------------------------------------


class TestFingerprintStrength:
    # A classic CRC32 collision pair: equal length, equal CRC32.
    COLLIDING = (b"plumless", b"buckeroo")

    def test_premise_crc32_collides(self):
        a, b = self.COLLIDING
        assert a != b and len(a) == len(b)
        assert zlib.crc32(a) == zlib.crc32(b)

    def test_crc64_separates_crc32_collisions(self):
        a, b = self.COLLIDING
        # The historical `crc32 | (len << 32)` fingerprint collides
        # here by construction; the 64-bit hash must not.
        assert crc64(a) != crc64(b)
        assert image_fingerprint(a) != image_fingerprint(b)

    def test_crc64_uses_high_bits(self):
        assert crc64(b"spike") >> 32 != 0

    def test_crc64_empty_and_stability(self):
        assert crc64(b"") == crc64(b"")
        assert crc64(b"abc") != crc64(b"acb")
