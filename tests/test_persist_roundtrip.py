"""Robustness and round-trip properties of the summary sidecar formats.

Three layers of guarantees for ``SUM1`` and the incremental cache
(``SUM3``; the fixtures and tests below still say ``sum2``, the name of
the format family and of the sidecar file), front-end record section
included:

* **truncation fuzz** — a valid blob cut at *every* byte offset raises
  :class:`SummaryFormatError`; no ``struct.error``, ``IndexError`` or
  ``UnicodeDecodeError`` ever escapes the parser;
* **Hypothesis round-trip** — ``load(dump(r)) == r`` for generated
  :class:`SummarySet`/:class:`SummaryCache` values covering every
  exit kind, indirect and hinted sites, empty target tuples, unicode
  routine names, and all-ones masks;
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
from repro.interproc.persist import (
    SummaryCache,
    SummaryFormatError,
    crc64,
    dump_cache,
    dump_summaries,
    image_fingerprint,
    load_cache,
    load_summaries,
)
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
        with pytest.raises(SummaryFormatError, match="trailing"):
            load_cache(sum2_blob + b"\x00")

    def test_sum2_unknown_flag_bits_rejected(self, sum2_blob):
        blob = load_cache(sum2_blob)  # premise: valid as-is
        assert blob is not None
        # The flags byte follows magic+fingerprint+count+name+fp; flip a
        # reserved bit everywhere and require at least one clean reject
        # (and never a non-format exception anywhere).
        saw_flag_error = False
        for index in range(len(sum2_blob)):
            mutated = bytearray(sum2_blob)
            mutated[index] |= 0x80
            try:
                load_cache(bytes(mutated))
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
        with pytest.raises(SummaryFormatError, match="trailing"):
            load_cache(blob + b"\x00")

    def test_record_section_survives_every_byte_flip(self):
        blob = dump_cache(_RECORDS_ONLY)
        section = len(blob) - len(
            dump_cache(dataclasses.replace(_RECORDS_ONLY, frontend_records={}))
        )
        for index in range(len(blob) - section - 4, len(blob)):
            for bit in (0x01, 0x80):
                mutated = bytearray(blob)
                mutated[index] ^= bit
                try:
                    load_cache(bytes(mutated))
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
        assert empty.endswith(struct.pack("<I", 0))
        blob = (
            empty[:-4] + struct.pack("<I", 1)
            + struct.pack("<H", 1) + b"f" + body
        )
        with pytest.raises(SummaryFormatError, match=message):
            load_cache(blob)

    def test_wrong_magic_each_format(self, sum1_blob, sum2_blob):
        with pytest.raises(SummaryFormatError, match="magic"):
            load_cache(sum1_blob)
        with pytest.raises(SummaryFormatError, match="magic"):
            load_summaries(sum2_blob)


_RECORDS_ONLY = SummaryCache(
    image_fingerprint=7,
    result=SummarySet(summaries={}),
    frontend_records={
        "leaf": FrontendRecord(2**64 - 1, 1, (), ()),
        "caller": FrontendRecord(
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
def _summary_caches(draw):
    result = draw(_analysis_results())
    names = sorted(result.summaries)
    return SummaryCache(
        image_fingerprint=draw(
            st.integers(min_value=0, max_value=2**64 - 1)
        ),
        result=result,
        routine_fingerprints={
            name: draw(st.integers(min_value=0, max_value=2**64 - 1))
            for name in names
        },
        externally_callable=set(
            draw(st.lists(st.sampled_from(names), max_size=4)) if names else []
        ),
        # Keyed independently of the summaries: any routine name.
        frontend_records=draw(
            st.dictionaries(_NAMES, _frontend_records(), max_size=3)
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
