"""``regex_scan`` searches the page and answers per record.

A lowered filter selects the records ``pattern.search(record)`` matches.
For a pattern in the regular subset ``regex_scan`` gets that answer from
one page search per hit: a record with a match of its own holds a page
match starting at or before it, a page match inside one record selects
that record, and one across a record boundary has each record it
touches searched alone.  Anchors, ``\\b``/``\\B``, lookaround,
backreferences, possessive or atomic constructs and inline flags depend
on where a record starts and ends, so those patterns are searched
record by record.  The per-record comprehension below is the reference;
the pins count searches through a duck-typed pattern.
"""

from __future__ import annotations

import re
import sys

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.hardware.accelerators import regex_scan
from repro.pushdown.scan import (
    NEEDLE_PATTERN,
    RECORD_BYTES,
    RECORDS_PER_PAGE,
    pipeline_table,
)


def _per_record(data, pattern, size):
    """What ``regex_scan`` answered before it searched pages."""
    return [
        (at // size, data[at:at + size])
        for at in range(0, len(data), size)
        if pattern.search(data[at:at + size])
    ]


class CountingPattern:
    """A compiled pattern that counts its ``search`` calls."""

    def __init__(self, source: bytes) -> None:
        self.compiled = re.compile(source)
        self.pattern = self.compiled.pattern
        self.flags = self.compiled.flags
        self.searches = 0

    def search(self, *args):
        self.searches += 1
        return self.compiled.search(*args)


# ----------------------------------------------------------------------
# generated patterns: the regular subset, and constructs that must fall back
# ----------------------------------------------------------------------
ATOMS = (
    b"a", b"b", b"ab", b"1", b".", b"[ab]", b"[^a\n]", b"[]a]", b"\\d",
    b"\\w", b"\\.", b"\\n", b"\\x61",
)
QUANTIFIERS = (
    b"*", b"+", b"?", b"{2}", b"{1,3}", b"{,2}",
    b"*?", b"+?", b"??", b"{1,3}?",
)
#: Leaves whose answer depends on the bytes around the match.
CONTEXT_LEAVES = (
    b"^", b"$", b"\\A", b"\\Z", b"\\b", b"\\B", b"(?<=a)", b"(?<!b)",
)
POSSESSIVE = sys.version_info >= (3, 11)


def _seq(pair):
    (left, left_context), (right, right_context) = pair
    return left + right, left_context or right_context


def _alt(pair):
    (left, left_context), (right, right_context) = pair
    return left + b"|" + right, left_context or right_context


def _wrap(opener, closer=b")", context=False):
    """``opener inner closer`` as a strategy map."""
    return lambda part: (opener + part[0] + closer, context or part[1])


def _regular(inner):
    return st.one_of(
        st.tuples(inner, inner).map(_seq),
        st.tuples(inner, inner).map(_alt),
        st.sampled_from((b"(", b"(?:", b"(?P<g>")).flatmap(
            lambda opener: inner.map(_wrap(opener))
        ),
        st.sampled_from(QUANTIFIERS).flatmap(
            lambda quantifier: inner.map(_wrap(b"(?:", b")" + quantifier))
        ),
    )


def _contextual(inner):
    """Lookahead, scoped flags, atomic groups, backreferences and
    possessive quantifiers around a generated pattern."""
    openers = [b"(?=", b"(?!", b"(?i:", b"(?s:"]
    if POSSESSIVE:
        openers.append(b"(?>")
    shapes = [
        st.sampled_from(openers).flatmap(
            lambda opener: inner.map(_wrap(opener, context=True))
        ),
        inner.map(_wrap(b"(", b")\\1", context=True)),
    ]
    if POSSESSIVE:
        shapes.append(
            st.sampled_from((b"*+", b"++", b"?+", b"{1,2}+")).flatmap(
                lambda possessive: inner.map(
                    _wrap(b"(?:", b")" + possessive, context=True)
                )
            )
        )
    return st.one_of(*shapes)


REGULAR_LEAVES = st.sampled_from(ATOMS).map(lambda atom: (atom, False))
LEAVES = st.one_of(
    REGULAR_LEAVES,
    st.sampled_from(CONTEXT_LEAVES).map(lambda leaf: (leaf, True)),
)

#: ``(source, has_context)``: the pattern and whether it uses anything
#: outside the regular subset (a leading inline flag counts).  Half are
#: regular throughout, so the page search is exercised as often as the
#: fallback.
PATTERNS = st.one_of(
    st.recursive(REGULAR_LEAVES, _regular, max_leaves=6),
    st.tuples(
        st.sampled_from((b"", b"(?i)", b"(?s)")),
        st.recursive(
            LEAVES,
            lambda inner: st.one_of(_regular(inner), _contextual(inner)),
            max_leaves=6,
        ),
    ).map(lambda pair: (pair[0] + pair[1][0], bool(pair[0]) or pair[1][1])),
)

#: Fragments spliced into the data, most of them against a boundary.
SPLICES = (b"ab", b"aab", b"ba1", b"a1b", b"\n", b"1.a", b"abab")


@st.composite
def paged(draw):
    """Records of 1-16 bytes over a small alphabet, with fragments
    spliced in starting on, ending on or straddling a record boundary."""
    size = draw(st.integers(1, 16))
    count = draw(st.integers(0, 12))
    data = bytearray(
        draw(st.lists(
            st.sampled_from(b"ab1.x\n"), min_size=size * count,
            max_size=size * count,
        ))
    )
    for _ in range(draw(st.integers(0, 2 * count))):
        fragment = draw(st.sampled_from(SPLICES))
        at = size * draw(st.integers(0, count)) - draw(
            st.integers(0, len(fragment))
        )
        at = max(0, min(at, len(data) - len(fragment)))
        if at + len(fragment) <= len(data):
            data[at:at + len(fragment)] = fragment
    return size, bytes(data)


@given(pattern=PATTERNS, records=paged())
@settings(max_examples=600, deadline=None)
def test_page_scan_is_the_record_scan(pattern, records):
    source, has_context = pattern
    size, data = records
    try:
        counting = CountingPattern(source)
    except re.error:
        assume(False)
        return
    assert regex_scan(data, counting, size) == _per_record(
        data, counting.compiled, size
    )
    if has_context:
        # The answer depends on where a record starts and ends: searched
        # record by record, exactly once each.
        assert counting.searches == len(data) // size


# ----------------------------------------------------------------------
# search counts on the pipeline tables
# ----------------------------------------------------------------------
def test_the_needle_costs_a_search_per_hit_on_a_table_page():
    hits = 0
    for page in pipeline_table(8, 0.05, 1).pages:
        needle = CountingPattern(NEEDLE_PATTERN)
        selected = regex_scan(page, needle, RECORD_BYTES)
        assert selected == _per_record(page, needle.compiled, RECORD_BYTES)
        assert needle.searches <= len(selected) + 1
        hits += len(selected)
    assert hits > 0


def test_anchored_and_bounded_needles_search_every_record():
    page = pipeline_table(8, 0.05, 1).pages[0]
    for source in (rb"^needle", rb"needle\b"):
        pattern = CountingPattern(source)
        selected = regex_scan(page, pattern, RECORD_BYTES)
        assert selected == _per_record(page, pattern.compiled, RECORD_BYTES)
        assert selected
        assert pattern.searches == RECORDS_PER_PAGE, source
