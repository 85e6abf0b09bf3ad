"""The sparse Matrix Market parser against the dense reference parser.

``reference.parse_matrix_market`` accumulates every entry line into an
n x n array; the product builds the compressed rows and the diagonal
from the same lines.  Both must agree bit for bit on every stored
array, and on the line and message of every ``ParseError``.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from ddh import IndexSet, Matrix, ParseError, parse_matrix_market
from helpers import split_row_sums

# values that make duplicates cancel (1 and -1), overflow when summed
# (1e308), underflow, or carry signed zeros; then values that fail
_NUMBERS = ["0", "-0.0", "1", "-1", "0.5", "-0.5", "3", "1e308", "-1e308", "5e-324"]
_BAD_NUMBERS = ["inf", "-inf", "nan", "x", "1_0", "\u0663"]


@st.composite
def coordinate_texts(draw):
    """Coordinate text of order 1..4 with every kind of line; a quarter are corrupted.

    A corrupted text may hold out-of-range or non-integer indices,
    non-finite or non-numeric values, numbers with ``_`` or non-ASCII
    digits, lines with a token too many, and a declared count one off.
    Any text may hold a comment with non-ASCII text and ``_``.  Duplicates are frequent at these orders.
    """
    field = draw(st.sampled_from(["real", "integer", "complex"]))
    symmetry = draw(st.sampled_from(["general", "symmetric", "hermitian"]))
    n = draw(st.integers(1, 4))
    corrupt = draw(st.integers(0, 3)) == 0
    index = st.integers(1, n)
    number = st.sampled_from(_NUMBERS)
    extra = st.just(0)
    if corrupt:
        index = st.one_of(index, st.sampled_from([0, n + 1, "a", "\u0661"]))
        number = st.one_of(number, st.sampled_from(_BAD_NUMBERS))
        extra = st.sampled_from([0, 0, 0, 1])
    tokens = 2 if field == "complex" else 1
    entry = st.tuples(index, index, extra.flatmap(
        lambda more: st.lists(number, min_size=tokens + more, max_size=tokens + more)))
    entries = draw(st.lists(entry, max_size=12))
    filler = st.sampled_from(["% a comment", "", "   ", "%another", "% caf\u00e9 \u0662 1_0"])
    lines = [f"%%MatrixMarket matrix coordinate {field} {symmetry}"]
    lines.extend(draw(st.lists(filler, max_size=2)))
    declared = len(entries) + (draw(st.sampled_from([0, -1, 1])) if corrupt else 0)
    lines.append(f"{n} {n} {declared}")
    for i, j, values in entries:
        lines.extend(draw(st.lists(filler, max_size=1)))
        lines.append(" ".join([str(i), str(j)] + values))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))


def _parsed(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return exc.line, str(exc)


def _bits(arr):
    arr = np.asarray(arr)
    return arr.dtype, arr.shape, arr.tobytes()


@settings(max_examples=600, deadline=None)
@given(coordinate_texts())
def test_parser_matches_the_dense_reference(text):
    got = _parsed(parse_matrix_market, text)
    expected = _parsed(reference.parse_matrix_market, text)
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert not isinstance(got, tuple), got
    assert got.dtype == expected.dtype
    for name in ("indptr", "indices", "data", "t_indptr", "t_indices"):
        assert _bits(getattr(got.pattern, name)) == _bits(getattr(expected.pattern, name)), name
    assert _bits(got.diagonal_modulus) == _bits(expected.diagonal_modulus)
    full = IndexSet.full(got.n)
    assert _bits(split_row_sums(got, full)[0]) == _bits(split_row_sums(expected, full)[0])
    assert _bits(got.entries) == _bits(expected.entries)


@st.composite
def row_major_texts(draw):
    """Coordinate text of order 1-8 listed in row-major order, then disturbed from a drawn line on.

    Up to that line a general file takes the parser's row-major path; the
    disturbance is one of: none, the rest shuffled, an earlier entry
    listed again, and either of those followed by a malformed line.
    Values include zeros of both signs, values that cancel when listed
    again, and complex ones; symmetric and hermitian files sum throughout.
    """
    field = draw(st.sampled_from(["real", "integer", "complex"]))
    symmetry = draw(st.sampled_from(["general", "general", "symmetric", "hermitian"]))
    n = draw(st.integers(1, 8))
    keys = sorted(draw(st.sets(st.integers(0, n * n - 1), max_size=3 * n)))
    tokens = 2 if field == "complex" else 1
    values = st.lists(st.sampled_from(_NUMBERS), min_size=tokens, max_size=tokens)
    entries = [[str(k // n + 1), str(k % n + 1), *draw(values)] for k in keys]
    cut = draw(st.integers(0, len(entries)))
    disturbance = draw(st.sampled_from(["none", "shuffled", "repeated"]))
    if disturbance == "shuffled":
        entries[cut:] = draw(st.permutations(entries[cut:]))
    elif disturbance == "repeated" and cut:
        i, j, *_ = draw(st.sampled_from(entries[:cut]))
        entries.insert(cut, [i, j, *draw(values)])
    if draw(st.booleans()):
        bad = draw(st.sampled_from([["0", "1"], ["1", str(n + 1)], ["1", "1", "x"], ["1", "1", "inf"]]))
        entries.insert(draw(st.integers(cut, len(entries))), bad + ["1"] * (2 + tokens - len(bad)))
    lines = [f"%%MatrixMarket matrix coordinate {field} {symmetry}", f"{n} {n} {len(entries)}"]
    lines.extend(" ".join(entry) for entry in entries)
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(row_major_texts())
def test_row_major_entries_parse_as_summed_ones(text):
    """The row-major path and the summing one leave the dense reference's buffers, byte for byte.

    An error, also on a line after the first out-of-order entry, has the
    reference's line number and message.
    """
    got = _parsed(parse_matrix_market, text)
    expected = _parsed(reference.parse_matrix_market, text)
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert not isinstance(got, tuple), got
    assert got.is_complex == expected.is_complex
    for name in ("diagonal", "values"):
        assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name
    for name in ("indptr", "indices", "data", "t_indptr", "t_indices"):
        assert _bits(getattr(got.pattern, name)) == _bits(getattr(expected.pattern, name)), name


@pytest.mark.parametrize(
    "text",
    [
        # duplicates that cancel, and an explicit zero, store nothing off the diagonal
        "%%MatrixMarket matrix coordinate real general\n2 2 4\n1 2 1\n1 2 -1\n2 1 0\n2 2 -0.0\n",
        "%%MatrixMarket matrix coordinate complex hermitian\n2 2 2\n2 1 1 1\n1 2 -1 1\n",
        "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n3 1 2\n1 3 -2\n",
    ],
)
def test_cancelled_entries_are_not_stored(text):
    A = parse_matrix_market(text)
    B = reference.parse_matrix_market(text)
    assert len(A.pattern.indices) == 0 == len(B.pattern.indices)
    assert _bits(A.entries) == _bits(B.entries)


def test_a_huge_declared_count_allocates_nothing():
    """Memory gate: the declared entry count sizes nothing; the count check fails."""
    text = "%%MatrixMarket matrix coordinate real general\n2 2 1000000000000\n1 1 1.0\n"
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            parse_matrix_market(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err.value.line == 4
    assert str(err.value) == "line 4: declared 1000000000000 entries but found 1"
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "line, lineno",
    [
        ("1 1 1_0.5", 4),  # float() reads 10.5
        ("1_0 1 1.0", 4),
        ("\u0662 2 1.0", 4),  # an Arabic-Indic 2, which int() reads as 2
        ("1 1 \u0661.5", 4),
        ("1 1\u00a01.5", 4),  # a no-break space between the tokens
    ],
)
def test_numbers_must_be_plain_ascii(line, lineno):
    text = f"%%MatrixMarket matrix coordinate real general\n2 2 2\n2 2 1.0\n{line}\n"
    with pytest.raises(ParseError) as err:
        parse_matrix_market(text)
    assert err.value.line == lineno
    assert str(err.value) == f"line {lineno}: size and entry lines must be ASCII, with no '_'"
    with pytest.raises(ParseError) as err:
        parse_matrix_market(text.replace("2 2 2", "2 2 \u0662"))
    assert err.value.line == 2  # the size line is checked too


def test_a_non_ascii_comment_still_parses():
    text = (
        "%%MatrixMarket matrix coordinate real general\n"
        "% caf\u00e9 \u0662 written_by_hand\n2 2 2\n  %\u00e9 \n1 1 1.5\n2 2 2.0\n"
    )
    A = parse_matrix_market(text.encode())
    assert _bits(A.entries) == _bits([[1.5, 0.0], [0.0, 2.0]])


@pytest.mark.parametrize("position", ["diagonal", "off-diagonal"])
@pytest.mark.parametrize(
    "entry, tokens",
    [
        (math.nan, "nan 0"),
        (math.inf, "inf 0"),
        (-math.inf, "-inf 0"),
        (complex(1.0, math.inf), "1 inf"),
        (complex(1.5e308, 1.5e308), "1.5e308 1.5e308"),
        (complex(1e308, 1e308), "1e308 1e308"),  # |1e308 + 1e308 i| is finite: accepted
    ],
    ids=["nan", "inf", "-inf", "infinite-imaginary-part", "infinite-modulus", "finite-modulus"],
)
def test_parser_and_matrix_refuse_the_same_entries_in_the_same_words(entry, tokens, position):
    """One numeric rule: the parser and ``Matrix(dense)`` refuse an entry alike, or both accept it."""
    dense = np.eye(2, dtype=complex)
    lines = ["1 1 1 0", "1 2 0 0", "2 2 1 0"]  # the entry goes on line 3 or 4 of the file
    k = 0 if position == "diagonal" else 1
    dense[0, k], lines[k] = entry, f"1 {k + 1} {tokens}"
    text = "\n".join(["%%MatrixMarket matrix coordinate complex general", "2 2 3", *lines]) + "\n"
    try:
        A = Matrix(dense)
    except ValueError as exc:
        with pytest.raises(ParseError) as parsed:
            parse_matrix_market(text)
        assert str(parsed.value) == f"line {k + 3}: {exc}"
        return
    parsed = parse_matrix_market(text)
    assert math.isfinite(abs(entry))
    assert _bits(parsed.pattern.data) == _bits(A.pattern.data)
    assert _bits(parsed.diagonal_modulus) == _bits(A.diagonal_modulus)
