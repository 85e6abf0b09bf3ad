"""The sparse structural kernels against their dense reference definitions.

``reference`` holds the definitions the product code replaced: the
submatrix-copying peel, the rescanning greedy closure, the dense graph
scan, the dense row sums, and the subset checks that analyze a copied
block a second time.  Inputs here are non-dyadic, so every row
sum rounds, and rows sit within an ulp of equality; agreement is checked
bit for bit, at tolerances from 0 to 0.2.  There is one exception.
The interwoven decision must agree with the greedy closure and with
exhaustive search, but its certificate lists members by distance out of
the subset, which the closure's smallest-index-first order need not.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from array import array
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import ddh
import ddh.cli
import ddh.hmatrix
import ddh.sparse_lu
import reference
from ddh import (
    DominanceClass,
    EnsembleSpec,
    IndexSet,
    InconsistencyError,
    Matrix,
    Peel,
    PeelReason,
    RandomStream,
    SHReport,
    SparsePattern,
    classify_dominance,
    comparison_rows,
    find_ssdd_set_dd,
    interwoven_from_peeling,
    is_h_dd,
    is_interwoven,
    layers_out_of,
    non_sdd_rows,
    peel_levels,
    peel_outcome,
    principal_submatrix,
    random_dd_matrix,
    s_h_check,
    s_h_from_peel,
    s_sdd_check,
    chain_condition,
)
from ddh.cli import analyze_matrix, emit_json, real_from_json, verify_report
from ddh.core import _pointers, row_strictness
from helpers import (
    NON_DYADIC_EQUALITY,
    brute_force_interwoven,
    dd_matrices,
    is_chain_certificate,
    is_valid_scaling,
    non_dyadic_equality_matrix,
    pattern_rows,
    proper_subsets,
    record_gth_factors,
    split_row_sums,
)

TOLERANCES = (0.0, 1e-12, 1e-3, 0.2)

_OFF_DIAGONAL = st.one_of(
    st.just(0.0),
    st.just(0.0),
    st.just(1e-20),
    st.just(1e-16),  # absorbed by 1.0 when added after it, not when added first
    st.just(2.5e-16),  # one ulp of 1.0 when added after it
    st.just(1.0),
    st.floats(min_value=1e-3, max_value=1.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def rounded_matrices(draw, max_n=10):
    """Non-dyadic magnitudes whose rows sit on, near or across equality.

    A diagonal one ulp off the left-to-right row sum sits where that
    sum and the exact one can give different verdicts.
    """
    n = draw(st.integers(1, max_n))
    mags = np.array([[draw(_OFF_DIAGONAL) for _ in range(n)] for _ in range(n)])
    for i in range(n):
        r = 0.0
        for j in range(n):
            if j != i:
                r += mags[i, j]
        mags[i, i] = draw(st.sampled_from((
            r, r, math.nextafter(r, math.inf), math.nextafter(r, -math.inf),
            r - 1e-18, r + 1e-13, r + 2e-3, r + 0.5, r - 1e-3, 0.0,
        )))
    signs = np.array([[draw(st.sampled_from((1.0, -1.0))) for _ in range(n)] for _ in range(n)])
    return Matrix(signs * mags)


def _assert_interwoven_decision(A, S):
    """Decision as the greedy closure and exhaustive search; a distance-ordered certificate."""
    cert = is_interwoven(A, S)
    assert (cert is None) == (reference.is_interwoven(A, S) is None)
    assert (cert is None) == (not brute_force_interwoven(A, S))
    assert cert is None or is_chain_certificate(A, cert)


def _outcome(fn, *args):
    """Result of ``fn`` or the type of the error it raised."""
    try:
        return fn(*args)
    except (ValueError, InconsistencyError) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(rounded_matrices(), st.data())
def test_kernels_match_reference_bit_for_bit(A, data):
    assert _hexes(split_row_sums(A, IndexSet.full(A.n))[0]) == _hexes(reference.deleted_row_sums(A))
    assert pattern_rows(A) == reference.adjacency(A)
    S = data.draw(proper_subsets(A.n))
    inside, _ = split_row_sums(A, S)
    for i in range(A.n):
        assert inside[i].hex() == reference.partial_row_sum(A, i, S).hex()
    _assert_interwoven_decision(A, S)
    for tol in TOLERANCES:
        T = non_sdd_rows(A, tol)
        if not (T.is_full and len(T) > 1):
            _assert_interwoven_decision(A, T)
        expected = _outcome(reference.interwoven_from_peeling, A, tol)
        if expected is not ValueError:  # dominance is the caller's precondition
            assert interwoven_from_peeling(peel_levels(A, tol)) == expected
        assert reference.verdict_key(_outcome(is_h_dd, A, tol)) == reference.verdict_key(
            _outcome(reference.is_h_dd, A, tol)
        )


def _sparse_lu_solves(A: Matrix, S: IndexSet) -> bool:
    """Whether ``s_h_check`` solves A's inner block on S with ``sparse_lu``, not by the dense LU.

    That is by the reachability pass, when the right-hand side is the
    block's gap vector, and otherwise by GTH elimination.
    """
    if not 0 < len(S) < A.n:
        return False
    rows = comparison_rows(principal_submatrix(A, S))
    _, out_s = split_row_sums(A, S)
    b = [out_s[i] for i in S.members]
    admitted = ddh.sparse_lu._admit(rows)
    if admitted is not None and admitted[1] == b:
        return True
    fac = ddh.sparse_lu.gth_factor(rows)
    if fac is None:
        return False
    x = ddh.sparse_lu._substitute(fac, b)
    return fac.singular or all(map(math.isfinite, x))


@settings(max_examples=300, deadline=None)
@given(rounded_matrices(), st.data())
def test_subset_checks_match_reference(A, data):
    """Every SHReport field, reals by their bits, and every raised error type.

    Arbitrary subsets of non-H matrices are where the inner verdict is
    not implied by A's own scaling, so the subsets are drawn freely.  A
    dominant inner block, which the reachability pass or GTH elimination
    solves, is compared with the reference's exact solve: lhs None
    exactly where the block is singular, and otherwise within 1e-12 of
    the exact lhs, relatively;
    ``satisfied`` may then differ only where lhs and b2 are that close.
    Any other block is compared with the reference's dense solve.
    """
    S = data.draw(proper_subsets(A.n))
    for tol in TOLERANCES:
        expected = _outcome(reference.find_ssdd_set_dd, A, tol)
        if expected is not ValueError:  # dominance is the caller's precondition
            assert find_ssdd_set_dd(A, peel_levels(A, tol)) == expected
        T = non_sdd_rows(A, tol)
        for subset in (S, T):
            got = _outcome(s_h_check, A, subset, tol)
            exact = _sparse_lu_solves(A, subset)
            expected = _outcome(reference.s_h_check, A, subset, tol, exact)
            if exact:
                event("sparse_lu")
                same = dict(lhs=None, satisfied=False)
                assert reference.sh_key(got._replace(**same)) == reference.sh_key(
                    expected._replace(**same)
                )
                assert (got.lhs is None) == (expected.lhs is None)
                if got.lhs is not None:
                    assert abs(got.lhs - expected.lhs) <= 1e-12 * expected.lhs
                    if got.lhs != got.b2:  # only a b2 rounded onto lhs hides the exact order
                        assert got.satisfied == (got.inner_h and got.lhs < got.b2)
                    tie = abs(got.lhs - got.b2) <= 1e-12 * got.lhs
                    assert got.satisfied == expected.satisfied or tie
            else:
                assert reference.sh_key(got) == reference.sh_key(expected)


# parts of complex entries: the real ones above, negated, and values whose
# modulus is near overflow yet finite (|1e308 + 1e308 i|), is subnormal, or
# is exact (3, 4, 5)
_PART = st.one_of(
    _OFF_DIAGONAL, _OFF_DIAGONAL.map(lambda x: -x), st.sampled_from((1e308, 5e-324, 3.0, 4.0))
)


@st.composite
def complex_matrices(draw, max_n=8):
    """Complex entries with independent parts, about half of them zero."""
    n = draw(st.integers(1, max_n))
    entries = np.array(
        [[complex(draw(_PART), draw(_PART)) for _ in range(n)] for _ in range(n)]
    )
    zero = st.booleans().map(lambda keep: 1.0 if keep else 0.0)
    return Matrix(entries * np.array([[draw(zero) for _ in range(n)] for _ in range(n)]))


@st.composite
def overflowing_matrices(draw, max_n=5):
    """Rows of large finite moduli, whose partial sums pass the float range."""
    n = draw(st.integers(2, max_n))
    big = st.sampled_from((0.0, 0.0, 1.0, 1e308, 1.5e308, sys.float_info.max, 2.0**1023))
    mags = np.array([[draw(big) for _ in range(n)] for _ in range(n)])
    for i in range(n):
        mags[i, i] = draw(st.sampled_from((0.0, 1.0, 1e308, sys.float_info.max)))
    return Matrix(mags)


@st.composite
def graded_matrices(draw, max_n=6):
    """Moduli from subnormal to near overflow, so gap ratios leave the normal range."""
    n = draw(st.integers(2, max_n))
    scale = st.sampled_from((0.0, 5e-324, 1e-310, 2.0**-1000, 1e-300, 1.0, 2.0**1000, 1e300))
    return Matrix(np.array(
        [[draw(scale) * draw(st.floats(0.5, 2.0)) for _ in range(n)] for _ in range(n)]
    ))


@st.composite
def sparse_matrices(draw, max_n=12):
    """At most two off-diagonals per row, each row's gap positive, zero or negative.

    Most rows then touch no column of a small subset, where the
    product reads a row's ratio off its tol-0 row code, and most members
    of a subset have no entry outside it.
    """
    n = draw(st.integers(1, max_n))
    mags = np.zeros((n, n))
    for i in range(n):
        for j in draw(st.lists(st.integers(0, n - 1), unique=True, max_size=2)):
            if j != i:
                mags[i, j] = draw(_OFF_DIAGONAL.filter(bool))
        r = mags[i].sum()
        mags[i, i] = draw(st.sampled_from((r, r, r + 0.5, 0.5 * r, math.nextafter(r, -math.inf))))
    return Matrix(mags)


def _small_subsets(n: int):
    """Nonempty subsets of at most a third of {0..n-1}: most rows outside touch none of them."""
    members = st.sets(st.integers(0, n - 1), min_size=1, max_size=max(1, n // 3))
    return members.map(lambda m: IndexSet.from_indices(m, n))


def _uncoupled_gaps(A: Matrix, S: IndexSet) -> set[int]:
    """The tol-0 row codes of the rows outside S with no entry in a column of S."""
    mod = A.modulus
    codes = row_strictness(A)
    return {codes[j] for j in range(A.n) if j not in S and not any(mod[j, i] for i in S)}


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(rounded_matrices(), complex_matrices(), overflowing_matrices(), graded_matrices(),
              sparse_matrices()),
    st.data(),
)
def test_satisfied_is_decided_against_every_exact_ratio(A, data):
    """b2 and the note as the reference's, and ``below(lhs)`` iff lhs is below every exact ratio.

    The product forms a ``Fraction`` only for a ratio below 2^-1000 or
    within 2^-40 of lhs; the reference forms every one.  Each lhs tried
    is 0, 1, inf, NaN, or a float ratio or one of its neighbours.  S is
    T or any proper subset, strict rows included.  A row outside S that
    touches no column of S has ratio +inf, 0 or -inf by its gap's sign,
    which the product takes from the row codes: the sparse matrices
    make such rows common, with each sign.
    """
    T = non_sdd_rows(A)
    S = data.draw(st.one_of(st.just(T), proper_subsets(A.n), _small_subsets(A.n)))
    assume(0 < len(S) < A.n)
    for code in _uncoupled_gaps(A, S):
        event(f"an outside row touches no column of S, row code {code}")
    b2, below, note = ddh.hmatrix._outside_ratios(A, S)
    expected_b2, exact, expected_note = reference.outside_ratios(A, S)
    assert (b2.hex(), note) == (expected_b2.hex(), expected_note)
    tried = {0.0, 1.0, math.inf, math.nan}
    for v in map(reference._rounded, exact):
        tried |= {v, math.nextafter(v, math.inf), math.nextafter(v, -math.inf)}
    for lhs in tried:
        if lhs >= 0.0 or math.isnan(lhs):  # lhs is a largest modulus
            assert below(lhs) == all(lhs < v for v in exact), lhs


#: S = {0, 1}: rows 2 and 3 touch no column of S, and row 4's sums over S
#: and outside S both pass the float range, so its ratio is -inf / inf, NaN
_NAN_RATIO = np.diag([1.0, 1.0, 1.0, 1.0, 0.0])
_NAN_RATIO[4, :4] = sys.float_info.max


@pytest.mark.parametrize(
    "entries, members, b2, note",
    [
        ([[1.0, 1.0], [0.0, 2.0]], (0,), math.inf, None),
        ([[1.0, 1.0], [0.0, 0.0]], (0,), 0.0,
         "b2 degenerate: some outside row has zero gap and zero coupling"),
        ([[1.0, 1.0, 0.0], [0.0, 0.5, 1.0], [0.0, 0.0, 1.0]], (0,), -math.inf, None),
        (_NAN_RATIO, (0, 1), math.inf, None),
    ],
    ids=["strict", "zero-gap", "violated", "nan-after-strict"],
)
def test_uncoupled_rows_take_their_ratio_from_the_row_code(entries, members, b2, note):
    """The first row outside S touches no column of S, so its ratio is its gap's sign over 0.

    In the last case row 4's ratio is NaN.  ``min`` keeps a NaN only in
    first place, and row 2's +inf stands before it.
    """
    A = Matrix(entries)
    S = IndexSet(members, A.n)
    got, below, got_note = ddh.hmatrix._outside_ratios(A, S)
    expected_b2, exact, expected_note = reference.outside_ratios(A, S)
    assert (got.hex(), got_note) == (b2.hex(), note) == (expected_b2.hex(), expected_note)
    assert below(1.0) == all(1.0 < v for v in exact)


def _hexes(values) -> list[str]:
    return [float(x).hex() for x in values]


@settings(max_examples=300, deadline=None)
@given(st.one_of(rounded_matrices(), complex_matrices(), overflowing_matrices()), st.data())
def test_buffer_kernels_match_numpy_bit_for_bit(A, data):
    """The plain-loop kernels over the ``array`` buffers against numpy versions of them.

    A complex modulus must be ``np.hypot`` of the parts, bit for bit.
    Each row sum is the exact sum of the entries numpy selects, rounded
    once: rows past the float range give inf, and an empty half +0.0.
    """
    diag_mod, moduli = reference.vectorized_moduli(A)
    assert _hexes(A.diagonal_modulus) == _hexes(diag_mod)
    assert _hexes(A.pattern.data) == _hexes(moduli)
    whole = split_row_sums(A, IndexSet.full(A.n))[0]
    assert _hexes(whole) == _hexes(reference.vectorized_deleted_row_sums(A))
    S = data.draw(proper_subsets(A.n))
    for got, expected in zip(split_row_sums(A, S), reference.vectorized_split_row_sums(A, S)):
        assert _hexes(got) == _hexes(expected)
    if len(S):
        sub = principal_submatrix(A, S)
        diag, rows, cols, values = reference.vectorized_principal_submatrix(A, S)
        assert np.asarray(sub.diagonal).tobytes() == diag.tobytes()
        assert reference._stored_rows(sub).tolist() == rows.tolist()
        assert sub.pattern.indices.tolist() == cols.tolist()
        assert np.asarray(sub.values).tobytes() == values.tobytes()
    pairs = [(i, j) for i in range(A.n) for j in range(A.n)]
    rows, cols = [i for i, _ in pairs], [j for _, j in pairs]
    assert A.pattern.has_edges(rows, cols) == reference.vectorized_has_edges(A, rows, cols).tolist()


@st.composite
def near_ties(draw):
    """[[g_0, c_0], [c_1, g_1]] with g_1 within two ulps of c_0 c_1 / g_0.

    On S = {0} the cross test g_0 g_1 > c_0 c_1 then turns on the last
    bits of the two products.  One g_0 in ten is the largest float, so
    g_1 is tiny, at times subnormal.
    """
    c0, c1, g0 = (draw(st.floats(0.1, 10.0)) for _ in range(3))
    if draw(st.integers(0, 9)) == 0:
        g0 = sys.float_info.max
    g1 = c0 * c1 / g0
    for _ in range(draw(st.integers(0, 2))):
        g1 = math.nextafter(g1, draw(st.sampled_from((math.inf, -math.inf))))
    return Matrix([[g0, c0], [c1, g1]])


@settings(max_examples=300, deadline=None)
@given(st.one_of(rounded_matrices(max_n=8), complex_matrices(max_n=6), near_ties()), st.data())
def test_s_sdd_check_is_the_exact_pairwise_test(A, data):
    """``s_sdd_check``'s test against one inside row per outside row is the test over every pair.

    Rounded rows and near ties put products within an ulp of each other;
    complex entries and near ties bring moduli near the ends of the
    float range.
    """
    assume(A.n > 1)
    members = data.draw(st.lists(st.integers(0, A.n - 1), min_size=1, max_size=A.n - 1, unique=True))
    S = IndexSet((0,), 2) if A.n == 2 else IndexSet.from_indices(members, A.n)
    passes = s_sdd_check(A, S)
    event(f"passes: {passes}")
    assert passes == reference.s_sdd_check(A, S)


def _sh_forgeries(sh: dict):
    """A report's ``sh`` object, then forgeries of each of its fields."""
    yield sh
    if sh["lhs"] is not None:
        yield {**sh, "lhs": sh["lhs"] + 1e-6}
        yield {**sh, "lhs": sh["lhs"] - 1e-6}
    yield {**sh, "lhs": None} if sh["inner_h"] else {**sh, "lhs": 1.0}
    yield {**sh, "satisfied": not sh["satisfied"]}
    yield {**sh, "inner_h": not sh["inner_h"]}
    b2 = real_from_json(sh["b2"])
    if math.isfinite(b2):
        yield {**sh, "b2": b2 + 1e-6 * max(1.0, abs(b2))}


def _sh_on_t(rep: SHReport) -> dict:
    """``rep`` as a report's ``sh`` on T reads back: its subset is null, meaning T."""
    fields = {k: getattr(rep, k) for k in ("lhs", "b2", "satisfied", "inner_h", "note")}
    return json.loads(emit_json({"subset": None, **fields}))


def _no_match(A, S, tol=0.0) -> SHReport:
    """A dense result that no stored ``sh`` matches: its b2 is NaN."""
    return SHReport(subset=S, lhs=None, b2=math.nan, satisfied=False, inner_h=False)


def _verdicts(report: dict, A, branch: str = "product") -> list[tuple[str, bool]]:
    """``verify_report``'s pass or fail per check.

    ``branch`` "dense" forces ``s_h_check``, also on T; "no-solve" lets only
    ``s_h_from_peel`` pass ``sh``; "product" patches neither.
    """
    patches = {
        "dense": ("s_h_from_peel", lambda A, peel: s_h_check(A, peel.t_set)),
        "no-solve": ("s_h_check", _no_match),
    }
    with contextlib.ExitStack() as stack:
        if branch in patches:
            stack.enter_context(mock.patch.object(ddh.cli, *patches[branch]))
        return [(name, ok) for name, ok, _ in verify_report(report, A)]


def _dominant(A: Matrix) -> Matrix:
    """A with each violated row's diagonal raised to the smallest float not below its exact row sum.

    That row is an exact equality wherever its sum is a float, and
    strict by less than an ulp otherwise.
    """
    entries = A.entries.copy()
    for i, code in enumerate(reference.exact_row_codes(A)):
        if code < 0:
            total = -reference.fraction_gap(0.0, [float(v) for j, v in enumerate(A.modulus[i]) if j != i and v])
            d = float(total)
            entries[i, i] = d if d >= total else math.nextafter(d, math.inf)
    return Matrix(entries)


@settings(max_examples=200, deadline=None)
@given(st.one_of(rounded_matrices().map(_dominant), dd_matrices(min_n=2)))
def test_sh_off_the_peel_passes_and_fails_as_the_dense_check(A):
    """The product's ``sh`` check against the dense recomputation, on reports and forgeries.

    On T at tol 0 the product's check is the no-solve one.  It must fail
    every forgery and pass the report, as the dense check does:
    ``analyze`` writes ``s_h_from_peel``'s fields, reals bit for bit.
    """
    T = non_sdd_rows(A)
    assume(classify_dominance(A).is_dd and 0 < len(T) < A.n)
    analyzed = _outcome(analyze_matrix, A)
    assume(analyzed is not InconsistencyError)  # analyze emits no report then
    report = json.loads(emit_json(analyzed[0]))
    stored = report["sh"]
    assert stored == _sh_on_t(s_h_from_peel(A, peel_levels(A)))
    for k, sh in enumerate(_sh_forgeries(stored)):
        forged = {**report, "sh": sh}
        dense = _verdicts(forged, A, "dense")
        assert _verdicts(forged, A) == _verdicts(forged, A, "no-solve") == dense
        assert dict(dense)["sh"] == (k == 0)


@pytest.mark.parametrize(
    "entries, t_set, is_h",
    [
        # row 1 is an equality only after rounding: 1 + 1e-20 rounds to 1, and
        # exactly it exceeds its diagonal
        ([[1.0, 1.0, 1e-20], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], (0, 1), None),
        # row 1 rounds 0.1 + 0.2 to its diagonal, which exactly exceeds the sum
        ([[0.1 + 0.2, 0.1, 0.2], [0.7, 0.7, 0.0], [0.0, 0.0, 1.0]], (1,), True),
    ],
    ids=["rounded-equality", "non-dyadic-h"],
)
def test_rows_equal_only_after_rounding_are_classified_exactly(entries, t_set, is_h):
    """A row whose left-to-right sum equals its diagonal takes its exact class.

    The first matrix is then not dominant, so its ``sh`` comes from the
    solve; the second is an H-matrix whose ``sh`` is read off the peel.
    Either report passes every check, on every branch of the ``sh`` check.
    """
    A = Matrix(entries)
    assert non_sdd_rows(A).members == t_set
    report, problems = analyze_matrix(A)
    report = json.loads(emit_json(report))
    assert problems == [] and report["is_h"] is is_h
    if is_h is None:
        assert report["dominance_class"] == "NotDD"
        assert report["sh"] == {"subset": None, "lhs": None, "b2": "Infinity", "satisfied": False,
                                "inner_h": False, "note": "inner comparison block is singular"}
    else:
        assert s_h_from_peel(A, peel_levels(A)) == s_h_check(A, non_sdd_rows(A))
        assert report["sh"]["lhs"] == 1.0 and report["sh"]["satisfied"] is True
    assert _verdicts(report, A) == _verdicts(report, A, "dense")
    assert all(ok for _, ok in _verdicts(report, A))


@pytest.mark.parametrize(
    "entries",
    [
        # graded dyadic rows: the dense LU put lhs 6e-8 off its exact value 1
        [[2.6702880859375e-05, 0.0, 2.6702880859375e-05, 0.0],
         [5.340576171875e-05, 7.000053822994232, 7.0, 4.172325134277344e-07],
         [2.288818359375e-05, 0.0009765625, 0.00099945068359375, 0.0],
         [0.0, 0.0, 0.0546875, 1.0546875]],
        # the dense LU's pivot threshold called the H block [[0.25, 0], [-1e-20, 1e-20]] singular
        [[1.5, 1.0, 1e-16], [0.25, 0.25, 0.0], [0.0, 1e-20, 1e-20]],
    ],
    ids=["lhs-off-1", "h-block-called-singular"],
)
def test_where_the_analyze_lu_strays_verify_passes_as_before(entries):
    """Where the dense LU strayed, the reachability pass finds the exact lhs of 1; every check passes."""
    A = Matrix(entries)
    report, problems = analyze_matrix(A)
    report = json.loads(emit_json(report))
    assert report["is_h"] is True and s_h_from_peel(A, peel_levels(A)).lhs == 1.0
    assert problems == [] and report["sh"]["lhs"] == 1.0
    for branch in ("product", "dense", "no-solve"):
        assert all(ok for _, ok in _verdicts(report, A, branch))


def test_where_only_the_reference_solve_fails_the_peel_still_decides():
    # [[1, 1], [0, 1e-320]] peels to H, while the reference's dense solve of
    # M d = 1 fails; the verdict needs no solve and matches the reference
    # peel field for field.
    A = Matrix([[1.0, 1.0], [0.0, 1e-320]])
    assert _outcome(reference.scaling_certificate, A) is InconsistencyError
    got, expected = is_h_dd(A), reference.is_h_dd(A)
    assert got.is_h and reference.verdict_key(got) == reference.verdict_key(expected)
    forged = got._replace(peel_trace=())
    assert reference.verdict_key(forged) != reference.verdict_key(expected)


def test_subnormal_inner_block_is_h_without_a_scaling_solve():
    # The 1x1 block [5e-324] is nonsingular, so H, though its dense
    # scaling 1/5e-324 overflows: the peel decides it, as in the reference.
    A = Matrix([[-1.002, -1.0], [0.0, -5e-324]])
    S = IndexSet((1,), 2)
    assert _outcome(reference.scaling_certificate, principal_submatrix(A, S)) is InconsistencyError
    rep = s_h_check(A, S)
    assert rep.inner_h and rep.satisfied
    assert rep.lhs == 0.0 and rep.b2 == 1.002
    assert reference.sh_key(rep) == reference.sh_key(reference.s_h_check(A, S))


def test_row_sums_are_exact_sums_rounded_once():
    # Added left to right, 1.0 absorbs each 1e-16; exactly, the two reach
    # its last place.  Each half is its Fraction sum, rounded once.
    one_up = math.nextafter(1.0, math.inf)
    A = Matrix([[2.0, 1.0, 1e-16, 1e-16], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert split_row_sums(A, IndexSet.full(4))[0][0] == one_up
    inside, outside = split_row_sums(A, IndexSet((1,), 4))
    assert (inside[0], outside[0]) == (1.0, 2 * 1e-16)  # doubling is exact
    assert math.copysign(1.0, split_row_sums(A, IndexSet.full(4))[1][0]) == 1.0  # empty: +0.0
    # numpy's pairwise sum regroups eight or more terms; the exact sum has no order
    row = [0.0, 1.0] + [1e-16] * 8
    B = Matrix(np.diag([2.0] * 10) + np.array([row] + [[0.0] * 10] * 9))
    assert split_row_sums(B, IndexSet.full(10))[0][0] == float(sum(map(Fraction, row))) > 1.0
    # partial sums past the float range are added as Fractions
    big = sys.float_info.max
    C = Matrix([[1.0, big, 2.0**970], [0, 1, 0], [0, 0, 1]])
    assert split_row_sums(C, IndexSet.full(3))[0][0] == math.inf  # a tie, rounded to even
    D = Matrix([[1.0, big, 2.0**969], [0, 1, 0], [0, 0, 1]])
    assert split_row_sums(D, IndexSet.full(3))[0][0] == big


def test_peel_retests_with_exact_restricted_sums():
    # Row 0 is an exact equality: 1 + 3 2^-54 + 2^-54 is one_up.  Over the
    # columns of T its sum, 1 + 3 2^-54, rounds up to one_up, so a
    # left-to-right re-test never made it strict and the peel stalled with
    # the chain condition holding.  Its exact gap there is 2^-54 > 0, so
    # it peels first and rows 1 and 2 follow along their chains, which
    # prove H.  (The margin is below an ulp, so a scaling solve fails.)
    one_up = math.nextafter(1.0, math.inf)
    A = Matrix([
        [one_up, 1.0, 3 * 2.0**-54, 2.0**-54],
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 1.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    assert split_row_sums(A, IndexSet((0, 1, 2), 4))[0][0] == one_up
    assert non_sdd_rows(A).members == (0, 1, 2) and not chain_condition(A).stalled
    assert peel_levels(A).levels == ((0,), (1,), (2,))
    assert layers_out_of(A, non_sdd_rows(A), 0.0) == peel_levels(A)[1:]  # the re-tested walk
    assert is_h_dd(A).is_h and reference.is_h_dd(A).peel == peel_levels(A)
    assert _outcome(reference.scaling_certificate, A) is InconsistencyError
    cert = interwoven_from_peeling(peel_levels(A))
    assert cert.p_seq == (0, 1) and cert.leftover == 2
    assert cert == reference.interwoven_from_peeling(A)


#: the rounding repro, [[1, 1, 1e-20], ...]: chain true, peel stalled under left-to-right sums
ROUNDING_REPRO = [[1.0, 1.0, 1e-20], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
#: row 0 is an exact equality whose sum over T = {0, 1, 2} exceeds its diagonal by 2^-54
#: exactly, while left to right it rounds to 1: the exact peel takes all of T at level 1
WHOLE_T_AT_LEVEL_ONE = [
    [1.0, 0.5, 0.5 - 2.0**-54, 2.0**-54], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1],
]
#: 0.25 - 2^-55: an outside row of T = {0} with 0.5, 0.25 and E beside a diagonal of 1 has the
#: exact gap 2^-55, which ``diag - r_out`` rounded to 0
E = 0.25 - 2.0**-55
#: row 1 has no entry in T = {0}: its ratio 2^-55 / 0 is +inf, not the degenerate 0 / 0
ZERO_GAP_NOTED = [[1, 1, 0, 0, 0], [0, 1, 0.5, 0.25, E], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
                  [0, 0, 0, 0, 1]]
#: row 1's ratio is (0.5 + 2^-55) / 0.5 = 1 + 2^-54, which rounds to 1 = lhs
B2_ROUNDED_ONTO_LHS = [[1, 1, 0, 0], [0.5, 1, 0.25, E], [0, 0, 1, 0], [0, 0, 0, 1]]


@settings(max_examples=300, deadline=None)
@given(st.one_of(rounded_matrices(), complex_matrices(), overflowing_matrices()))
@example(Matrix(ROUNDING_REPRO))
@example(Matrix(WHOLE_T_AT_LEVEL_ONE))
def test_row_strictness_is_the_exact_classification(A):
    """Every row code at every tol is the sign of the row's ``Fraction`` gap.

    Rounded rows sit within an ulp of equality, complex moduli are
    ``hypot``'s, some near overflow, and overflowing rows take the
    ``Fraction`` path of ``core.exact_gap``.
    """
    for tol in TOLERANCES:
        assert row_strictness(A, tol).tolist() == reference.exact_row_codes(A, tol)
        assert classify_dominance(A, tol) is reference.classify_dominance(A, tol)


@settings(max_examples=300, deadline=None)
@given(st.one_of(sparse_matrices(), rounded_matrices()), st.data())
def test_traversal_is_the_complement_seeded_reference(A, data):
    """``layers_out_of`` against the traversal seeded from every column outside S.

    The product finds level one by scanning S's own rows; the reference
    through the transposes of the complement.  Levels and next hops must
    match bit for bit with no re-test and with the exact-gap re-test at
    tol 0 and above, on T and on any proper subset, including members
    with no entry outside S.
    """
    tol = data.draw(st.sampled_from((None,) + TOLERANCES))
    S = data.draw(st.one_of(st.just(non_sdd_rows(A, tol or 0.0)), proper_subsets(A.n)))
    assume(not S.is_full)
    mod = A.modulus
    if any(not any(mod[i, j] for j in range(A.n) if j not in S and j != i) for i in S):
        event("a member of S has no entry outside S")
    assert layers_out_of(A, S, tol) == reference.layers_out_of(A, S, tol)


def _chain_layers(chain: Peel) -> tuple[tuple[int, ...], ...]:
    """The members ``chain`` reaches, grouped by the length of their chains out of T."""
    reached = [i for level in chain.levels for i in level]
    depth: dict[int, int] = {}
    for i in reached:  # by distance: each next hop is known first, or outside T
        depth[i] = depth.get(chain.next_hop[i], 0) + 1
    layers: list[list[int]] = []
    for i in reached:
        if depth[i] > len(layers):
            layers.append([])
        layers[depth[i] - 1].append(i)
    return tuple(tuple(layer) for layer in layers)


@settings(max_examples=300, deadline=None)
@given(st.one_of(rounded_matrices().map(_dominant), dd_matrices(max_n=8)))
@example(Matrix(WHOLE_T_AT_LEVEL_ONE))
@example(Matrix(ZERO_GAP_NOTED))
@example(Matrix(B2_ROUNDED_ONTO_LHS))
@example(Matrix(NON_DYADIC_EQUALITY))
@example(non_dyadic_equality_matrix(7, 10))
def test_exact_peel_is_the_chain_layering_at_tol_0(A):
    """On dominant input at tol 0 the re-tested peel's levels are the chains' distance layers.

    ``peel_levels`` skips its re-test there and returns the chains' own
    ``Peel``, so the theorem is checked on the traversal that re-tests
    every touched row by its exact gap (``layers_out_of`` at tol 0): it
    stalls exactly when the chain condition fails, so the verdict and
    the chain certificate cannot disagree.  Both name the smallest
    column one level down as a row's next hop, so the two interwoven
    certificates are equal too.
    """
    assert classify_dominance(A).is_dd
    chain = chain_condition(A)
    assert peel_levels(A) is chain
    retested = Peel(chain.t_set, *layers_out_of(A, chain.t_set, 0.0))
    assert retested.levels == chain.levels == _chain_layers(chain)
    assert retested.stalled == chain.stalled
    assert retested.next_hop == chain.next_hop
    assert interwoven_from_peeling(retested) == interwoven_from_peeling(chain)


#: at tol 1e-3 row 2 is 1e-3 short of dominance and T = {1, 2} peels in one level, yet the
#: cross test fails: the report may not name T as its SSDD set
SSDD_SPOILED_WITHIN_TOL = [
    [1.3019463731920935, 1.0, 0.30294637319209333],
    [0.31893734537306534, 0.6581114830748297, 0.3391741377017645],
    [0.9948371008305866, 0.28959972035800446, 1.286436821188591],
]


def test_ssdd_search_confirms_its_set():
    """``find_ssdd_set_dd`` returns no set that fails ``s_sdd_check``, with no confirm by its caller."""
    A = Matrix(SSDD_SPOILED_WITHIN_TOL)
    peel = peel_levels(A, 1e-3)
    T = peel.t_set
    assert T.members == (0, 1) and peel.levels == ((0, 1),)
    assert not s_sdd_check(A, T) and not reference.s_sdd_check(A, T)
    assert find_ssdd_set_dd(A, peel) is None and reference.find_ssdd_set_dd(A, 1e-3) is None
    assert analyze_matrix(A, 1e-3)[0]["ssdd_set"] is None


@settings(max_examples=200, deadline=None)
@given(st.builds(non_dyadic_equality_matrix, st.integers(0, 2**32 - 1), st.integers(4, 10)))
@example(Matrix(NON_DYADIC_EQUALITY))
def test_sh_on_t_is_read_off_the_peel_with_no_elimination(A):
    """On T at tol 0 the subset H-condition is ``s_h_from_peel``'s, field for field.

    Exact-equality rows sum three or more non-dyadic moduli, so a
    left-to-right r_out could miss the block's gap vector by an ulp; the
    solve then eliminated, and lhs came out an ulp or two off 1.  With
    each sum exact and rounded once, r_out is the gap vector bit for bit
    and the solve is the reachability pass.  ``verify`` passes the report.
    """
    T = non_sdd_rows(A)
    assume(0 < len(T) < A.n)
    no_solve = s_h_from_peel(A, peel_levels(A))
    with mock.patch.object(ddh.sparse_lu, "gth_factor", side_effect=AssertionError("eliminated")):
        assert reference.sh_key(s_h_check(A, T)) == reference.sh_key(no_solve)
    report, problems = analyze_matrix(A)
    report = json.loads(emit_json(report))
    assert problems == [] and report["sh"] == _sh_on_t(no_solve)
    assert all(ok for _, ok, _ in verify_report(report, A))


@pytest.mark.parametrize(
    "entries, b2",
    [(ZERO_GAP_NOTED, math.inf), (B2_ROUNDED_ONTO_LHS, 1.0)],
    ids=["zero-gap-noted", "b2-rounded-onto-lhs"],
)
def test_satisfied_is_decided_exactly(entries, b2):
    """On T at tol 0 every outside row is strict, so each exact ratio exceeds 1 = lhs: ``satisfied``.

    A numerator ``diag - r_out`` rounded twice gave b2 = 0, with the
    degenerate note, on the first matrix, and ``satisfied`` false on
    both; on the second the written b2 ties lhs.
    """
    A = Matrix(entries)
    assert non_sdd_rows(A).members == (0,)
    rep = s_h_check(A, non_sdd_rows(A))
    assert (rep.lhs, rep.b2, rep.satisfied, rep.note) == (1.0, b2, True, None)
    assert reference.sh_key(rep) == reference.sh_key(s_h_from_peel(A, peel_levels(A)))
    assert reference.sh_key(rep) == reference.sh_key(reference.s_h_check(A, non_sdd_rows(A)))
    report, problems = analyze_matrix(A)
    report = json.loads(emit_json(report))
    assert problems == [] and report["sh"]["satisfied"] is True
    assert all(ok for _, ok, _ in verify_report(report, A))


@settings(max_examples=200, deadline=None)
@given(rounded_matrices())
@example(Matrix(ROUNDING_REPRO))
@example(Matrix(WHOLE_T_AT_LEVEL_ONE))
@example(Matrix(SSDD_SPOILED_WITHIN_TOL))
def test_verify_passes_every_report_analyze_writes(A):
    """Wherever ``analyze_matrix`` writes a report with no problem, ``verify_report`` passes it."""
    for tol in TOLERANCES:
        analyzed = _outcome(analyze_matrix, A, tol)
        if analyzed is InconsistencyError or analyzed[1]:
            continue
        report = json.loads(emit_json(analyzed[0]))
        failed = [(name, detail) for name, ok, detail in verify_report(report, A) if not ok]
        assert failed == [], (tol, failed)


def test_exact_peel_takes_all_of_t_at_level_one():
    """The 4 x 4 matrix whose rounded sum over T brings row 0 back to equality.

    Exactly, row 0 is strict inside T, so the first level takes all of T
    and T is the SSDD set; ``s_sdd_check`` must agree, on the same exact
    sums, or ``verify`` would fail the report.  Every row is exactly
    dominant, so the SSDD search skips the cross test, which provably
    passes.
    """
    A = Matrix(WHOLE_T_AT_LEVEL_ONE)
    T = non_sdd_rows(A)
    assert T.members == (0, 1, 2) and split_row_sums(A, T)[0][0] == 1.0
    assert peel_levels(A).levels == ((0, 1, 2),)
    assert s_sdd_check(A, T) and reference.s_sdd_check(A, T)
    with mock.patch.object(ddh.hmatrix, "s_sdd_check", side_effect=AssertionError("cross test")):
        assert find_ssdd_set_dd(A, peel_levels(A)) == T
    report, problems = analyze_matrix(A)
    report = json.loads(emit_json(report))
    assert problems == [] and report["ssdd_set"] == [1, 2, 3] and report["is_h"] is True
    assert all(ok for _, ok, _ in verify_report(report, A))


class TestPeelLevels:
    def test_ladder_levels(self):
        peel = peel_levels(Matrix([[1, 1, 0], [0, 1, 1], [0, 0, 2]]))
        assert peel.t_set.members == (0, 1)
        assert peel.levels == ((1,), (0,)) and not peel.stalled
        assert [t.members for t in reference.active_sets(peel)] == [(0, 1), (0,), ()]

    def test_stall_keeps_the_closed_block(self):
        peel = peel_levels(Matrix([[1, 1, 0], [1, 1, 0], [0, 0, 2]]))
        assert peel.levels == () and peel.stalled
        assert [t.members for t in reference.active_sets(peel)] == [(0, 1)]

    def test_sdd_has_no_levels(self):
        peel = peel_levels(Matrix([[2, 1], [1, 2]]))
        assert len(peel.t_set) == 0 and peel.levels == () and not peel.stalled

    def test_pattern_lists_off_diagonal_nonzeros_both_ways(self):
        pat = Matrix([[5, 0, -2], [3, 1, 0], [0, 4j, 7]]).pattern
        assert pat.indptr.tolist() == [0, 1, 2, 3]
        assert pat.indices.tolist() == [2, 0, 1] and pat.data.tolist() == [2.0, 3.0, 4.0]
        assert pat.t_indptr.tolist() == [0, 1, 2, 3]
        assert pat.t_indices.tolist() == [1, 2, 0]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 12).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
        )
    )
)
def test_row_pointers_by_bisect_are_the_counted_pointers(case):
    """``from_triples`` finds each row's start by bisecting the sorted rows.

    Its ``indptr`` must be byte for byte the counting pass's, which the
    transpose still uses, empty rows at either end included.
    """
    n, cells = case
    cells.sort()
    rows = array("q", [i for i, _ in cells])
    cols = array("q", [j for _, j in cells])
    pat = SparsePattern.from_triples(n, rows, cols, array("d", [1.0] * len(cells)))
    assert pat.indptr.tobytes() == _pointers(rows, n).tobytes()
    assert pat.t_indptr.tobytes() == _pointers(cols, n).tobytes()


def _chain_with_closed_pair(n: int) -> Matrix:
    """Bidiagonal chain on rows 0..n-3 ending in a strict row, plus a closed pair."""
    m = n - 2
    mags = np.zeros((n, n))
    for i in range(m - 1):
        mags[i, i] = mags[i, i + 1] = 1.0
    mags[m - 1, m - 1] = 2.0
    mags[m, m] = mags[m, m + 1] = mags[m + 1, m + 1] = mags[m + 1, m] = 1.0
    return Matrix(mags)


def test_deep_peel_copies_no_submatrix(monkeypatch):
    """Work gate: a 1998-level peel and both interwoven checks run sparse.

    The matrix is non-H (the pair never peels), so no LU runs either.
    Any dense restriction would have to go through principal_submatrix,
    and any solve through lu_solve; both are made to fail.
    """

    def refuse(*args):
        raise AssertionError("dense restriction or solve on the structural path")

    for module in (ddh, ddh.core, ddh.hmatrix, ddh.interwoven, ddh.cli):
        for name in ("principal_submatrix", "lu_solve"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    n = 2000
    A = _chain_with_closed_pair(n)
    v = is_h_dd(A)
    assert len(v.peel_trace) == 1998
    assert v.reason is PeelReason.STAGNANT_PEEL and not v.is_h
    assert v.witness.members == (n - 2, n - 1) and v.peel_trace[-1] == v.witness
    T = v.peel.t_set
    assert len(T) == n - 1
    assert is_interwoven(A, T) is None
    assert interwoven_from_peeling(v.peel) is None


def _count_calls(monkeypatch, names, home=ddh) -> dict[str, int]:
    """Count the calls of each named function of ``home``, wherever a ``ddh`` module imported it."""
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in calls:
        original = getattr(home, name)
        for module in (ddh, ddh.core, ddh.graph, ddh.hmatrix, ddh.interwoven, ddh.oracle, ddh.cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting(name, original))
    return calls


def _count_path_views(monkeypatch) -> dict[str, int]:
    """Count the reads of ``Peel.paths``, the full chains built on read (n^2/2 indices on a chain)."""
    calls = {"paths": 0}
    built = Peel.paths.fget

    def paths(self):
        calls["paths"] += 1
        return built(self)

    monkeypatch.setattr(Peel, "paths", property(paths))
    return calls


def test_analysis_reuses_its_own_structures(monkeypatch):
    """Work gate: counted solves, peels, chain passes and block copies on an H chain.

    On an order-200 bidiagonal chain every row is exactly dominant, so
    the chains prove H and no scaling is computed.  ``analyze_matrix``
    solves once, for the subset H-condition, on the comparison block's
    rows with no dense comparison matrix, and reads that exactly dominant
    block's ``inner_h`` off the solve.  It walks out of T
    (``layers_out_of``) once: A's chains, which at tol 0 are A's peel
    too (one ``Peel``, which the verdict, the interwoven certificate
    and the SSDD search read).  ``verify_report`` on a freshly built copy, as
    ``ddh verify`` meets the matrix, walks once: it decides the chain,
    the interwoven certificate and the peel from that one ``Peel``, with
    no second closure, and reads the subset H-condition off it with no
    solve and no comparison matrix (every row of T is an exact
    equality).  On the analyzed matrix itself it walks none, since the
    chains are kept with the row codes.  The peeling certificate reads
    the peel's next hops and no entry of A, and neither it nor the SSDD
    search peels or classifies again; the SSDD search copies no block.
    Neither side reads the full chain paths: the report and the verifier
    use the next hops.
    """
    calls = _count_calls(
        monkeypatch,
        ("lu_solve", "chain_condition", "principal_submatrix", "peel_levels",
         "comparison_matrix", "classify_dominance", "is_interwoven", "layers_out_of"),
    )
    paths = _count_path_views(monkeypatch)
    n = 200
    entries = np.eye(n) + np.eye(n, k=1) + np.diag([0.0] * (n - 1) + [1.0])
    A = Matrix(entries)
    report, problems = analyze_matrix(A)
    assert report["is_h"] is True and len(report["peel_trace"]) == n - 1
    assert report["sh"]["inner_h"] is True and problems == []
    assert calls["lu_solve"] == 1 and calls["chain_condition"] == 1
    assert calls["peel_levels"] == 1 and calls["comparison_matrix"] == 0
    assert calls["layers_out_of"] == 1  # A's chains, also its peel
    assert paths["paths"] == 0

    for matrix, walks in ((Matrix(entries), 1), (A, 0)):  # a fresh copy, then the kept chains
        calls.update(dict.fromkeys(calls, 0))
        results = verify_report(json.loads(emit_json(report)), matrix)
        assert all(ok for _, ok, _ in results)
        assert calls["lu_solve"] == 0 and calls["comparison_matrix"] == 0
        assert calls["chain_condition"] == 1 and calls["is_interwoven"] == 0
        assert calls["layers_out_of"] == walks  # the chains, which are the peel
        assert paths["paths"] == 0

    peel = peel_levels(A)
    calls.update(dict.fromkeys(calls, 0))
    assert find_ssdd_set_dd(A, peel) is None
    assert calls["principal_submatrix"] == 0
    monkeypatch.setattr(A, "pattern", None)  # the peeling certificate reads no entry of A
    assert interwoven_from_peeling(peel) is not None
    assert calls["peel_levels"] == 0 and calls["classify_dominance"] == 0
    assert calls["layers_out_of"] == 0


def test_report_is_linear_in_the_order(monkeypatch):
    """Work gate: an order-2000 H chain's report is O(n) bytes and reads no chain path.

    Its chains run n - 1 deep, so full paths, or every active set of the
    peel, would hold about n^2/2 indices.  The report lists T once in
    ``t_set``, then one next hop per row of T and each row of T in one
    peel level, every list on one line: about 19 bytes per row.  The one subset
    solve on T, an upper bidiagonal block whose right-hand side is its
    own gap vector, is one reachability pass: no GTH elimination, and
    no dense ``lu_factor``.
    """
    paths = _count_path_views(monkeypatch)
    factors = record_gth_factors(monkeypatch)
    solves = _count_calls(monkeypatch, ("lu_solve", "lu_factor"))
    n = 2000
    A = Matrix(np.eye(n) + np.eye(n, k=1) + np.diag([0.0] * (n - 1) + [1.0]))
    report, problems = analyze_matrix(A)
    assert report["is_h"] is True and problems == []
    assert len(emit_json(report).encode()) < 25 * n
    assert len(report["chain"]["next"]) == n - 1
    assert len(report["peel_trace"]) == n - 1
    assert sum(len(level) for level in report["peel_trace"]) == n - 1
    assert paths["paths"] == 0
    assert solves == {"lu_solve": 1, "lu_factor": 0}
    assert factors == []


def test_ensemble_subset_solve_eliminates_within_budget(monkeypatch):
    """Work gate: a solve on an order-800 ensemble matrix's T block stays within budget.

    With a right-hand side other than its gap vector (here all ones),
    T's block is eliminated.  It starts sparse, at density 0.01, and
    fills in; ``gth_factor`` hands nothing over to the dense
    ``lu_factor`` and stays under ``GTH_BUDGET`` n^2 updates.  The
    subset solve on T itself, whose right-hand side r_out is that gap
    vector, makes one ``lu_solve`` and no elimination.
    """
    factors = record_gth_factors(monkeypatch)
    A = random_dd_matrix(EnsembleSpec(n=800, density=0.01, equality_rows=0.5, seed=4))
    T = non_sdd_rows(A)
    rows = comparison_rows(principal_submatrix(A, T))
    x = ddh.sparse_lu.solve_rows(rows, [1.0] * len(T))
    assert x is not None and min(x) > 0.0  # M^-1 >= 0 has no zero row
    [fac] = factors
    assert fac is not None and not fac.singular
    assert fac.updates < ddh.sparse_lu.GTH_BUDGET * len(T) ** 2
    factors.clear()
    solves = _count_calls(monkeypatch, ("lu_solve",))
    report = s_h_check(A, T)
    assert report.inner_h and report.lhs == 1.0
    assert solves == {"lu_solve": 1} and factors == []


@settings(max_examples=200, deadline=None)
@given(rounded_matrices())
def test_peel_trace_complements_are_the_active_sets(A):
    """The trace partitions T; removing its entries in turn gives the reference's T_0, T_1, ...

    The entries are the peel's levels, then the stalled block, so the
    sets left after each removal are the active sets of the peel and the
    last one is empty.  On a zero diagonal the trace is T alone.
    """
    for tol in TOLERANCES:
        if not classify_dominance(A, tol).is_dd:
            continue
        peel = peel_levels(A, tol)
        trace, reason, _ = peel_outcome(A, peel)
        assert sum(len(part) for part in trace) == len(peel.t_set)
        left = peel.t_set.members
        remaining = [peel.t_set]
        for part in trace:
            left = tuple(i for i in left if i not in part)
            remaining.append(IndexSet(left, A.n))
        assert remaining[-1] == IndexSet.empty(A.n)
        if reason is PeelReason.ZERO_DIAGONAL:
            assert trace == (peel.t_set,)
        else:
            assert remaining[: len(peel.levels) + 1] == reference.active_sets(peel)


def test_scaling_sweeps_replace_the_dense_solve(monkeypatch):
    """Work gate: a scaling is computed only where the chains prove nothing, and then by sweeps.

    A default analysis of an exactly dominant H-matrix (the order-300
    chain; an order-400 ensemble matrix, density 0.01, half equality
    rows, peel 3 levels deep) sweeps nothing, solves for no scaling and
    makes no margin pass, and its verification makes none either: the
    chains prove H.  At tol 1e-3, [[1, 1.0005], [0, 1]] is dominant only
    within tol, so the sweeps certify it, with no solve.  A non-dominant
    H-matrix has no peel to sweep in: ``analyze --oracle``, whose oracles
    are dense anyway, solves once for its scaling and sweeps nothing.
    """
    calls = _count_calls(monkeypatch, ("scaling_certificate", "solved_scaling", "scaling_margin"))
    margins = _count_calls(monkeypatch, ("_margins",), home=ddh.hmatrix)
    n = 300
    chain = Matrix(np.eye(n) + np.eye(n, k=1) + np.diag([0.0] * (n - 1) + [1.0]))
    ensemble = random_dd_matrix(EnsembleSpec(n=400, density=0.01, equality_rows=0.5, seed=5))
    for A, depth in ((chain, n - 1), (ensemble, 3)):
        report, problems = analyze_matrix(A)
        assert report["is_h"] is True and len(report["peel_trace"]) == depth and problems == []
        assert report["scaling"] is None and margins == {"_margins": 0}
        assert calls == {"scaling_certificate": 0, "solved_scaling": 0, "scaling_margin": 0}
        assert all(ok for _, ok, _ in verify_report(json.loads(emit_json(report)), A))
        assert calls["scaling_margin"] == 0

    tolerated = Matrix([[1.0, 1.0005], [0.0, 1.0]])
    report, problems = analyze_matrix(tolerated, tol=1e-3)
    assert report["is_h"] is True and problems == []
    assert calls == {"scaling_certificate": 1, "solved_scaling": 0, "scaling_margin": 0}
    assert is_valid_scaling(tolerated, ddh.ScalingCertificate(
        array("d", report["scaling"]["d"]), report["scaling"]["margin"]))

    calls.update(dict.fromkeys(calls, 0))
    n = 40
    # doubling every other column leaves the chain H but not dominant
    skewed = Matrix(chain.entries[:n, :n] * (1.0 + np.arange(n) % 2))
    report, problems = analyze_matrix(skewed, with_oracle=True)
    assert report["dominance_class"] == "NotDD" and report["is_h"] is True and problems == []
    assert calls == {"scaling_certificate": 0, "solved_scaling": 1, "scaling_margin": 1}
    # a library caller still gets the sweeps: one, in peel order, serves the chain
    d = ddh.scaling_certificate(chain, peel_levels(chain)).d
    assert np.array_equal(d, np.arange(chain.n, 0, -1) / chain.n)


def test_generator_draws_no_scalar_stream(monkeypatch):
    """Work gate: ``random_dd_matrix`` computes its stream as arrays, never word by word.

    At order 400 it makes no ``RandomStream.next_u64`` call and no
    ``_mix64`` call; the scalar stream still goes through both wrappers.
    """
    calls = _count_calls(monkeypatch, ("_mix64",), home=ddh.oracle)
    original = RandomStream.next_u64

    def next_u64(self):
        calls["next_u64"] += 1
        return original(self)

    calls["next_u64"] = 0
    monkeypatch.setattr(RandomStream, "next_u64", next_u64)
    A = random_dd_matrix(EnsembleSpec(n=400, density=0.01, equality_rows=0.5, seed=5))
    assert A.n == 400 and calls == {"_mix64": 0, "next_u64": 0}
    RandomStream(5).next_u64()
    assert calls == {"_mix64": 1, "next_u64": 1}
