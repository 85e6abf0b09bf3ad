"""The sparse structural kernels against their dense reference definitions.

``reference`` holds the definitions the product code replaced: the
submatrix-copying peel, the rescanning greedy closure, the dense graph
scan, the dense row sums, and the subset checks that analyze a copied
block a second time.  Inputs here are non-dyadic, so every row
sum rounds, and rows sit within an ulp of equality; agreement is checked
bit for bit, at tolerances from 0 to 0.2.
"""

from __future__ import annotations

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import ddh
import ddh.cli
import reference
from ddh import (
    IndexSet,
    InconsistencyError,
    Matrix,
    PeelReason,
    build_graph,
    deleted_row_sum,
    find_ssdd_set_dd,
    interwoven_from_peeling,
    is_h_dd,
    is_interwoven,
    non_sdd_rows,
    partial_row_sum,
    peel_levels,
    principal_submatrix,
    s_h_check,
)
from ddh.cli import analyze_matrix, emit_json, verify_report
from helpers import proper_subsets

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

    A diagonal one ulp above the left-to-right row sum is strict only
    under that accumulation order, so any other order changes a verdict.
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


def _outcome(fn, *args):
    """Result of ``fn`` or the type of the error it raised."""
    try:
        return fn(*args)
    except (ValueError, InconsistencyError) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(rounded_matrices(), st.data())
def test_kernels_match_reference_bit_for_bit(A, data):
    assert [x.hex() for x in A.deleted_row_sums] == [
        x.hex() for x in reference.deleted_row_sums(A)
    ]
    assert build_graph(A) == reference.build_graph(A)
    S = data.draw(proper_subsets(A.n))
    for i in range(A.n):
        assert partial_row_sum(A, i, S).hex() == reference.partial_row_sum(A, i, S).hex()
    assert is_interwoven(A, S) == reference.is_interwoven(A, S)
    for tol in TOLERANCES:
        T = non_sdd_rows(A, tol)
        if not (T.is_full and len(T) > 1):
            assert is_interwoven(A, T) == reference.is_interwoven(A, T)
        assert _outcome(interwoven_from_peeling, A, tol) == _outcome(
            reference.interwoven_from_peeling, A, tol
        )
        assert reference.verdict_key(_outcome(is_h_dd, A, tol)) == reference.verdict_key(
            _outcome(reference.is_h_dd, A, tol)
        )


@settings(max_examples=300, deadline=None)
@given(rounded_matrices(), st.data())
def test_subset_checks_match_reference(A, data):
    """Every SHReport field, reals by their bits, and every raised error type.

    Arbitrary subsets of non-H matrices are where the inner verdict is
    not implied by A's own scaling, so the subsets are drawn freely.
    """
    S = data.draw(proper_subsets(A.n))
    for tol in TOLERANCES:
        assert _outcome(find_ssdd_set_dd, A, tol) == _outcome(
            reference.find_ssdd_set_dd, A, tol
        )
        T = non_sdd_rows(A, tol)
        for subset in (S, T):
            got = _outcome(s_h_check, A, subset, tol)
            expected = _outcome(reference.s_h_check, A, subset, tol)
            if expected is InconsistencyError and got is not InconsistencyError:
                _assert_only_the_inner_scaling_failed(A, subset, tol, got)
            else:
                assert reference.sh_key(got) == reference.sh_key(expected)


def _assert_only_the_inner_scaling_failed(A, S, tol, got):
    """The reference's one extra failure: the scaling solve of a block the peel calls H.

    A nearly singular dominant block (a subnormal diagonal, say) peels
    to H, but its scaling vector overflows and ``is_h_dd`` raises.  The
    product reports the peel's verdict instead.
    """
    sub = principal_submatrix(A, S)
    assert _outcome(is_h_dd, sub, tol) is InconsistencyError
    assert got.inner_h and not peel_levels(sub, tol).stalled
    assert got.satisfied == (got.lhs < got.b2)


def test_subnormal_inner_block_is_h_without_a_scaling_solve():
    # The 1x1 block [5e-324] is nonsingular, so H; its scaling 1/5e-324
    # overflows, which made the old inner verdict raise.
    A = Matrix([[-1.002, -1.0], [0.0, -5e-324]])
    S = IndexSet((1,), 2)
    assert _outcome(reference.s_h_check, A, S) is InconsistencyError
    rep = s_h_check(A, S)
    assert rep.inner_h and rep.satisfied
    assert rep.lhs == 0.0 and rep.b2 == 1.002


def test_row_sums_accumulate_left_to_right():
    # Added left to right, 1.0 absorbs each 1e-16; compensated summation
    # (math.fsum, Python >= 3.12 sum()) carries them into the last place.
    assert math.fsum([1.0, 1e-16, 1e-16]) == 1.0000000000000002
    A = Matrix([[2.0, 1.0, 1e-16, 1e-16], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert deleted_row_sum(A, 0) == 1.0
    assert partial_row_sum(A, 0, IndexSet((1, 2, 3), 4)) == 1.0
    # From eight terms on, numpy's pairwise sum regroups them as well.
    row = [0.0, 1.0] + [1e-16] * 8
    assert np.sum(row) > 1.0
    B = Matrix(np.diag([2.0] * 10) + np.array([row] + [[0.0] * 10] * 9))
    assert deleted_row_sum(B, 0) == 1.0
    assert partial_row_sum(B, 0, IndexSet.full(10)) == 1.0


def test_peel_retests_with_left_to_right_restricted_sums():
    # Row 0 sums to 1 + ulp only through its last entry, in the strict
    # column 4; without it, 1.0 absorbs both 1e-16 terms and row 0 turns
    # strict.  Any other order keeps the 1e-16 terms and stalls the peel.
    # (The margin is one ulp, so the scaling solve rightly calls it singular.)
    one_up = math.nextafter(1.0, math.inf)
    A = Matrix([
        [one_up, 1.0, 1e-16, 1e-16, 2.5e-16],
        [1.0, 1.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, 1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 1.0],
    ])
    assert deleted_row_sum(A, 0) == one_up
    assert peel_levels(A).levels == ((0,), (1, 2, 3))
    assert _outcome(is_h_dd, A) is _outcome(reference.is_h_dd, A) is InconsistencyError
    cert = interwoven_from_peeling(A)
    assert cert.p_seq == (0, 1, 2) and cert.leftover == 3
    assert cert == reference.interwoven_from_peeling(A)


class TestPeelLevels:
    def test_ladder_levels(self):
        peel = peel_levels(Matrix([[1, 1, 0], [0, 1, 1], [0, 0, 2]]))
        assert peel.t_set.members == (0, 1)
        assert peel.levels == ((1,), (0,)) and not peel.stalled
        assert [t.members for t in peel.active_sets()] == [(0, 1), (0,), ()]

    def test_stall_keeps_the_closed_block(self):
        peel = peel_levels(Matrix([[1, 1, 0], [1, 1, 0], [0, 0, 2]]))
        assert peel.levels == () and peel.stalled
        assert [t.members for t in peel.active_sets()] == [(0, 1)]

    def test_sdd_has_no_levels(self):
        peel = peel_levels(Matrix([[2, 1], [1, 2]]))
        assert len(peel.t_set) == 0 and peel.levels == () and not peel.stalled

    def test_pattern_lists_off_diagonal_nonzeros_both_ways(self):
        pat = Matrix([[5, 0, -2], [3, 1, 0], [0, 4j, 7]]).pattern
        assert pat.indptr.tolist() == [0, 1, 2, 3]
        assert pat.indices.tolist() == [2, 0, 1] and pat.data.tolist() == [2.0, 3.0, 4.0]
        assert pat.t_indptr.tolist() == [0, 1, 2, 3]
        assert pat.t_indices.tolist() == [1, 2, 0] and pat.t_data.tolist() == [3.0, 4.0, 2.0]


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
    assert v.witness.members == (n - 2, n - 1)
    T = v.peel_trace[0]
    assert len(T) == n - 1
    assert is_interwoven(A, T) is None
    assert interwoven_from_peeling(A) is None


def test_analysis_reuses_its_own_structures(monkeypatch):
    """Work gate: counted solves, chain passes and block copies on an H chain.

    On an order-200 bidiagonal chain, ``analyze_matrix`` solves once for
    the scaling and once for the subset H-condition, and runs the chain
    BFS once; ``verify_report`` solves once, for the subset H-condition;
    the SSDD search copies no block.
    """
    calls = {"lu_solve": 0, "chain_condition": 0, "principal_submatrix": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in calls:
        original = getattr(ddh, name)
        for module in (ddh, ddh.core, ddh.graph, ddh.hmatrix, ddh.interwoven, ddh.cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting(name, original))

    n = 200
    A = Matrix(np.eye(n) + np.eye(n, k=1) + np.diag([0.0] * (n - 1) + [1.0]))
    report, problems = analyze_matrix(A)
    assert report["is_h"] is True and len(report["peel_trace"]) == n - 1
    assert report["sh"]["inner_h"] is True and problems == []
    assert calls["lu_solve"] == 2 and calls["chain_condition"] == 1

    calls.update(lu_solve=0, chain_condition=0, principal_submatrix=0)
    results = verify_report(json.loads(emit_json(report)), A)
    assert all(ok for _, ok, _ in results)
    assert calls["lu_solve"] == 1

    calls["principal_submatrix"] = 0
    assert find_ssdd_set_dd(A) is None
    assert calls["principal_submatrix"] == 0
