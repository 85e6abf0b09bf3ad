import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import reference
from ddh import (
    DominanceClass,
    EnsembleSpec,
    InconsistencyError,
    Matrix,
    classify_dominance,
    comparison_matrix,
    inverse_nonneg_oracle,
    jacobi_oracle,
    jacobi_spectral_radius,
    lu_factor,
    lu_solve,
    random_dd_matrix,
    spectral_radius,
    write_matrix_market,
)
from ddh import mmio, oracle, sparse_lu
from ddh.core import exact_gap
from ddh.oracle import STREAM_BLOCK, RandomStream, derive_seed, stream_words
from helpers import count_updated_rows


class TestLu:
    def test_back_substitution(self):
        x = lu_solve([[1, -1], [0, 1]], [0, 1])
        assert np.array_equal(x, [1, 1])

    def test_identity(self):
        x = lu_solve(np.eye(3), np.array([0.0, 1.0, 0.0]))
        assert np.array_equal(x, [0, 1, 0])

    def test_rank_one_is_singular(self):
        assert lu_solve([[1, 1], [1, 1]], [1, 0]) is None

    def test_zero_matrix_is_singular(self):
        assert lu_solve([[0.0]], [1.0]) is None

    def test_multiple_rhs(self):
        M = [[2, 1], [1, 3]]
        X = lu_solve(M, np.eye(2))
        assert np.allclose(np.asarray(M) @ X, np.eye(2))

    def test_reconstruction_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            M = rng.standard_normal((n, n))
            fac = lu_factor(M)
            if fac.singular:
                continue
            L = np.tril(fac.factors, -1) + np.eye(n)
            U = np.triu(fac.factors)
            assert np.max(np.abs(M[fac.pivots] - L @ U)) <= 1e-10 * np.max(
                np.sum(np.abs(M), axis=1)
            )

    def test_near_singular_threshold(self):
        eps = 1e-14  # below the 1e-12 relative pivot threshold
        assert lu_solve([[1.0, 1.0], [1.0, 1.0 + eps]], [1.0, 1.0]) is None

    def test_a_non_finite_solution_raises(self):
        # x = 1e300 / 1e-300 overflows to inf, and so does the residual bound
        with np.errstate(over="ignore"), pytest.raises(InconsistencyError, match="not finite"):
            lu_solve(np.array([[1e-300]]), np.array([1e300]))

    def test_a_non_finite_solution_of_rows_raises(self):
        # GTH elimination overflows, and hands the block to the dense LU
        with np.errstate(over="ignore"), pytest.raises(InconsistencyError, match="not finite"):
            lu_solve([{0: 1e-300}], [1e300])

    def test_dense_block_updates_every_row(self, monkeypatch):
        """Work gate: the dense LU updates every row below each pivot, n(n - 1)/2 in all.

        It does so in blocks of rows, and the reference all at once.
        """
        updated = count_updated_rows(monkeypatch)
        n = 30
        M = np.random.default_rng(11).standard_normal((n, n))
        assert not lu_factor(M).singular
        assert sum(updated) == n * (n - 1) // 2 == 435
        updated.clear()
        reference.lu_factor(M)
        assert sum(updated) == 435


#: about half the entries are zeros of either sign, the rest span tiny, huge and non-finite
LU_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(
        lambda sign, x: sign * x,
        st.sampled_from([1.0, -1.0]),
        st.one_of(
            st.floats(0.25, 3.0),
            st.sampled_from([1e-20, 5e-324, 1e308, math.inf, math.nan]),
        ),
    ),
)


@st.composite
def lu_problems(draw):
    """A square matrix of order 1-8 and a right-hand side: a vector, or the identity."""
    n = draw(st.integers(1, 8))
    M = np.array(draw(st.lists(LU_ENTRIES, min_size=n * n, max_size=n * n))).reshape(n, n)
    if draw(st.booleans()):
        B = np.array(draw(st.lists(LU_ENTRIES, min_size=n, max_size=n)))
    else:
        B = np.eye(n)  # as inverse_nonneg_oracle solves
    return M, B


def _same_up_to_zero_sign(x, y) -> bool:
    return np.array_equal(np.abs(x), np.abs(y), equal_nan=True)


def _solve_outcome(M, B, solve=lu_solve):
    try:
        return solve(M, B), None
    except Exception as exc:  # the exception type is compared
        return None, type(exc)


def _solve_without_threshold(M, B):
    """The dense LU as ``solve_rows`` runs it on a block it knows nonsingular."""
    return oracle._solve_dense(M, B, pivot_rtol=0.0)


@settings(max_examples=400, deadline=None)
@given(lu_problems())
def test_lu_factor_matches_the_dense_reference(problem):
    """Updating in blocks of rows changes no pivot, factor or solution but a zero's sign."""
    M, B = problem
    with np.errstate(all="ignore"):
        got, want = lu_factor(M), reference.lu_factor(M)
        x, x_error = _solve_outcome(M, B)
        with mock.patch.object(oracle, "lu_factor", reference.lu_factor):
            y, y_error = _solve_outcome(M, B)
    assert got.singular == want.singular
    assert got.pivot_threshold.hex() == want.pivot_threshold.hex()
    assert np.array_equal(got.pivots, want.pivots)
    assert _same_up_to_zero_sign(got.factors, want.factors)
    assert x_error == y_error
    assert (x is None) == (y is None)
    if x is not None:
        assert _same_up_to_zero_sign(x, y)


def test_dense_lu_temporaries_stay_small():
    """Memory gate: an order-500 dense solve allocates little beyond the factors.

    The factors are one copy of the block.  The pivot threshold and the
    residual bound are reductions that build no |M|, and each rank-one
    update runs on blocks of at most an eighth of the rows, so the peak
    above the input stays under 1.25 blocks (with |M| and a full
    ``numpy.outer`` it was about 2).
    """
    n = 500
    M = np.random.default_rng(5).standard_normal((n, n)) + n * np.eye(n)
    b = np.ones(n)
    tracemalloc.start()
    try:
        x = lu_solve(M, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x is not None and peak <= 1.25 * M.nbytes


#: off-diagonal magnitudes, with exact binary values among them, and the
#: diagonal's excess over their sum: 0 makes an equality row
Z_ENTRIES = st.one_of(st.sampled_from([1e-20, 0.1, 0.25, 1.0, 3.0]), st.floats(1e-3, 4.0))
Z_GAPS = st.sampled_from([0.0, 1e-20, 0.5, 1.0, 2.0])
#: values at and below the normal float range
TINY = st.sampled_from([5e-324, 1e-310, 2.2250738585072014e-308, 1e-300])
#: a change that takes a row out of the GTH path: a negative gap, a positive
#: off-diagonal entry, an inf or a NaN
SPOILERS = st.sampled_from(["negative gap", "positive entry", "inf", "nan"])


def _below_the_sum(magnitudes: list[float]) -> float:
    """The largest float below the exact sum of ``magnitudes``: a diagonal with a negative gap.

    One ulp below the left-to-right sum is not enough: for the
    magnitudes 0.1, 1.0, 0.1, 0.1 that sum is 1.3000000000000003, and
    one ulp below it, 1.3, still has the exact gap +2.8e-17.
    """
    diag = math.fsum(magnitudes)
    while exact_gap(diag, magnitudes) >= 0.0:
        diag = math.nextafter(diag, -math.inf)
    return diag


@st.composite
def dominant_z_blocks(draw):
    """A dominant Z-matrix of order 1-7 by rows, a right-hand side b >= 0, a spoiler, a flag.

    Each row holds a drawn set of off-diagonal entries -c_ij and a
    diagonal at least their exact sum (``math.fsum``, one ulp up where
    that rounded down) plus a drawn gap, often 0: equality rows, closed
    blocks and zero rows make singular blocks.  In half the blocks, which
    the flag marks, the entries and gaps may also be ``TINY``.  In about one block in five
    one row is spoiled (``SPOILERS``) and the block must go dense.
    """
    n = draw(st.integers(1, 7))
    entries, gaps = Z_ENTRIES, Z_GAPS
    tiny = draw(st.booleans())
    if tiny:
        entries, gaps = st.one_of(entries, TINY), st.one_of(gaps, TINY)
    rows = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        cols = sorted(draw(st.sets(st.sampled_from(others)))) if others else []
        cs = draw(st.lists(entries, min_size=len(cols), max_size=len(cols)))
        diag = math.fsum(cs)
        if Fraction(diag) < sum(map(Fraction, cs)):
            diag = math.nextafter(diag, math.inf)
        row = {j: -c for j, c in zip(cols, cs)}
        row[i] = diag + draw(gaps)
        rows.append(row)
    b = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.25, 4.0)), min_size=n, max_size=n))
    spoiler = draw(st.one_of(st.none(), st.none(), st.none(), st.none(), SPOILERS))
    if spoiler is not None:
        i = draw(st.integers(0, n - 1))
        if spoiler == "negative gap":
            rows[i][i] = _below_the_sum([-v for j, v in rows[i].items() if j != i])
        elif spoiler == "positive entry" and n > 1:
            rows[i][(i + 1) % n] = 0.5
        elif spoiler in ("inf", "nan"):
            rows[i][draw(st.integers(0, n - 1))] = math.inf if spoiler == "inf" else math.nan
        else:
            spoiler = None
    return rows, b, spoiler, tiny


def _dense(rows) -> np.ndarray:
    M = np.zeros((len(rows), len(rows)))
    for i, row in enumerate(rows):
        for j, v in row.items():
            M[i, j] = v
    return M


def _bits(x) -> list[str] | None:
    return None if x is None else [float(v).hex() for v in x]


# row 0 has gap 2^-1074 and pivot 2^-1022 + 2^-1074, so f g_0 for row 1
# rounds to 0: without the hand-over, row 1 would be left a zero row and
# this block, whose determinant is 2^-1074 * 1e-310, called singular; the dense
# LU meets a zero pivot there too, so ``solve_rows`` raises instead
@example(([{0: math.nextafter(2.2250738585072014e-308, 1.0), 1: -2.2250738585072014e-308},
           {0: -1e-310, 1: 1e-310}], [1.0, 1.0], None, True))
# x is about 4.5e307 in every row, and row 4's left-to-right residual sum
# overflowed, so ``solve_rows`` raised on a correct x
@example(([{0: 2.2250738585072014e-308}, {0: -1e-20, 4: -1e-20, 1: 2e-20},
           {0: -1e-20, 2: 1e-20}, {0: -1e-20, 3: 1e-20}, {0: -1.0, 1: -3.0, 4: 4.0}],
          [1.0, 0.0, 0.0, 0.0, 0.0], None, True))
# an H block that ``lu_factor``'s pivot threshold calls singular
@example(([{0: 0.25}, {0: -1e-20, 1: 1e-20}], [0.25, 1e-20], None, False))
# row 2, spoiled to 1.3, one ulp below its left-to-right sum, kept the exact
# gap +2.8e-17, so ``sparse_lu`` eliminated a block labelled "negative gap"
@example(([{0: 1.0}, {1: 1.0},
           {0: -0.1, 1: -1.0, 3: -0.1, 4: -0.1, 2: _below_the_sum([0.1, 1.0, 0.1, 0.1])},
           {3: 1.0}, {4: 1.0}], [1.0] * 5, "negative gap", False))
@settings(max_examples=300, deadline=None)
@given(dominant_z_blocks())
def test_gth_elimination_matches_the_exact_solve(problem):
    """``sparse_lu.gth_factor`` against the exact ``Fraction`` solve.

    A block it eliminates is singular exactly when the exact solve finds
    it singular: a zero pivot is a zero row, which an underflow cannot
    fake, since a product below the normal range hands the block to the
    dense LU.  Only such a product hands a dominant block over, so only
    a block with ``TINY`` values (the budget is 8 n^2 updates, and order
    7 needs at most n^3 / 3).  Elsewhere each x_i is within 1e-12 of the
    exact value, relatively.  ``lu_solve`` returns the elimination's x
    unless it overflows.  A spoiled row goes to the dense LU, and
    ``lu_solve`` of the rows is then ``lu_solve`` of the dense array,
    bit for bit, or raises the same error.  A hand-over of a block
    ``_admit`` took is decided by reachability first: a singular block
    gives None before any hand-over, and b equal to the gaps gives 1
    (``test_gap_right_hand_side_takes_no_elimination``).  Any other
    goes to the dense LU with no pivot threshold, since the block is
    nonsingular, and a zero pivot there raises InconsistencyError.
    """
    rows, b, spoiler, tiny = problem
    fac = sparse_lu.gth_factor(rows)
    admitted = sparse_lu._admit(rows)
    decided = admitted is not None and (
        admitted[1] == b or not sparse_lu._all_reach_a_gap(admitted[1], admitted[2]))
    with np.errstate(all="ignore"):
        x, x_error = _solve_outcome(rows, b)
        if fac is None and not decided:
            if admitted is None:
                y, y_error = _solve_outcome(_dense(rows), np.array(b))
            else:
                y, y_error = _solve_outcome(_dense(rows), np.array(b), _solve_without_threshold)
                if y is None and y_error is None:  # a zero pivot
                    y_error = InconsistencyError
            assert x_error == y_error and _bits(x) == _bits(y)
    if spoiler is not None:
        event("spoiled: dense")
        assert fac is None
        return
    if fac is None:
        event("a product below the normal range: dense")
        assert tiny
        return
    exact = reference.exact_solve(rows, b)
    assert fac.singular == (exact is None)
    if fac.singular:
        event("singular")
        assert x is None and x_error is None
        return
    substituted = sparse_lu._substitute(fac, b)
    if not all(map(math.isfinite, substituted)):
        # x past the float range: ``solve_rows`` hands it to the dense LU,
        # which raises on a non-finite x rather than return it
        event("x past the float range")
        assert x_error in (None, InconsistencyError)
        assert x is None or all(map(math.isfinite, x))
        return
    event("solved, TINY values" if tiny else "solved")
    assert x_error is None
    assert _bits(x) == _bits(substituted)
    if not tiny:
        for got, want in zip(x, exact):
            assert abs(Fraction(got) - want) <= Fraction(1e-12) * abs(want)


@st.composite
def filling_z_blocks(draw):
    """A dominant Z-matrix of order 12-40 with 2-4 off-diagonal entries per row, and b >= 0.

    The rows are built as in ``dominant_z_blocks``, from ``Z_ENTRIES`` of
    at least 1e-3 and ``Z_GAPS``, so that no product leaves the normal
    range: at most 4 n stored entries, under half of n^2, make the
    elimination start sparse, and it fills in as it goes.
    """
    n = draw(st.integers(12, 40))
    entries = st.one_of(st.sampled_from([0.1, 0.25, 1.0, 3.0]), st.floats(1e-3, 4.0))
    rows = []
    for i in range(n):
        others = st.sampled_from([j for j in range(n) if j != i])
        cols = sorted(draw(st.sets(others, min_size=2, max_size=4)))
        cs = draw(st.lists(entries, min_size=len(cols), max_size=len(cols)))
        diag = math.fsum(cs)
        if Fraction(diag) < sum(map(Fraction, cs)):
            diag = math.nextafter(diag, math.inf)
        row = {j: -c for j, c in zip(cols, cs)}
        row[i] = diag + draw(Z_GAPS)
        rows.append(row)
    b = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.25, 4.0)), min_size=n, max_size=n))
    return rows, b


@settings(max_examples=40, deadline=None)
@given(filling_z_blocks())
def test_gth_elimination_on_blocks_that_fill_in(problem):
    """``sparse_lu.gth_factor`` on a block that starts sparse and fills in, against exact solves.

    The singular verdict is the exact solve's, each x_i is within 1e-12
    of the exact value, relatively, and b equal to the rows' gaps
    (``math.fsum``) gives x = 1 bit for bit.
    """
    rows, b = problem
    n = len(rows)
    fac = sparse_lu.gth_factor(rows)
    assert fac is not None
    exact = reference.exact_solve(rows, b)
    assert fac.singular == (exact is None)
    if fac.singular:
        event("singular")
        return
    for got, want in zip(sparse_lu._substitute(fac, b), exact):
        assert abs(Fraction(got) - want) <= Fraction(1e-12) * abs(want)
    gaps = [math.fsum(row.values()) for row in rows]
    assert sparse_lu._substitute(fac, gaps) == [1.0] * n


#: dyadic magnitudes: a chain of equality rows built from them is exact
DYADIC = st.sampled_from([0.125, 0.25, 0.5, 1.0, 2.0, 3.0])


@st.composite
def gap_rhs_blocks(draw):
    """A dominant Z-matrix of order 1-7 by rows, b its gap vector, and whether b was nudged.

    A third of the blocks are dyadic chains of equality rows, row i
    holding c_i on the diagonal and -c_i at column i + 1; the last row
    is strict, zero, or closes the cycle back to row 0 (a closed
    equality block, singular).  In the others each row is a zero row
    (no entry, or a 0.0 diagonal), an isolated row (a positive diagonal
    alone), or drawn as in ``dominant_z_blocks`` with a gap that is
    often 0, so closed equality blocks come up there too.  No value is
    ``TINY``, so the elimination never hands over.  b is the gaps
    (``math.fsum`` of each row); in about half the blocks one positive
    gap of b is moved one ulp, so b misses them.
    """
    n = draw(st.integers(1, 7))
    if draw(st.integers(0, 2)) == 0:
        cs = draw(st.lists(DYADIC, min_size=n, max_size=n))
        rows = [{i: cs[i], i + 1: -cs[i]} for i in range(n - 1)]
        end = draw(st.sampled_from(["strict", "zero", "closed"]))
        if end == "closed" and n > 1:
            rows.append({0: -cs[-1], n - 1: cs[-1]})
        else:
            rows.append({n - 1: cs[-1] if end == "strict" else 0.0})
    else:
        rows = []
        for i in range(n):
            shape = draw(st.sampled_from(["zero", "isolated", "drawn", "drawn", "drawn", "drawn"]))
            if shape == "zero":
                rows.append(draw(st.sampled_from([{}, {i: 0.0}])))
                continue
            if shape == "isolated":
                rows.append({i: draw(st.one_of(DYADIC, st.floats(1e-3, 4.0)))})
                continue
            others = [j for j in range(n) if j != i]
            cols = sorted(draw(st.sets(st.sampled_from(others)))) if others else []
            cs = draw(st.lists(Z_ENTRIES, min_size=len(cols), max_size=len(cols)))
            diag = math.fsum(cs)
            if Fraction(diag) < sum(map(Fraction, cs)):
                diag = math.nextafter(diag, math.inf)
            row = {j: -c for j, c in zip(cols, cs)}
            row[i] = diag + draw(st.sampled_from([0.0, 0.0, 1e-20, 0.5, 1.0]))
            rows.append(row)
    b = [math.fsum(row.values()) for row in rows]
    positive = [i for i, g in enumerate(b) if g > 0.0]
    nudged = bool(positive) and draw(st.booleans())
    if nudged:
        i = draw(st.sampled_from(positive))
        b[i] = math.nextafter(b[i], draw(st.sampled_from([math.inf, -math.inf])))
    return rows, b, nudged


@settings(max_examples=300, deadline=None)
@given(gap_rhs_blocks())
def test_gap_right_hand_side_takes_no_elimination(problem):
    """``sparse_lu.solve_rows`` of a dominant Z-block and its own gap vector: no elimination.

    Such a b is decided by the reachability pass alone, with no
    ``gth_factor`` call: x is ``_substitute(gth_factor(rows), b)`` bit
    for bit, which is 1 everywhere, or None on both where the
    elimination finds the block singular.  The exact ``Fraction`` solve
    is singular on the same blocks, and otherwise within 1e-12 of x,
    relatively: each gap is the exact one rounded once, and M^-1 >= 0
    keeps the exact solve within an ulp of 1.  A b one ulp off the gaps
    of a nonsingular block takes one ``gth_factor`` call and keeps that
    accuracy; of a singular one it takes none, since the reachability
    pass decides singularity before any elimination, whatever b is.
    """
    rows, b, nudged = problem
    fac = sparse_lu.gth_factor(rows)
    assert fac is not None
    with mock.patch.object(sparse_lu, "gth_factor", wraps=sparse_lu.gth_factor) as spy:
        x = sparse_lu.solve_rows(rows, b)
    assert spy.call_count == (1 if nudged and not fac.singular else 0)
    exact = reference.exact_solve(rows, b)
    assert (x is None) == fac.singular == (exact is None)
    if x is None:
        event("singular, one ulp off" if nudged else "singular")
        return
    assert _bits(x) == _bits(sparse_lu._substitute(fac, b))
    if nudged:
        event("one ulp off: GTH")
    else:
        event("x = 1, exactly" if exact == [1] * len(rows) else "x = 1, gaps rounded")
        assert x == [1.0] * len(rows)
    for got, want in zip(x, exact):
        assert abs(Fraction(got) - want) <= Fraction(1e-12) * abs(want)


class TestInverseNonnegOracle:
    def test_h_matrix(self):
        assert inverse_nonneg_oracle(Matrix([[1, 1], [1, 2]]))

    def test_singular_comparison(self):
        assert not inverse_nonneg_oracle(Matrix([[1, 1], [1, 1]]))

    def test_negative_inverse_entries(self):
        assert not inverse_nonneg_oracle(Matrix([[1, 2], [2, 1]]))

    def test_zero_diagonal(self):
        assert not inverse_nonneg_oracle(Matrix([[0, 0], [0, 1]]))


class TestSpectralRadius:
    def test_permutation(self):
        assert spectral_radius([[0, 1], [1, 0]]) == pytest.approx(1.0, rel=1e-6)

    def test_diagonal(self):
        assert spectral_radius([[0.5, 0], [0, 0.25]]) == pytest.approx(0.5, rel=1e-6)

    def test_off_diagonal_pair(self):
        assert spectral_radius([[0, 1], [0.25, 0]]) == pytest.approx(0.5, rel=1e-6)

    def test_nilpotent(self):
        assert spectral_radius([[0, 1], [0, 0]]) == 0.0

    def test_zero(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0

    def test_positive_matrix_against_eigvals(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            B = rng.random((5, 5))
            expected = float(np.max(np.abs(np.linalg.eigvals(B))))
            assert spectral_radius(B) == pytest.approx(expected, rel=1e-6)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            spectral_radius([[0, -1], [1, 0]])


class TestJacobiOracle:
    def test_sdd(self):
        assert jacobi_oracle(Matrix([[2, 1], [1, 2]]))
        assert jacobi_spectral_radius(Matrix([[2, 1], [1, 2]])) == pytest.approx(0.5, rel=1e-9)

    def test_boundary(self):
        assert not jacobi_oracle(Matrix([[1, 1], [1, 1]]))

    def test_dd_plus_h(self):
        A = Matrix([[1, 1], [1, 2]])
        assert jacobi_oracle(A)
        assert jacobi_spectral_radius(A) == pytest.approx(np.sqrt(0.5), rel=1e-6)

    def test_zero_diag(self):
        assert not jacobi_oracle(Matrix([[0, 0], [0, 1]]))
        assert jacobi_spectral_radius(Matrix([[0, 0], [0, 1]])) is None


class TestRandomStream:
    def test_deterministic(self):
        a = RandomStream(42)
        b = RandomStream(42)
        assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]

    def test_unit_range_and_dyadicity(self):
        rng = RandomStream(1)
        for _ in range(1000):
            u = rng.next_unit()
            assert 0.0 < u <= 1.0
            assert (u * 2**30) == int(u * 2**30)  # multiple of 2^-30

    def test_array_outputs_continue_the_scalar_stream_across_a_block(self):
        seed = 2**64 - 5  # the counter wraps modulo 2^64 at once
        rng = RandomStream(seed)
        scalar = [rng.next_u64() for _ in range(STREAM_BLOCK + 8)]
        blocks = [stream_words(seed, np.arange(0, STREAM_BLOCK)),
                  stream_words(seed, np.arange(STREAM_BLOCK, STREAM_BLOCK + 8))]
        assert blocks[0].dtype == np.uint64
        assert np.concatenate(blocks).tolist() == scalar

    def test_derive_seed_spreads(self):
        seeds = {derive_seed(0, k) for k in range(100)}
        assert len(seeds) == 100


class TestRandomDDMatrix:
    def test_zero_density_is_positive_diagonal(self):
        A = random_dd_matrix(EnsembleSpec(n=4, density=0.0, equality_rows=0.0, seed=5))
        off = A.modulus.copy()
        np.fill_diagonal(off, 0.0)
        assert np.all(off == 0.0)
        assert np.all(np.asarray(A.diagonal_modulus) > 0.0)
        assert classify_dominance(A) is DominanceClass.SDD

    def test_full_density_full_equality(self):
        A = random_dd_matrix(EnsembleSpec(n=4, density=1.0, equality_rows=1.0, seed=5))
        off = A.modulus.copy()
        np.fill_diagonal(off, 0.0)
        assert np.all(off[~np.eye(4, dtype=bool)] > 0.0)
        from ddh import non_sdd_rows

        assert non_sdd_rows(A).members == (0, 1, 2, 3)

    def test_same_seed_same_matrix(self):
        spec = EnsembleSpec(n=6, density=0.5, equality_rows=0.5, seed=123)
        assert np.array_equal(random_dd_matrix(spec).entries, random_dd_matrix(spec).entries)

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            EnsembleSpec(n=0, density=0.5, equality_rows=0.5, seed=1)
        with pytest.raises(ValueError):
            EnsembleSpec(n=2, density=1.5, equality_rows=0.5, seed=1)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 8),
        density=st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0]),
        eq=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
        seed=st.integers(0, 2**63),
        complex_entries=st.booleans(),
    )
    def test_always_exactly_dd(self, n, density, eq, seed, complex_entries):
        A = random_dd_matrix(
            EnsembleSpec(n=n, density=density, equality_rows=eq, seed=seed,
                         complex_entries=complex_entries)
        )
        assert classify_dominance(A).is_dd
        # every row is exactly an equality row or exactly strict
        sums = reference.deleted_row_sums(A)
        for i in range(n):
            gap = A.diagonal_modulus[i] - sums[i]
            assert gap >= 0.0

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 12),
        density=st.sampled_from([0.0, 0.01, 0.2, 0.5, 0.9, 1.0]),
        eq=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
        seed=st.integers(0, 2**64 - 1),
        complex_entries=st.booleans(),
        block=st.sampled_from([1, 2, 5, 16, STREAM_BLOCK]),
    )
    def test_matches_the_scalar_reference(self, n, density, eq, seed, complex_entries, block):
        # small blocks put block boundaries inside every stage of the draw
        # order, and small chunks split the writer's rows into several slabs
        spec = EnsembleSpec(n=n, density=density, equality_rows=eq, seed=seed,
                            complex_entries=complex_entries)
        with mock.patch.object(oracle, "STREAM_BLOCK", block):
            A = random_dd_matrix(spec)
        B = reference.random_dd_matrix(spec)
        assert A.entries.dtype == B.entries.dtype
        assert A.entries.tobytes() == B.entries.tobytes()
        comments = (f"ddh generate seed={seed} index=0", "second line")
        with mock.patch.object(mmio, "WRITE_CHUNK", block):
            text = write_matrix_market(A, comments)
        assert text == reference.write_matrix_market(B, comments)

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_matches_the_scalar_reference_over_several_blocks(self, complex_entries):
        spec = EnsembleSpec(n=300, density=0.5, equality_rows=0.5, seed=17,
                            complex_entries=complex_entries)
        A, B = random_dd_matrix(spec), reference.random_dd_matrix(spec)
        assert A.entries.tobytes() == B.entries.tobytes()
        assert write_matrix_market(A) == reference.write_matrix_market(B)

    def test_complex_mode_uses_axis_phases(self):
        A = random_dd_matrix(
            EnsembleSpec(n=5, density=1.0, equality_rows=0.5, seed=9, complex_entries=True)
        )
        assert A.entries.dtype == np.complex128
        off = ~np.eye(5, dtype=bool)
        assert np.all((A.entries[off].real == 0) | (A.entries[off].imag == 0))
        assert classify_dominance(A).is_dd


def test_oracles_agree_on_ensembles():
    disagreements = 0
    for k in range(300):
        A = random_dd_matrix(
            EnsembleSpec(n=2 + k % 7, density=(0.2, 0.5, 0.9)[k % 3],
                         equality_rows=(0.3, 0.7, 1.0)[k % 9 // 3], seed=derive_seed(99, k))
        )
        rho = jacobi_spectral_radius(A)
        inv = inverse_nonneg_oracle(A)
        jac = jacobi_oracle(A)
        if rho is not None and abs(rho - 1.0) <= 1e-6:
            continue  # boundary band: agreement not adjudicated
        if inv != jac:
            disagreements += 1
    assert disagreements == 0


def test_comparison_matrix_of_h_matrix_solves_positively():
    A = Matrix([[1, 1], [1, 2]])
    d = lu_solve(comparison_matrix(A), np.ones(2))
    assert np.array_equal(d, [3.0, 2.0])
