import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddh import (
    DominanceClass,
    IndexSet,
    Matrix,
    classify_dominance,
    comparison_matrix,
    non_sdd_rows,
    principal_submatrix,
)
from ddh.core import exact_sum
import reference
from helpers import dd_matrices, dyadic_units, proper_subsets, split_row_sums


class TestMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2, 3], [4, 5, 6]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Matrix(np.zeros((0, 0)))

    def test_entries_are_read_only(self):
        A = Matrix([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            A.entries[0, 0] = 9.0
        with pytest.raises(ValueError):
            A.modulus[0, 0] = 9.0

    def test_modulus_of_complex(self):
        A = Matrix([[1, 3 + 4j], [0, 6]])
        assert A.modulus[0, 1] == 5.0
        assert A.modulus.dtype == np.float64

    def test_integer_input_becomes_float(self):
        A = Matrix([[2, 1], [1, 2]])
        assert A.entries.dtype == np.float64

    @pytest.mark.parametrize("entry", [np.nan, complex(1.0, np.nan), complex(np.nan, 0.0)])
    def test_rejects_nan(self, entry):
        with pytest.raises(ValueError, match="^entry value must be finite$"):
            Matrix([[1, entry], [0, 1]])

    def test_refuses_infinite_entries_and_moduli(self):
        # each reached the dense LU of ``analyze_matrix``, which raised InconsistencyError
        for entries, problem in [
            ([[np.inf, np.inf], [0, 1]], "entry value must be finite"),
            ([[1, np.inf], [0, 1]], "entry value must be finite"),
            ([[2, 1.5e308 + 1.5e308j], [0, 1]], "entry modulus must be finite"),
        ]:
            with pytest.raises(ValueError, match=f"^{problem}$"):
                Matrix(entries)


class TestIndexSet:
    def test_orders_and_dedups(self):
        S = IndexSet.from_indices([3, 1, 1, 0], 5)
        assert S.members == (0, 1, 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            IndexSet((0, 5), 5)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            IndexSet((2, 1), 5)

    def test_negative_member_is_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            IndexSet((-1,), 3)

    def test_only_outside_input_is_validated(self):
        # kernel output skips the checks and equals the validated set;
        # ``--subset`` and a report's lists still go through them, as the
        # constructor does (the tests above)
        from ddh.cli import _index_set

        A = Matrix([[1, 1, 0], [0, 1, 1], [0, 0, 2]])
        T = non_sdd_rows(A)
        assert T == IndexSet((0, 1), 3) and T.complement() == IndexSet((2,), 3)
        assert IndexSet.trusted((0, 1), 3) == IndexSet((0, 1), 3)
        assert _index_set([3, 1, 3], 3) == IndexSet((0, 2), 3)
        with pytest.raises(ValueError, match="out of range"):
            _index_set([4], 3)
        with pytest.raises(ValueError, match="strictly increasing"):
            IndexSet((0, 0), 3)

    def test_complement_partitions(self):
        S = IndexSet((0, 2), 4)
        C = S.complement()
        assert C.members == (1, 3)
        assert sorted(S.members + C.members) == [0, 1, 2, 3]

    def test_membership_and_len(self):
        S = IndexSet((1, 2), 4)
        assert 1 in S and 0 not in S
        assert len(S) == 2 and list(S) == [1, 2]


def _deleted_row_sums(A: Matrix):
    """Every row's whole deleted sum: ``split_row_sums`` over all columns."""
    return split_row_sums(A, IndexSet.full(A.n))[0]


class TestDeletedRowSum:
    def test_single_off_diagonal(self):
        assert _deleted_row_sums(Matrix([[2, 1], [1, 2]]))[0] == 1.0

    def test_empty_sum(self):
        assert _deleted_row_sums(Matrix([[5]]))[0] == 0.0

    def test_complex_magnitude(self):
        assert _deleted_row_sums(Matrix([[1, 3 + 4j], [0, 6]]))[0] == 5.0

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            _deleted_row_sums(Matrix([[1]]))[1]


class TestPartialRowSum:
    """The first half of ``split_row_sums``: a row's deleted sum over the columns in S."""

    A = Matrix([[2, 1], [1, 2]])

    def test_s_minus_i_empty(self):
        assert split_row_sums(self.A, IndexSet((0,), 2))[0][0] == 0.0

    def test_full_deleted_sum(self):
        assert split_row_sums(self.A, IndexSet((1,), 2))[0][0] == 1.0

    def test_reads_off_matrix(self):
        B = Matrix([[1, 1, 0], [0, 1, 1], [0, 0, 2]])
        assert split_row_sums(B, IndexSet((0, 1), 3))[0][2] == 0.0

    def test_universe_mismatch(self):
        with pytest.raises(ValueError):
            split_row_sums(self.A, IndexSet((0,), 3))


class TestClassify:
    def test_sdd(self):
        assert classify_dominance(Matrix([[2, 1], [1, 2]])) is DominanceClass.SDD

    def test_dd_equality(self):
        assert classify_dominance(Matrix([[1, 1], [1, 1]])) is DominanceClass.DD_EQUALITY

    def test_dd_plus(self):
        assert classify_dominance(Matrix([[1, 1], [1, 2]])) is DominanceClass.DD_PLUS

    def test_not_dd(self):
        assert classify_dominance(Matrix([[1, 2], [2, 1]])) is DominanceClass.NOT_DD

    def test_tolerance_band_pulls_row_to_equality(self):
        A = Matrix([[1.0 + 1e-9, 1.0], [0.0, 2.0]])
        assert classify_dominance(A) is DominanceClass.SDD
        assert classify_dominance(A, tol=1e-6) is DominanceClass.DD_PLUS
        assert non_sdd_rows(A, tol=1e-6).members == (0,)

    def test_tolerance_band_forgives_violation(self):
        A = Matrix([[1.0 - 1e-9, 1.0], [0.0, 2.0]])
        assert classify_dominance(A) is DominanceClass.NOT_DD
        assert classify_dominance(A, tol=1e-6) is DominanceClass.DD_PLUS

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            classify_dominance(Matrix([[1]]), tol=-1e-9)


class TestExactSum:
    def test_no_terms_give_positive_zero(self):
        assert math.copysign(1.0, exact_sum([])) == 1.0

    def test_rounds_once(self):
        # left to right, 1.0 absorbs each 1e-16; exactly they reach its last place
        assert exact_sum([1.0, 1e-16, 1e-16]) == math.nextafter(1.0, math.inf)

    def test_overflowing_partial_sums_are_added_as_fractions(self):
        big = sys.float_info.max
        assert exact_sum([big, big, -big]) == big
        assert exact_sum([big, big]) == math.inf and exact_sum([-big, -big]) == -math.inf


class TestNonSddRows:
    def test_sdd_gives_empty(self):
        assert non_sdd_rows(Matrix([[2, 1], [1, 2]])).members == ()

    def test_equality_row(self):
        assert non_sdd_rows(Matrix([[1, 1], [1, 2]])).members == (0,)

    def test_mixed(self):
        A = Matrix([[1, 1, 0], [0, 1, 1], [0, 0, 2]])
        assert non_sdd_rows(A).members == (0, 1)


class TestComparisonMatrix:
    def test_sign_normalization(self):
        C = comparison_matrix(Matrix([[2, -3], [1, 4]]))
        assert np.array_equal(C, [[2, -3], [-1, 4]])

    def test_complex_modulus(self):
        C = comparison_matrix(Matrix([[2, 3 + 4j], [0, 6]]))
        assert np.array_equal(C, [[2, -5], [0, 6]])
        assert C.dtype == np.float64

    def test_identity_fixed_point(self):
        I3 = Matrix(np.eye(3))
        assert np.array_equal(comparison_matrix(I3), np.eye(3))

    def test_idempotent(self):
        C = comparison_matrix(Matrix([[2, -3 + 1j], [1, 4]]))
        assert np.array_equal(comparison_matrix(Matrix(C)), C)

    def test_zeros_are_positive_zero(self):
        A = Matrix([[2.0, 0.0, -0.0], [-0.0, 0.0, 1.5], [-1.0, 0.0, -0.0]])
        C = comparison_matrix(A)
        assert not np.signbit(C[C == 0.0]).any()
        assert np.array_equal(np.signbit(C), C < 0.0)
        assert C.tobytes() == np.array(
            [[2.0, 0.0, 0.0], [0.0, 0.0, -1.5], [-1.0, 0.0, 0.0]]
        ).tobytes()


class TestPrincipalSubmatrix:
    A = Matrix([[1, 1, 0], [0, 1, 1], [0, 0, 2]])

    def test_leading_block(self):
        sub = principal_submatrix(self.A, IndexSet((0, 1), 3))
        assert np.array_equal(sub.entries, [[1, 1], [0, 1]])

    def test_full_set_is_identity_restriction(self):
        sub = principal_submatrix(self.A, IndexSet.full(3))
        assert np.array_equal(sub.entries, self.A.entries)

    def test_corner(self):
        sub = principal_submatrix(Matrix([[1, 1], [1, 1]]), IndexSet((1,), 2))
        assert np.array_equal(sub.entries, [[1]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            principal_submatrix(self.A, IndexSet.empty(3))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), A=dd_matrices(max_n=6))
def test_partial_sums_split_exactly(A, data):
    inside, outside = split_row_sums(A, data.draw(proper_subsets(A.n)))
    sums = reference.deleted_row_sums(A)
    for i in range(A.n):
        assert inside[i] + outside[i] == sums[i]


@settings(max_examples=100, deadline=None)
@given(A=dd_matrices(max_n=6))
def test_partial_sum_over_everything_matches_deleted(A):
    inside, outside = split_row_sums(A, IndexSet.full(A.n))
    assert list(inside) == reference.deleted_row_sums(A).tolist() and list(outside) == [0.0] * A.n


@settings(max_examples=100, deadline=None)
@given(A=dd_matrices(max_n=6))
def test_sdd_iff_empty_t(A):
    assert (classify_dominance(A) is DominanceClass.SDD) == (len(non_sdd_rows(A)) == 0)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), A=dd_matrices(max_n=6))
def test_principal_submatrix_preserves_dominance(A, data):
    members = data.draw(
        st.lists(st.integers(0, A.n - 1), unique=True, min_size=1, max_size=A.n)
    )
    S = IndexSet.from_indices(members, A.n)
    sub = principal_submatrix(A, S)
    assert classify_dominance(sub) is not DominanceClass.NOT_DD


@settings(max_examples=100, deadline=None)
@given(A=dd_matrices(max_n=5))
def test_comparison_matrix_idempotent_on_dd(A):
    C = comparison_matrix(A)
    assert np.array_equal(comparison_matrix(Matrix(C)), C)
