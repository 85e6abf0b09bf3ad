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
    deleted_row_sum,
    is_sdd_by_columns,
    non_sdd_rows,
    partial_row_sum,
    principal_submatrix,
)
from helpers import dd_matrices, dyadic_units, proper_subsets


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

    def test_complement_partitions(self):
        S = IndexSet((0, 2), 4)
        C = S.complement()
        assert C.members == (1, 3)
        assert sorted(S.members + C.members) == [0, 1, 2, 3]

    def test_membership_and_len(self):
        S = IndexSet((1, 2), 4)
        assert 1 in S and 0 not in S
        assert len(S) == 2 and list(S) == [1, 2]


class TestDeletedRowSum:
    def test_single_off_diagonal(self):
        assert deleted_row_sum(Matrix([[2, 1], [1, 2]]), 0) == 1.0

    def test_empty_sum(self):
        assert deleted_row_sum(Matrix([[5]]), 0) == 0.0

    def test_complex_magnitude(self):
        assert deleted_row_sum(Matrix([[1, 3 + 4j], [0, 6]]), 0) == 5.0

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            deleted_row_sum(Matrix([[1]]), 1)


class TestPartialRowSum:
    A = Matrix([[2, 1], [1, 2]])

    def test_s_minus_i_empty(self):
        assert partial_row_sum(self.A, 0, IndexSet((0,), 2)) == 0.0

    def test_full_deleted_sum(self):
        assert partial_row_sum(self.A, 0, IndexSet((1,), 2)) == 1.0

    def test_reads_off_matrix(self):
        B = Matrix([[1, 1, 0], [0, 1, 1], [0, 0, 2]])
        assert partial_row_sum(B, 2, IndexSet((0, 1), 3)) == 0.0

    def test_universe_mismatch(self):
        with pytest.raises(ValueError):
            partial_row_sum(self.A, 0, IndexSet((0,), 3))


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
        assert np.array_equal(C.entries, [[2, -3], [-1, 4]])

    def test_complex_modulus(self):
        C = comparison_matrix(Matrix([[2, 3 + 4j], [0, 6]]))
        assert np.array_equal(C.entries, [[2, -5], [0, 6]])
        assert C.entries.dtype == np.float64

    def test_identity_fixed_point(self):
        I3 = Matrix(np.eye(3))
        assert np.array_equal(comparison_matrix(I3).entries, np.eye(3))

    def test_idempotent(self):
        C = comparison_matrix(Matrix([[2, -3 + 1j], [1, 4]]))
        assert np.array_equal(comparison_matrix(C).entries, C.entries)

    def test_zeros_are_positive_zero(self):
        A = Matrix([[2.0, 0.0, -0.0], [-0.0, 0.0, 1.5], [-1.0, 0.0, -0.0]])
        C = comparison_matrix(A).entries
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


class TestSddByColumns:
    def test_symmetric_sdd(self):
        assert is_sdd_by_columns(Matrix([[2, 1], [1, 2]]))

    def test_column_equality(self):
        assert not is_sdd_by_columns(Matrix([[1, 0], [1, 2]]))

    def test_asymmetric_true(self):
        assert is_sdd_by_columns(Matrix([[3, 1], [2, 5]]))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), A=dd_matrices(max_n=6))
def test_partial_sums_split_exactly(A, data):
    S = data.draw(proper_subsets(A.n))
    Sbar = S.complement()
    for i in range(A.n):
        assert partial_row_sum(A, i, S) + partial_row_sum(A, i, Sbar) == deleted_row_sum(A, i)


@settings(max_examples=100, deadline=None)
@given(A=dd_matrices(max_n=6))
def test_partial_sum_over_everything_matches_deleted(A):
    full = IndexSet.full(A.n)
    for i in range(A.n):
        assert partial_row_sum(A, i, full) == deleted_row_sum(A, i)


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
    assert np.array_equal(comparison_matrix(C).entries, C.entries)
