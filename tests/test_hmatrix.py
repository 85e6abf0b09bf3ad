import json
import math
import random
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ddh import (
    DominanceClass,
    chain_condition,
    EnsembleSpec,
    InconsistencyError,
    IndexSet,
    Matrix,
    PeelReason,
    classify_dominance,
    find_ssdd_set_dd,
    inverse_nonneg_oracle,
    is_h_dd,
    non_sdd_rows,
    peel_levels,
    principal_submatrix,
    random_dd_matrix,
    s_h_check,
    s_sdd_check,
    scaling_certificate,
    scaling_margin,
    solved_scaling,
)
import ddh.hmatrix
import ddh.oracle
from ddh.cli import analyze_matrix, emit_json, real_from_json, verify_report
from ddh.hmatrix import SCALING_SWEEP_CAP
import reference
from helpers import (
    all_proper_nonempty_subsets,
    dd_matrices,
    exhaustive_ssdd,
    is_valid_scaling,
    jacobi_in_band,
    proper_subsets,
)

LADDER = Matrix([[1, 1, 0], [0, 1, 1], [0, 0, 2]])
TWO_CYCLE = Matrix([[1, 1, 0], [1, 1, 0], [0, 0, 2]])


class TestIsHDD:
    def test_sdd_short_circuit(self):
        v = is_h_dd(Matrix([[2, 1], [1, 2]]))
        assert v.is_h and v.peel_trace == () and v.reason is PeelReason.SDD_REACHED
        assert v.witness is None

    def test_two_stage_peel(self):
        v = is_h_dd(LADDER)
        assert v.is_h
        assert [t.members for t in v.peel_trace] == [(1,), (0,)]

    def test_stagnant_peel(self):
        v = is_h_dd(TWO_CYCLE)
        assert not v.is_h and v.reason is PeelReason.STAGNANT_PEEL
        assert v.witness.members == (0, 1)
        assert [t.members for t in v.peel_trace] == [(0, 1)]

    def test_all_equality_is_not_h(self):
        v = is_h_dd(Matrix([[1, 1], [1, 1]]))
        assert not v.is_h and v.witness.members == (0, 1)
        assert [t.members for t in v.peel_trace] == [(0, 1)]

    def test_zero_diagonal_witness(self):
        v = is_h_dd(Matrix([[0, 0], [0, 1]]))
        assert not v.is_h and v.reason is PeelReason.ZERO_DIAGONAL
        assert v.witness.members == (0,)
        assert v.peel_trace and v.witness.member_set <= v.peel_trace[0].member_set

    def test_rejects_non_dd(self):
        with pytest.raises(ValueError):
            is_h_dd(Matrix([[1, 2], [2, 1]]))

    @pytest.mark.parametrize("A", [LADDER, TWO_CYCLE, Matrix([[0, 0], [0, 1]])])
    def test_trace_partitions_t(self, A):
        # one entry per level (then the stalled block): each row of T once
        v = is_h_dd(A)
        rows = [i for t in v.peel_trace for i in t.members]
        assert all(len(t) > 0 for t in v.peel_trace)
        assert sorted(rows) == list(non_sdd_rows(A).members)


class TestWitness:
    def test_whole_matrix_witness(self):
        assert is_h_dd(Matrix([[1, 1], [1, 1]])).witness.members == (0, 1)

    def test_stagnant_block_witness(self):
        assert is_h_dd(TWO_CYCLE).witness.members == (0, 1)

    def test_zero_diag_singleton(self):
        assert is_h_dd(Matrix([[0, 0], [0, 1]])).witness.members == (0,)

    def test_h_matrix_has_none(self):
        assert is_h_dd(Matrix([[2, 1], [1, 2]])).witness is None


class TestSSddCheck:
    def test_cross_condition_holds(self):
        assert s_sdd_check(Matrix([[1, 1], [1, 2]]), IndexSet((0,), 2))

    def test_boundary_product_fails(self):
        assert not s_sdd_check(Matrix([[1, 1], [1, 1]]), IndexSet((0,), 2))

    def test_sdd_matrix_passes(self):
        assert s_sdd_check(Matrix([[2, 1], [1, 2]]), IndexSet((0,), 2))

    def test_rejects_empty_and_full(self):
        A = Matrix([[2, 1], [1, 2]])
        with pytest.raises(ValueError):
            s_sdd_check(A, IndexSet.empty(2))
        with pytest.raises(ValueError):
            s_sdd_check(A, IndexSet.full(2))

    def test_products_compare_exactly(self):
        # g_0 g_1 and c_0 c_1 round to the same float; exactly, the first is larger
        g0, c0, c1, g1 = 3.762556148825985, 2.4558498082097246, 5.487869330429923, 3.5819752076847147
        assert g0 * g1 == c0 * c1
        assert s_sdd_check(Matrix([[g0, c0], [c1, g1]]), IndexSet((0,), 2))

    def test_verify_of_a_wide_ssdd_set_builds_no_cross_array(self):
        """Memory gate: 4,000 equality rows, each pointing at its own strict row.

        The first peel level takes all of T, so ``analyze`` stores T as
        ``ssdd_set``, and ``verify`` runs ``s_sdd_check`` on it: one pass
        over S and one over its complement, under 10 MB of ``tracemalloc``
        (the two 4,000 x 4,000 arrays of a pairwise test took 267 MB).
        """
        m = 4000
        n = 2 * m
        A = Matrix.from_nonzeros(
            array("d", [1.0] * n), array("q", range(m)), array("q", range(m, n)), array("d", [1.0] * m)
        )
        report, problems = analyze_matrix(A)
        report = json.loads(emit_json(report))
        assert problems == [] and report["ssdd_set"] == list(range(1, m + 1))
        tracemalloc.start()
        try:
            results = verify_report(report, A)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(ok for _, ok, _ in results) and peak < 10 << 20


def _ssdd_set(A: Matrix):
    return find_ssdd_set_dd(A, peel_levels(A))


class TestFindSsddSet:
    def test_t_block_sdd(self):
        assert _ssdd_set(Matrix([[1, 1], [1, 2]])).members == (0,)

    def test_t_block_not_sdd(self):
        assert _ssdd_set(TWO_CYCLE) is None

    def test_sdd_convention_singleton(self):
        assert _ssdd_set(Matrix([[2, 1], [1, 2]])).members == (0,)

    def test_order_one_has_no_subsets(self):
        assert _ssdd_set(Matrix([[1]])) is None

    def test_full_t_gives_none(self):
        assert _ssdd_set(Matrix([[1, 1], [1, 1]])) is None

    def test_untouched_row_of_t_keeps_its_full_sum(self):
        # row 1 is strict on T = {0, 1} but row 0 touches no column
        # outside T, so the first level misses it and T is no SSDD set
        A = Matrix([[1, 1, 0], [0.5, 1, 0.5], [0, 0, 1]])
        assert peel_levels(A).levels[0] == (1,)
        assert _ssdd_set(A) is None


class TestSHCheck:
    def test_infinite_b2(self):
        rep = s_h_check(LADDER, IndexSet((0, 1), 3))
        assert rep.lhs == 1.0 and math.isinf(rep.b2) and rep.b2 > 0
        assert rep.inner_h and rep.satisfied

    def test_one_by_one_solve(self):
        rep = s_h_check(Matrix([[2, 1], [1, 2]]), IndexSet((0,), 2))
        assert rep.lhs == 0.5 and rep.b2 == 2.0 and rep.satisfied

    def test_boundary_not_satisfied(self):
        rep = s_h_check(Matrix([[1, 1], [1, 1]]), IndexSet((0,), 2))
        assert rep.inner_h and rep.lhs == 1.0 and rep.b2 == 1.0
        assert not rep.satisfied

    def test_singular_inner_block_flagged(self):
        rep = s_h_check(TWO_CYCLE, IndexSet((0, 1), 3))
        assert rep.lhs is None and not rep.inner_h and not rep.satisfied
        assert rep.note is not None

    def test_degenerate_b2_noted(self):
        # outside row 2 is entirely zero: its gap ratio is 0/0, so b2 = 0
        A = Matrix([[2, 1, 0], [1, 2, 0], [0, 0, 0]])
        rep = s_h_check(A, IndexSet((0, 1), 3))
        assert rep.b2 == 0.0
        assert rep.inner_h and rep.lhs == 0.0
        assert not rep.satisfied  # lhs < 0 is impossible
        assert "degenerate" in rep.note


class TestScalingCertificate:
    def test_ladder_scaling(self):
        # the sweeps give any valid d; the exact solve of M d = 1 gives [1, 2/3]
        A = Matrix([[1, 1], [1, 2]])
        assert is_valid_scaling(A, scaling_certificate(A, peel_levels(A)))
        solved = solved_scaling(A)
        assert is_valid_scaling(A, solved) and np.array_equal(solved.d, [1.0, 2.0 / 3.0])

    def test_identity(self):
        A = Matrix(np.eye(2))
        cert = scaling_certificate(A, peel_levels(A))
        assert np.array_equal(cert.d, [1.0, 1.0]) and cert.margin == 1.0

    def test_symmetric_sdd(self):
        A = Matrix([[2, 1], [1, 2]])
        cert = scaling_certificate(A, peel_levels(A))
        assert np.array_equal(cert.d, [1.0, 1.0]) and cert.margin == 1.0

    def test_margin_matches_direct_recomputation(self):
        A = LADDER
        cert = scaling_certificate(A, peel_levels(A))
        gaps = [
            A.modulus[i, i] * cert.d[i]
            - sum(A.modulus[i, j] * cert.d[j] for j in range(A.n) if j != i)
            for i in range(A.n)
        ]
        assert math.isclose(min(gaps), cert.margin, rel_tol=1e-12)

    def test_non_h_input_raises(self):
        # the sweeps hit their cap and the dense solve finds M singular
        with pytest.raises(
            InconsistencyError,
            match=rf"^{SCALING_SWEEP_CAP} Gauss-Seidel sweeps left the scaling margin at -\S+; "
            "dense solve: comparison matrix is singular",
        ):
            A = Matrix([[1, 1], [1, 1]])
            scaling_certificate(A, peel_levels(A))

    def test_exhausted_sweeps_solve_a_tridiagonal_matrix_by_rows(self, monkeypatch):
        """Work and memory gate: the fallback solve of an order-10^4 tridiagonal H-matrix.

        Unit neighbours, diagonal 2: the interior rows are equalities and
        the two end rows strict, so the Gauss-Seidel sweeps creep in from
        the ends and ``SCALING_SWEEP_CAP`` of them leave the margin
        nonpositive.  ``solved_scaling`` then hands the comparison matrix
        to ``lu_solve`` by rows, a dominant Z-matrix that GTH elimination
        solves with no fill: no dense ``lu_factor`` runs, and the solve
        peaks under 2 KB of ``tracemalloc`` per row (one dense copy of the
        matrix would be 800 MB).
        """
        n = 10_000
        rows, cols = array("q"), array("q")
        for i in range(n):
            for j in (i - 1, i + 1):
                if 0 <= j < n:
                    rows.append(i)
                    cols.append(j)
        A = Matrix.from_nonzeros(array("d", [2.0] * n), rows, cols, array("d", [1.0]) * len(rows))
        dense_calls, solved = [], []
        factor, solve = ddh.oracle.lu_factor, ddh.hmatrix.solved_scaling
        monkeypatch.setattr(ddh.oracle, "lu_factor", lambda M: dense_calls.append(len(M)) or factor(M))
        monkeypatch.setattr(ddh.hmatrix, "solved_scaling", lambda B: solved.append(B) or solve(B))
        cert = scaling_certificate(A, peel_levels(A))
        assert solved == [A] and dense_calls == [] and is_valid_scaling(A, cert)
        tracemalloc.start()
        try:
            again = solve(A)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2000 * n and again.d == cert.d and dense_calls == []

    def test_overflowing_sweeps_stop_early(self):
        # off-diagonal ratios of 1e100: x overflows in the second sweep,
        # the margin turns NaN, and the dense solve decides at once
        with pytest.raises(
            InconsistencyError,
            match=r"^2 Gauss-Seidel sweeps left the scaling margin at nan; "
            "dense solve: scaling vector has a nonpositive component",
        ):
            A = Matrix([[1e-100, 1], [1, 1e-100]])
            scaling_certificate(A, peel_levels(A))


@settings(max_examples=200, deadline=None)
@given(A=dd_matrices(max_n=8, step_bits=10))
def test_peel_verdict_matches_inverse_oracle(A):
    assume(not jacobi_in_band(A))
    v = is_h_dd(A)
    assert v.is_h == inverse_nonneg_oracle(A)


@settings(max_examples=200, deadline=None)
@given(A=dd_matrices(max_n=7, step_bits=10))
def test_witness_and_scaling_soundness(A):
    v = is_h_dd(A)
    if v.is_h:
        # the chains prove H; outside the boundary band the sweeps also find a scaling
        assert v.witness is None and not chain_condition(A).stalled
        if not jacobi_in_band(A):
            assert is_valid_scaling(A, scaling_certificate(A, v.peel))
    else:
        assert v.witness is not None
        T = non_sdd_rows(A)
        assert v.witness.member_set <= T.member_set
        sub = principal_submatrix(A, v.witness)
        assert classify_dominance(sub) is DominanceClass.DD_EQUALITY


@settings(max_examples=150, deadline=None)
@given(A=dd_matrices(min_n=2, max_n=6, step_bits=10))
def test_ssdd_agrees_with_exhaustive_search(A):
    found = _ssdd_set(A)
    assert (found is not None) == exhaustive_ssdd(A)
    if found is not None:
        assert s_sdd_check(A, found)
        if not jacobi_in_band(A):
            assert inverse_nonneg_oracle(A)


@settings(max_examples=150, deadline=None)
@given(A=dd_matrices(min_n=2, max_n=6, step_bits=10))
def test_subset_h_condition_matches_peel_on_t(A):
    assume(not jacobi_in_band(A))
    T = non_sdd_rows(A)
    if len(T) == 0 or T.is_full:
        return
    sub = principal_submatrix(A, T)
    if (np.asarray(sub.diagonal_modulus) == 0.0).any():
        return
    try:
        rep = s_h_check(A, T)
        verdict = is_h_dd(A)
    except InconsistencyError:
        assume(False)
    if rep.lhs is not None and math.isfinite(rep.b2):
        if abs(rep.lhs - rep.b2) <= 1e-9 * max(1.0, abs(rep.b2)):
            return  # boundary case: either answer is acceptable
    assert rep.satisfied == verdict.is_h


@st.composite
def dominant_and_subsets(draw):
    """An exactly dominant matrix (``dd_matrices``) and a nonempty proper subset of its rows."""
    A = draw(dd_matrices(min_n=2, max_n=8))
    return A, draw(proper_subsets(A.n).filter(len))


def _dense_fill_block() -> tuple[Matrix, IndexSet]:
    """Order 32, every entry stored: rows 0 and 31 strict, the rest equalities; S = rows 0-29.

    S's block is strict in every row, and its elimination fills in past
    ``GTH_BUDGET`` n^2 updates, so the dense LU solves it.
    """
    entries = np.ones((32, 32))
    np.fill_diagonal(entries, 31.0)
    entries[0, 0] = entries[31, 31] = 32.0
    return Matrix(entries), IndexSet(tuple(range(30)), 32)


def _subnormal_block() -> tuple[Matrix, IndexSet]:
    """A 1e-320 coupling and a 1e-14 diagonal in S = rows 0-3 of an exactly dominant matrix.

    The elimination hands the nonsingular block over at the 1e-320
    quotient, and the dense LU's pivot threshold, 1e-12 of the largest
    entry, would call it singular at the 1e-14 pivot.
    """
    entries = np.zeros((5, 5))
    entries[0, 0], entries[0, 2] = 1.0, 1e-320
    entries[1, 1] = 1e-14
    entries[2, 2] = 1.0
    entries[3, 3] = entries[3, 0] = 1.0
    entries[4, 4], entries[4, 3] = 1.0, 0.5
    return Matrix(entries), IndexSet((0, 1, 2, 3), 5)


# rows 0 and 1 are a closed pair of exact equalities inside S = {0, 1, 2}: a singular block
@example((Matrix([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 1], [0, 0, 0, 1]]), IndexSet((0, 1, 2), 4)))
@example(_dense_fill_block())
@example(_subnormal_block())
@settings(max_examples=300, deadline=None)
@given(dominant_and_subsets())
def test_inner_h_of_an_exactly_dominant_block_is_its_peel(problem):
    """At tol 0 ``s_h_check`` reads ``inner_h`` off its solve: the copied block's peel agrees.

    An exactly dominant block is H iff it is nonsingular, which
    ``sparse_lu`` decides by reachability on every path, whether the
    block is then solved by elimination or, handed over, by the dense LU
    (``reference.inner_h_by_peel`` is the peel of the copied block).
    """
    A, S = problem
    rep = s_h_check(A, S)
    assert rep.inner_h == reference.inner_h_by_peel(A, S)
    assert (rep.lhs is None) == (not rep.inner_h)


@settings(max_examples=150, deadline=None)
@given(A=dd_matrices(min_n=2, max_n=6, step_bits=10))
def test_any_passing_subset_implies_h(A):
    assume(not jacobi_in_band(A))
    for S in all_proper_nonempty_subsets(A.n):
        if s_sdd_check(A, S):
            assert inverse_nonneg_oracle(A)
            break


def _chain(n: int) -> Matrix:
    """Upper-bidiagonal chain of order n: equality rows pointing at i + 1, the last row strict."""
    rng = random.Random(n)
    mags = [rng.randint(512, 1024) / 1024 for _ in range(n)]
    rows, cols = array("q", range(n - 1)), array("q", range(1, n))
    return Matrix.from_nonzeros(array("d", mags), rows, cols, array("d", mags[:-1]))


class TestRoundedScaling:
    """The scaling a report writes: none where the chains prove H, else the library's, unrounded.

    A written d is the certificate itself, with every digit ``repr``
    gives, so its stored margin is ``scaling_margin``'s bit for bit.
    """

    def _check(self, A: Matrix, cert=None, with_oracle: bool = False):
        report, problems = analyze_matrix(A, with_oracle=with_oracle)
        assert problems == []
        parsed = json.loads(emit_json(report))
        assert all(ok for _, ok, _ in verify_report(parsed, A))
        if cert is None:
            assert parsed["is_h"] is True and parsed["scaling"] is None
            return
        d = [real_from_json(x) for x in parsed["scaling"]["d"]]
        stored = real_from_json(parsed["scaling"]["margin"])
        assert d == cert.d.tolist()
        assert stored.hex() == scaling_margin(A, d).hex() == cert.margin.hex()

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 30),
        density=st.floats(0.1, 1.0),
        equality_rows=st.sampled_from([0.0, 0.3, 0.6, 0.9]),
        seed=st.integers(0, 2**32),
    )
    def test_random_dominant_h_matrices(self, n, density, equality_rows, seed):
        A = random_dd_matrix(EnsembleSpec(n, density, equality_rows, seed))
        assume(is_h_dd(A).is_h)
        self._check(A)

    @pytest.mark.parametrize("n", [2, 30, 300])
    def test_chains(self, n):
        self._check(_chain(n))

    def test_oracle_scaling_of_a_non_dominant_h_matrix(self):
        A = Matrix([[1, 2], [0.1, 1]])
        assert classify_dominance(A) is DominanceClass.NOT_DD
        self._check(A, solved_scaling(A), with_oracle=True)
