import numpy as np
from hypothesis import given, settings

from ddh import (
    DominanceClass,
    IndexSet,
    Matrix,
    chain_condition,
    classify_dominance,
    inverse_nonneg_oracle,
    non_sdd_rows,
)
from helpers import (
    dd_matrices,
    floyd_warshall_dist_to_set,
    jacobi_in_band,
    pattern_matrices,
    pattern_rows,
)
from reference import frobenius_normal_form, is_irreducible, taussky_test


class TestPatternGraph:
    def test_reads_pattern(self):
        assert pattern_rows(Matrix([[1, 1], [0, 1]])) == ((1,), ())

    def test_identity_has_no_edges(self):
        assert pattern_rows(Matrix(np.eye(3))) == ((), (), ())

    def test_two_cycle_block(self):
        assert pattern_rows(Matrix([[1, 1, 0], [1, 1, 0], [0, 0, 2]])) == ((1,), (0,), ())


class TestChainCondition:
    def test_holds_with_single_hop(self):
        rep = chain_condition(Matrix([[1, 1], [1, 2]]))
        assert not rep.stalled and rep.paths == {0: (0, 1)}
        assert rep.next_hop == {0: 1}

    def test_fails_on_isolated_block(self):
        rep = chain_condition(Matrix([[1, 1, 0], [1, 1, 0], [0, 0, 2]]))
        assert rep.stalled and rep.t_set.members == (0, 1)
        assert rep.next_hop == {} and rep.paths == {}

    def test_sdd_trivially_holds(self):
        rep = chain_condition(Matrix([[2, 1], [1, 2]]))
        assert not rep.stalled and rep.paths == {} and rep.t_set.members == ()

    def test_interior_vertices_stay_inside_t(self):
        A = Matrix([[1, 1, 0], [0, 1, 1], [0, 0, 2]])
        rep = chain_condition(A)
        T = non_sdd_rows(A)
        for path in rep.paths.values():
            assert all(v in T for v in path[:-1])
            assert path[-1] not in T


class TestFrobeniusNormalForm:
    def test_two_blocks(self):
        # the blocks are incomparable, so either order is topological
        A = Matrix([[1, 1, 0], [1, 1, 0], [0, 0, 2]])
        form = frobenius_normal_form(A)
        assert sorted(b.members for b in form.blocks) == [(0, 1), (2,)]
        _assert_block_upper(A, form)

    def test_acyclic_pattern_gives_singletons(self):
        form = frobenius_normal_form(Matrix([[1, 1, 0], [0, 1, 1], [0, 0, 2]]))
        assert [b.members for b in form.blocks] == [(0,), (1,), (2,)]

    def test_single_cycle_block(self):
        form = frobenius_normal_form(Matrix([[0, 1], [1, 0]]))
        assert [b.members for b in form.blocks] == [(0, 1)]

    def test_permuted_matrix_is_block_upper_triangular(self):
        A = Matrix([[1, 0, 1], [1, 2, 0], [0, 0, 1]])
        form = frobenius_normal_form(A)
        _assert_block_upper(A, form)


def _assert_block_upper(A, form):
    block_of = {}
    for b, block in enumerate(form.blocks):
        for i in block.members:
            block_of[i] = b
    for i in range(A.n):
        for j in range(A.n):
            if A.modulus[i, j] > 0.0:
                assert block_of[i] <= block_of[j], (i, j, form.blocks)
    perm = form.permutation
    assert sorted(perm) == list(range(A.n))


class TestIrreducibleAndTaussky:
    def test_two_cycle_irreducible(self):
        assert is_irreducible(Matrix([[1, 1], [1, 2]]))

    def test_one_way_edge_reducible(self):
        assert not is_irreducible(Matrix([[1, 1], [0, 1]]))

    def test_one_by_one_convention(self):
        assert is_irreducible(Matrix([[5]]))
        assert is_irreducible(Matrix([[0]]))

    def test_taussky_holds(self):
        assert taussky_test(Matrix([[1, 1], [1, 2]]))

    def test_taussky_needs_a_strict_row(self):
        assert not taussky_test(Matrix([[1, 1], [1, 1]]))

    def test_taussky_needs_irreducibility(self):
        assert not taussky_test(Matrix([[1, 1], [0, 1]]))

    def test_taussky_zero_1x1(self):
        assert not taussky_test(Matrix([[0]]))


@settings(max_examples=150, deadline=None)
@given(A=dd_matrices(max_n=6))
def test_chain_condition_matches_reachability_and_shortest_distances(A):
    T = non_sdd_rows(A)
    rep = chain_condition(A)
    dists = floyd_warshall_dist_to_set(A, T.complement())
    assert (not rep.stalled) == all(dists[i] < float("inf") for i in T.members)
    for i in T.members:
        if i in rep.paths:
            assert len(rep.paths[i]) - 1 == dists[i]
        else:
            assert dists[i] == float("inf")


@settings(max_examples=150, deadline=None)
@given(A=pattern_matrices(min_n=1, max_n=6))
def test_frobenius_form_invariants(A):
    form = frobenius_normal_form(A)
    covered = sorted(i for b in form.blocks for i in b.members)
    assert covered == list(range(A.n))
    _assert_block_upper(A, form)
    # each block with >= 2 vertices is strongly connected
    for block in form.blocks:
        idx = list(block.members)
        if len(idx) < 2:
            continue
        sub = Matrix(np.asarray(A.entries)[np.ix_(idx, idx)] + np.eye(len(idx)))
        for v in range(len(idx)):
            dists = floyd_warshall_dist_to_set(sub, IndexSet((v,), len(idx)))
            assert max(dists) < float("inf")
    if A.n >= 2:
        assert (len(form.blocks) == 1) == is_irreducible(A)


@settings(max_examples=100, deadline=None)
@given(A=dd_matrices(max_n=6, step_bits=10))
def test_taussky_implies_inverse_nonneg(A):
    if taussky_test(A):
        assert classify_dominance(A) in (DominanceClass.DD_PLUS, DominanceClass.SDD)
        if not jacobi_in_band(A):
            assert inverse_nonneg_oracle(A)
