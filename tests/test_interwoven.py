import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddh import (
    IndexSet,
    InterwovenCertificate,
    Matrix,
    chain_condition,
    interwoven_from_peeling,
    is_interwoven,
    layers_out_of,
    non_sdd_rows,
    peel_levels,
    verify_certificate,
)
import reference
from ddh.cli import analyze_matrix, emit_json
from helpers import (
    brute_force_interwoven,
    dd_matrices,
    is_chain_certificate,
    pattern_matrices,
    proper_subsets,
)

LADDER = Matrix([[1, 1, 0], [0, 1, 1], [0, 0, 2]])
TWO_CYCLE = Matrix([[1, 1, 0], [1, 1, 0], [0, 0, 2]])


class TestVerifyCertificate:
    def test_valid_single_step(self):
        cert = InterwovenCertificate(IndexSet((0, 1), 3), (1,), (2,), 0)
        assert verify_certificate(LADDER, cert)

    def test_zero_entry_rejected(self):
        cert = InterwovenCertificate(IndexSet((0, 1), 3), (0,), (2,), 1)
        assert not verify_certificate(LADDER, cert)

    def test_singleton_trivial(self):
        cert = InterwovenCertificate(IndexSet((3,), 4), (), (), None)
        assert verify_certificate(Matrix(np.eye(4)), cert)

    def test_full_subset_rejected(self):
        cert = InterwovenCertificate(IndexSet((0, 1), 2), (0,), (1,), 1)
        with pytest.raises(ValueError):
            verify_certificate(Matrix([[1, 1], [1, 1]]), cert)

    def test_companion_inside_subset_rejected(self):
        # q_1 must lie outside S
        cert = InterwovenCertificate(IndexSet((0, 1), 3), (0,), (1,), 1)
        assert not verify_certificate(LADDER, cert)

    @pytest.mark.parametrize("q", [3, -1])
    def test_out_of_range_companion_rejected(self, q):
        cert = InterwovenCertificate(IndexSet((0, 1), 3), (1,), (q,), 0)
        assert not verify_certificate(LADDER, cert)

    def test_wrong_leftover_rejected(self):
        cert = InterwovenCertificate(IndexSet((0, 1), 3), (1,), (2,), 1)
        assert not verify_certificate(LADDER, cert)

    def test_length_mismatch_rejected(self):
        cert = InterwovenCertificate(IndexSet((0, 1), 3), (), (), None)
        assert not verify_certificate(LADDER, cert)


class TestIsInterwoven:
    def test_nearest_member_goes_first(self):
        cert = is_interwoven(LADDER, IndexSet((0, 1), 3))
        assert cert is not None
        assert cert.p_seq == (1,) and cert.q_seq == (2,) and cert.leftover == 0

    def test_disconnected_subset_fails(self):
        assert is_interwoven(TWO_CYCLE, IndexSet((0, 1), 3)) is None

    def test_empty_subset_trivial(self):
        cert = is_interwoven(LADDER, IndexSet.empty(3))
        assert cert is not None and cert.p_seq == () and cert.leftover is None

    def test_full_subset_rejected(self):
        with pytest.raises(ValueError):
            is_interwoven(Matrix([[1, 1], [1, 1]]), IndexSet.full(2))

    def test_singleton_full_universe_allowed(self):
        # order 1: the one-member set is the whole universe but still trivial
        cert = is_interwoven(Matrix([[0]]), IndexSet((0,), 1))
        assert cert is not None and cert.p_seq == ()


class TestFromChains:
    def test_levels_of_ladder(self):
        cert = interwoven_from_peeling(chain_condition(LADDER))
        assert cert is not None
        assert cert.p_seq == (1,) and cert.q_seq == (2,) and cert.leftover == 0

    def test_trivial_when_one_nonstrict_row(self):
        cert = interwoven_from_peeling(chain_condition(Matrix([[1, 1], [1, 2]])))
        assert cert is not None and cert.p_seq == () and cert.subset.members == (0,)

    def test_none_when_two_members_are_unreachable(self):
        assert interwoven_from_peeling(chain_condition(TWO_CYCLE)) is None

    def test_one_unreachable_member_is_the_leftover(self):
        # row 0 has a zero diagonal and no off-diagonal entry: no chain
        # leaves it, yet T = {0, 1} unravels as row 1 first
        A = Matrix([[0, 0, 0], [0, 1, 1], [0, 0, 2]])
        rep = chain_condition(A)
        assert rep.stalled and rep.next_hop == {1: 2}
        cert = interwoven_from_peeling(rep)
        assert cert.p_seq == (1,) and cert.q_seq == (2,) and cert.leftover == 0
        assert verify_certificate(A, cert)

    def test_lists_members_by_distance_then_index(self):
        # 3 -> 0 -> 4 and 1 -> 2 -> 4: rows 0 and 2 are one hop out, 1 and 3 two
        A = Matrix([
            [1, 0, 0, 0, 1],
            [0, 1, 1, 0, 0],
            [0, 0, 1, 0, 1],
            [1, 0, 0, 1, 0],
            [0, 0, 0, 0, 1],
        ])
        cert = interwoven_from_peeling(chain_condition(A))
        assert cert.p_seq == (0, 2, 1) and cert.q_seq == (4, 4, 2) and cert.leftover == 3


def _from_peeling(A: Matrix):
    return interwoven_from_peeling(peel_levels(A))


class TestFromPeeling:
    def test_peels_ladder(self):
        cert = _from_peeling(LADDER)
        assert cert is not None
        assert cert.p_seq == (1,) and cert.q_seq == (2,) and cert.leftover == 0

    def test_empty_t_gives_trivial(self):
        cert = _from_peeling(Matrix([[2, 1], [1, 2]]))
        assert cert is not None and cert.subset.members == ()

    def test_all_equality_rows_fail(self):
        assert _from_peeling(Matrix([[1, 1], [1, 1]])) is None

    def test_stalled_peel_fails(self):
        assert _from_peeling(TWO_CYCLE) is None

    def test_multi_stage_peel(self):
        # 0 -> 1 -> 2 -> 3: three non-strict rows peeled one per stage
        A = Matrix([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 2]])
        cert = _from_peeling(A)
        assert cert is not None
        assert verify_certificate(A, cert)
        assert cert.p_seq == (2, 1) and cert.q_seq == (3, 2) and cert.leftover == 0


#: row 2 (0-based) touches rows 0 and 1, both one step from the strict rows 4 and 5
TIED_HOPS = Matrix([
    [1, 0, 0, 0, 0, 1],
    [0, 1, 0, 0, 1, 0],
    [1, 1, 2, 0, 0, 0],
    [0, 0, 1, 1, 0, 0],
    [0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 1],
])


def test_next_hop_is_the_smallest_column_one_level_down():
    """The chains and the re-tested peel both name row 2's smaller neighbour, 0, not 1.

    Row 1 is met first from outside T (its column 4 precedes column 5),
    so a breadth-first search keeping the first parent would name 1.
    The report's ``chain.next`` is 1-based and aligned with T = {0, 1, 2, 3}.
    At tol 0 the peel is the chains, one ``Peel``.
    """
    chain = chain_condition(TIED_HOPS)
    assert chain is peel_levels(TIED_HOPS)
    assert layers_out_of(TIED_HOPS, chain.t_set, 0.0) == (chain.levels, chain.next_hop)
    assert chain.levels == ((0, 1), (2,), (3,))
    assert chain.next_hop == {0: 5, 1: 4, 2: 0, 3: 2}
    cert = interwoven_from_peeling(chain)
    assert cert.p_seq == (0, 1, 2) and cert.q_seq == (5, 4, 0)
    assert cert.leftover == 3
    report, _ = analyze_matrix(TIED_HOPS)
    assert report["chain"]["next"] == [6, 5, 1, 3]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), A=pattern_matrices(min_n=2, max_n=5))
def test_decision_matches_brute_force_and_greedy_closure(A, data):
    S = data.draw(proper_subsets(A.n))
    cert = is_interwoven(A, S)
    assert (cert is not None) == brute_force_interwoven(A, S)
    assert (cert is not None) == (reference.is_interwoven(A, S) is not None)
    if cert is not None:
        assert is_chain_certificate(A, cert)


@settings(max_examples=200, deadline=None)
@given(A=dd_matrices(max_n=6))
def test_chain_equivalence_and_constructor_agreement(A):
    T = non_sdd_rows(A)
    diag_nonzero = bool((np.asarray(A.diagonal_modulus) > 0.0).all())
    rep = chain_condition(A)
    if not T.is_full and diag_nonzero:
        # every row of T then has an off-diagonal entry, so a lone
        # unreachable row is impossible and the two conditions coincide
        assert (not rep.stalled) == (reference.is_interwoven(A, T) is not None)
    if not rep.stalled and not T.is_full:
        for cert in (interwoven_from_peeling(rep), _from_peeling(A)):
            assert cert is not None
            assert cert.subset.members == T.members
            assert verify_certificate(A, cert)


@settings(max_examples=300, deadline=None)
@given(
    A=st.one_of(dd_matrices(max_n=8), pattern_matrices(max_n=6)),
    tol=st.sampled_from([0.0, 1e-3, 0.2]),
)
def test_the_chains_certify_t_wherever_the_peel_does(A, tol):
    """T's one interwoven certificate is the chains': the peel's adds nothing.

    The peel layers only rows the chains reach, so wherever the peel
    leaves at most one row of T unlayered, and so certifies T, the
    chains do too; at tol 0 on dominant input the two are equal.
    """
    chain_cert = interwoven_from_peeling(chain_condition(A, tol))
    peel_cert = interwoven_from_peeling(peel_levels(A, tol))
    if peel_cert is not None:
        assert chain_cert is not None and verify_certificate(A, chain_cert)
    if tol == 0.0:
        assert peel_cert == chain_cert


def derived_interwoven(report: dict) -> tuple[bool, int | None]:
    """T's interwoven ``holds`` and 1-based ``leftover``, derived from a report.

    The rule the README states: T is interwoven iff |T| <= 1, or T is not
    every row and at most one item of ``chain.next`` is null.  The
    leftover is that null row, or else the deepest reached row (the
    longest chain of hops, the larger index on a tie); it is null when
    T is not interwoven or |T| <= 1.
    """
    t_set, hops, n = report["t_set"], report["chain"]["next"], report["order"]
    if len(t_set) <= 1:
        return True, None
    unreached = [i for i, hop in zip(t_set, hops) if hop is None]
    if len(t_set) == n or len(unreached) > 1:
        return False, None
    if unreached:
        return True, unreached[0]
    hop_of = dict(zip(t_set, hops))
    depth: dict[int, int] = {}
    for start in t_set:
        walk = []
        v = start
        while v in hop_of and v not in depth:
            walk.append(v)
            v = hop_of[v]
        below = depth.get(v, 0)
        for u in reversed(walk):
            below = depth[u] = below + 1
    return True, max(t_set, key=lambda i: (depth[i], i))


@st.composite
def any_matrices(draw, max_n=7):
    """Small magnitudes on and off the diagonal: dominant rows and rows that are not."""
    n = draw(st.integers(1, max_n))
    values = st.sampled_from((0.0, 0.0, 0.0, 0.5, 1.0, 2.0))
    return Matrix([[draw(values) for _ in range(n)] for _ in range(n)])


@settings(max_examples=300, deadline=None)
@given(A=st.one_of(dd_matrices(max_n=8), pattern_matrices(max_n=6), any_matrices()))
def test_the_report_determines_t_s_interwoven_certificate(A):
    """``holds`` and ``leftover`` read off ``t_set``, ``chain.next`` and ``order`` are the library's.

    The report writes no interwoven block; this rule recovers it, and
    agrees with ``interwoven_from_peeling`` of the chains and with
    ``is_interwoven`` of T wherever T is a proper subset or |T| <= 1.
    """
    report, _ = analyze_matrix(A)
    holds, leftover = derived_interwoven(json.loads(emit_json(report)))
    T = non_sdd_rows(A)
    cert = interwoven_from_peeling(chain_condition(A))
    assert holds == (cert is not None)
    assert leftover == (None if cert is None or cert.leftover is None else cert.leftover + 1)
    if len(T) <= 1 or not T.is_full:
        assert is_interwoven(A, T) == cert
