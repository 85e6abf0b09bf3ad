import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddh import (
    IndexSet,
    InterwovenCertificate,
    Matrix,
    chain_condition,
    interwoven_from_chains,
    interwoven_from_peeling,
    is_interwoven,
    non_sdd_rows,
    verify_certificate,
)
from helpers import brute_force_interwoven, dd_matrices, pattern_matrices, proper_subsets

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

    def test_wrong_leftover_rejected(self):
        cert = InterwovenCertificate(IndexSet((0, 1), 3), (1,), (2,), 1)
        assert not verify_certificate(LADDER, cert)

    def test_length_mismatch_rejected(self):
        cert = InterwovenCertificate(IndexSet((0, 1), 3), (), (), None)
        assert not verify_certificate(LADDER, cert)


class TestIsInterwoven:
    def test_greedy_picks_the_connected_member(self):
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
        cert = interwoven_from_chains(chain_condition(LADDER))
        assert cert is not None
        assert cert.p_seq == (1,) and cert.q_seq == (2,) and cert.leftover == 0

    def test_trivial_when_one_nonstrict_row(self):
        cert = interwoven_from_chains(chain_condition(Matrix([[1, 1], [1, 2]])))
        assert cert is not None and cert.p_seq == () and cert.subset.members == (0,)

    def test_none_when_chain_fails(self):
        assert interwoven_from_chains(chain_condition(TWO_CYCLE)) is None


class TestFromPeeling:
    def test_peels_ladder(self):
        cert = interwoven_from_peeling(LADDER)
        assert cert is not None
        assert cert.p_seq == (1,) and cert.q_seq == (2,) and cert.leftover == 0

    def test_empty_t_gives_trivial(self):
        cert = interwoven_from_peeling(Matrix([[2, 1], [1, 2]]))
        assert cert is not None and cert.subset.members == ()

    def test_all_equality_rows_fail(self):
        assert interwoven_from_peeling(Matrix([[1, 1], [1, 1]])) is None

    def test_stalled_peel_fails(self):
        assert interwoven_from_peeling(TWO_CYCLE) is None

    def test_rejects_non_dd(self):
        with pytest.raises(ValueError):
            interwoven_from_peeling(Matrix([[1, 2], [2, 1]]))

    def test_multi_stage_peel(self):
        # 0 -> 1 -> 2 -> 3: three non-strict rows peeled one per stage
        A = Matrix([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 2]])
        cert = interwoven_from_peeling(A)
        assert cert is not None
        assert verify_certificate(A, cert)
        assert cert.p_seq == (2, 1) and cert.q_seq == (3, 2) and cert.leftover == 0


@settings(max_examples=200, deadline=None)
@given(data=st.data(), A=pattern_matrices(min_n=2, max_n=5))
def test_greedy_matches_brute_force(A, data):
    S = data.draw(proper_subsets(A.n))
    cert = is_interwoven(A, S)
    assert (cert is not None) == brute_force_interwoven(A, S)
    if cert is not None:
        assert verify_certificate(A, cert)


@settings(max_examples=200, deadline=None)
@given(A=dd_matrices(max_n=6))
def test_chain_equivalence_and_constructor_agreement(A):
    T = non_sdd_rows(A)
    diag_nonzero = bool((A.diagonal_modulus > 0.0).all())
    rep = chain_condition(A)
    if not T.is_full and diag_nonzero:
        assert rep.holds == (is_interwoven(A, T) is not None)
    if rep.holds and not T.is_full:
        for cert in (interwoven_from_chains(rep), interwoven_from_peeling(A)):
            assert cert is not None
            assert cert.subset.members == T.members
            assert verify_certificate(A, cert)
