"""Interwoven index sets: decision, verification and construction.

A proper subset S of the indices is *interwoven* for a matrix when
|S| <= 1, or when all but one of its members can be ordered as
p_1, ..., p_{s-1} with companions q_1, ..., q_{s-1} such that
a_{p_i q_i} != 0, q_1 lies outside S, and each later q_i lies outside S
or among the earlier p's.  Informally: S can be unravelled one index at
a time, each unravelled index pointing at something already outside.

The members that can ever be unravelled are exactly those with a chain
of nonzero entries out of S, so the decision and its certificate come
from the layers out of S (``core.layers_out_of``): S is interwoven iff
at most one member is never layered, and listing the layered members
level by level, each paired with its next hop one level down, is a
valid sequence (the Shivakumar-Chew chain condition and the interwoven
condition are one statement).  One helper reads a certificate off
layers and next hops, so both constructions for T are that reading:
``interwoven_from_chains`` of the analysis's own ``ChainReport`` (also
how ``is_interwoven`` decides any subset), and ``interwoven_from_peeling``
of the ``Peel`` that ``hmatrix.is_h_dd`` decided with
(``HVerdict.peel``), the same traversal with the exact-gap re-test.  On
a dominant matrix at tol 0 the two certificates are equal.  A report
stores neither certificate, only whether each exists and its leftover:
``verify`` derives both again from its own chains and peel and checks
them with ``verify_certificate``.  The greedy closure and a brute-force
search stay in the test suite as references.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import IndexSet, Matrix, Peel
from .graph import ChainReport, chains_out_of


class InterwovenCertificate(NamedTuple):
    """Sequences witnessing that ``subset`` is interwoven.

    ``p_seq`` holds |S|-1 distinct members of S, ``q_seq`` their
    companions, and ``leftover`` the single member of S not in ``p_seq``
    (None when |S| <= 1 and the sequences are empty).
    """

    subset: IndexSet
    p_seq: tuple[int, ...]
    q_seq: tuple[int, ...]
    leftover: int | None


def _trivial_certificate(S: IndexSet) -> InterwovenCertificate:
    return InterwovenCertificate(subset=S, p_seq=(), q_seq=(), leftover=None)


def _check_subset(A: Matrix, S: IndexSet):
    if S.universe_size != A.n:
        raise ValueError("subset universe does not match matrix order")
    if len(S) > 1 and S.is_full:
        raise ValueError("interwoven sets must be proper subsets of the index set")


def verify_certificate(A: Matrix, cert: InterwovenCertificate) -> bool:
    """Check every structural requirement of a certificate against A."""
    S = cert.subset
    _check_subset(A, S)
    s = len(S)
    expected = max(s - 1, 0)
    if len(cert.p_seq) != expected or len(cert.q_seq) != expected:
        return False
    if s <= 1:
        return cert.leftover is None
    members = S.member_set
    p_set = set(cert.p_seq)
    if len(p_set) != expected or not p_set <= members:
        return False
    if cert.leftover is None or cert.leftover not in members or cert.leftover in p_set:
        return False
    unravelled = set()  # companions may lie outside S or among the earlier p's
    for p, q in zip(cert.p_seq, cert.q_seq):
        if not 0 <= q < A.n or (q in members and q not in unravelled):
            return False
        unravelled.add(p)
    # every pair is now in range: one sparse lookup for all of them
    return all(A.pattern.has_edges(cert.p_seq, cert.q_seq))


def is_interwoven(A: Matrix, S: IndexSet) -> InterwovenCertificate | None:
    """A certificate when S is interwoven, else None (S's own chains)."""
    _check_subset(A, S)
    return interwoven_from_chains(chains_out_of(A, S))


def _from_layers(S: IndexSet, reached, next_hop: dict[int, int]) -> InterwovenCertificate | None:
    """Certificate for S read off the layers out of it (``core.layers_out_of``).

    ``reached`` lists the layered members level by level, and
    ``next_hop`` maps each to a column one level down.  In that order
    each member's next hop is a valid companion: level-one members point
    outside S, deeper members at a member listed earlier.  A member with
    no hop can never be unravelled: one is the leftover, two or more
    mean S is not interwoven (as when S is everything).  With every
    member layered, the last one listed is the leftover.
    """
    if len(S) <= 1:
        return _trivial_certificate(S)
    missing = len(S) - len(next_hop)
    if missing > 1:
        return None
    p_seq = tuple(reached)
    if missing:
        leftover = next(i for i in S.members if i not in next_hop)
    else:
        p_seq, leftover = p_seq[:-1], p_seq[-1]
    return InterwovenCertificate(
        subset=S, p_seq=p_seq, q_seq=tuple(next_hop[p] for p in p_seq), leftover=leftover
    )


def interwoven_from_chains(chain: ChainReport) -> InterwovenCertificate | None:
    """Certificate for ``chain.subset`` read off its shortest chains."""
    return _from_layers(chain.subset, chain.reached, chain.next_hop)


def interwoven_from_peeling(peel: Peel) -> InterwovenCertificate | None:
    """Certificate for the non-strict rows read off the recursive peel.

    ``peel`` is a dominant matrix's ``core.peel_levels``
    (``HVerdict.peel``).  A peeled row became strict when a column of the
    previous level left T, and its next hop is the smallest such column
    (for the first level, outside T): its companion.  Succeeds iff at
    most one row of T is never peeled; a stall on two or more (as when T
    is everything) means T is not interwoven and yields None.  Reads the
    peel only, no entry of the matrix.
    """
    return _from_layers(peel.t_set, (i for level in peel.levels for i in level), peel.next_hop)
