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
condition are one statement).  One reader, ``interwoven_from_peeling``,
reads a certificate off any ``core.Peel``: the analysis's chains out of
T (``graph.chain_condition``), S's own chains (how ``is_interwoven``
decides any subset), and the peel that ``hmatrix.is_h_dd`` decided with
(``HVerdict.peel``).  T's one certificate is the chains': on a dominant
matrix at tol 0 the peel is the chains, so the peel's is the same one,
and at any tol the peel's exists only where the chains' does, since the
peel layers only rows the chains reach.  A report stores only whether
it exists and its leftover: ``verify`` derives it again from its own
chains and checks it with ``verify_certificate``.  The greedy closure and a
brute-force search stay in the test suite as references.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import IndexSet, Matrix, Peel
from .graph import chains_out_of


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
    return interwoven_from_peeling(chains_out_of(A, S))


def interwoven_from_peeling(peel: Peel) -> InterwovenCertificate | None:
    """Certificate for ``peel.t_set`` read off its layers (``core.layers_out_of``).

    ``peel`` is any ``core.Peel``: the chains out of a set, or a
    dominant matrix's recursive peel onto T (``HVerdict.peel``).  Listed
    level by level, each layered member's next hop is a valid companion:
    level-one members point outside the set, deeper members at a member
    listed earlier (a peeled row became strict when that column left T).
    A member with no hop can never be unravelled: one is the leftover,
    a stall on two or more (as when the set is everything) means the set
    is not interwoven and yields None.  With every member layered, the
    last one listed is the leftover.  Reads the peel only, no entry of
    the matrix.
    """
    S, next_hop = peel.t_set, peel.next_hop
    if len(S) <= 1:
        return _trivial_certificate(S)
    missing = len(S) - len(next_hop)
    if missing > 1:
        return None
    p_seq = tuple(i for level in peel.levels for i in level)
    if missing:
        leftover = next(i for i in S.members if i not in next_hop)
    else:
        p_seq, leftover = p_seq[:-1], p_seq[-1]
    return InterwovenCertificate(
        subset=S, p_seq=p_seq, q_seq=tuple(next_hop[p] for p in p_seq), leftover=leftover
    )
