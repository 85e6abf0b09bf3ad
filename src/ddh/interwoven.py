"""Interwoven index sets: decision, verification and construction.

A proper subset S of the indices is *interwoven* for a matrix when
|S| <= 1, or when all but one of its members can be ordered as
p_1, ..., p_{s-1} with companions q_1, ..., q_{s-1} such that
a_{p_i q_i} != 0, q_1 lies outside S, and each later q_i lies outside S
or among the earlier p's.  Informally: S can be unravelled one index at
a time, each unravelled index pointing at something already outside.

The members that can ever be unravelled are exactly those with a chain
of nonzero entries out of S, so the decision and its certificate come
from the one reverse breadth-first search of ``graph.chains_out_of``:
S is interwoven iff at most one member is unreached, and listing the
reached members by distance, each paired with its next hop, is a valid
sequence (the Shivakumar-Chew chain condition and the interwoven
condition are one statement).  ``is_interwoven`` decides any subset
that way, and ``interwoven_from_chains`` reads the certificate for T off
the analysis's own ``ChainReport``.  The second construction for T pairs
the levels of the ``Peel`` that ``hmatrix.is_h_dd`` decided with
(``HVerdict.peel``).  A report stores neither certificate, only whether
each exists and its leftover: ``verify`` derives both again from its own
chains and peel and checks them with ``verify_certificate``.  The greedy
closure and a brute-force search stay in the test suite as references.
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
    allowed = set(S.complement().members)
    for p, q in zip(cert.p_seq, cert.q_seq):
        if q not in allowed:
            return False
        allowed.add(p)
    # every pair is now in range: one sparse lookup for all of them
    return all(A.pattern.has_edges(cert.p_seq, cert.q_seq))


def is_interwoven(A: Matrix, S: IndexSet) -> InterwovenCertificate | None:
    """A certificate when S is interwoven, else None (S's own chains)."""
    _check_subset(A, S)
    return interwoven_from_chains(chains_out_of(A, S))


def interwoven_from_chains(chain: ChainReport) -> InterwovenCertificate | None:
    """Certificate for ``chain.subset`` read off its shortest chains.

    Listing the reached members in nondecreasing distance order makes
    each member's next hop a valid companion: depth-1 members point
    outside S, deeper members at a member one level shallower, which
    appears earlier in the sequence.  An unreached member has no chain
    out, so it can never be unravelled: one is the leftover, two or more
    mean S is not interwoven (as when S is everything).  With every
    member reached, the deepest one (listed last) is the leftover.
    """
    S = chain.subset
    if len(S) <= 1:
        return _trivial_certificate(S)
    if len(chain.unreachable) > 1:
        return None
    if chain.unreachable:
        p_seq, leftover = chain.reached, chain.unreachable.members[0]
    else:
        p_seq, leftover = chain.reached[:-1], chain.reached[-1]
    return InterwovenCertificate(
        subset=S,
        p_seq=p_seq,
        q_seq=tuple(chain.next_hop[p] for p in p_seq),
        leftover=leftover,
    )


def interwoven_from_peeling(A: Matrix, peel: Peel) -> InterwovenCertificate | None:
    """Build a certificate for the non-strict rows by recursive peeling.

    ``peel`` is A's ``core.peel_levels`` (``HVerdict.peel``); the caller
    guarantees that A is diagonally dominant.  Restricting A to its
    non-strict rows T and recomputing T there peels off a batch of
    indices per stage: rows that became strict inside the restriction.
    A freshly peeled row gained its strictness from a column dropped in
    the previous stage, so it always has a companion in the previous
    batch (stage one pairs into the strict rows of A).  Succeeds iff the
    peel shrinks to at most one index; stalls (no row becomes strict,
    as when T is everything) mean T is not interwoven and yield None.
    """
    T = peel.t_set
    if len(T) <= 1:
        return _trivial_certificate(T)
    stage = [0 if i not in T else -1 for i in range(A.n)]  # -1: not yet peeled
    p_seq: list[int] = []
    q_seq: list[int] = []
    left = len(T)
    for k, batch in enumerate(peel.levels, start=1):
        for i in batch:
            stage[i] = k
        left -= len(batch)
        batch = list(batch)
        if left == 0:
            leftover = batch.pop()  # drop the largest; nothing pairs into it
        for p in batch:
            # smallest companion in the previous batch
            cols, _ = A.pattern.row(p)
            q = next((j for j in cols if stage[j] == k - 1), None)
            if q is None:
                return None
            p_seq.append(p)
            q_seq.append(q)
        if left <= 1:
            if left == 1:
                leftover = next(i for i in T.members if stage[i] == -1)
            return InterwovenCertificate(
                subset=T, p_seq=tuple(p_seq), q_seq=tuple(q_seq), leftover=leftover
            )
    return None  # peel stalled on two or more rows
