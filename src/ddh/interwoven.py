"""Interwoven index sets: decision, verification and construction.

A proper subset S of the indices is *interwoven* for a matrix when
|S| <= 1, or when all but one of its members can be ordered as
p_1, ..., p_{s-1} with companions q_1, ..., q_{s-1} such that
a_{p_i q_i} != 0, q_1 lies outside S, and each later q_i lies outside S
or among the earlier p's.  Informally: S can be unravelled one index at
a time, each unravelled index pointing at something already outside.

The decision procedure is greedy.  "p is addable" (p has a nonzero entry
into the outside-or-already-chosen set) is monotone in the chosen set,
so repeatedly adding the smallest addable member reaches the unique
maximal chosen set; S is interwoven iff that closure has at least
|S| - 1 members.  The closure runs on a min-heap over the sparse
pattern: a member is pushed once, when it first becomes addable, and
the smallest is popped, so the decision costs O(nnz + |S| log |S|).
The brute-force equivalence over all small patterns is part of the
acceptance suite.  The constructions for T reuse the analysis instead
of recomputing it: one orders the paths of the ``ChainReport`` from
``graph.chain_condition``, the other pairs the levels of the ``Peel``
that ``hmatrix.is_h_dd`` decided with (``HVerdict.peel``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .core import IndexSet, Matrix, Peel
from .graph import ChainReport


@dataclass(frozen=True)
class InterwovenCertificate:
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
    mod = A.modulus
    allowed = set(S.complement().members)
    for p, q in zip(cert.p_seq, cert.q_seq):
        if q not in allowed or mod[p, q] == 0.0:
            return False
        allowed.add(p)
    return True


def is_interwoven(A: Matrix, S: IndexSet) -> InterwovenCertificate | None:
    """Greedy decision: a certificate when S is interwoven, else None.

    A member enters the heap when it first becomes addable, which
    happens at the start (an entry outside S) or when one of its
    columns is chosen; the heap minimum is the smallest addable member.
    """
    _check_subset(A, S)
    s = len(S)
    if s <= 1:
        return _trivial_certificate(S)
    pat = A.pattern
    t_indptr, t_indices = pat.t_indptr.tolist(), pat.t_indices.tolist()
    OUTSIDE, WAITING, QUEUED, CHOSEN = 0, 1, 2, 3
    state = [OUTSIDE] * A.n
    for p in S.members:
        state[p] = WAITING
    heap = []  # filled in increasing order, so already a heap
    for p in S.members:
        cols, _ = pat.row(p)
        if any(state[j] == OUTSIDE for j in cols):
            state[p] = QUEUED
            heap.append(p)
    chosen: list[int] = []
    companions: list[int] = []
    while len(chosen) < s - 1:
        if not heap:
            return None
        p = heapq.heappop(heap)
        # smallest companion, preferring outside S over chosen members
        q = None
        cols, _ = pat.row(p)
        for j in cols:
            if state[j] == OUTSIDE:
                q = j
                break
            if state[j] == CHOSEN and q is None:
                q = j
        state[p] = CHOSEN
        chosen.append(p)
        companions.append(q)
        for i in t_indices[t_indptr[p]:t_indptr[p + 1]]:
            if state[i] == WAITING:
                state[i] = QUEUED
                heapq.heappush(heap, i)
    return InterwovenCertificate(
        subset=S,
        p_seq=tuple(chosen),
        q_seq=tuple(companions),
        leftover=next(p for p in S.members if state[p] != CHOSEN),
    )


def interwoven_from_chains(chain: ChainReport) -> InterwovenCertificate | None:
    """Build a certificate for the non-strict rows from shortest chains.

    ``chain`` is the matrix's ``chain_condition``; T is its path sources.
    Members of T are grouped by breadth-first distance to the strict
    rows; listing them in nondecreasing distance order (dropping the
    last) makes each member's chain successor a valid companion: depth-1
    members point outside T, deeper members point at a member one level
    shallower, which appears earlier in the sequence.
    """
    if not chain.holds:
        return None
    T = IndexSet.from_indices(chain.paths, chain.unreachable.universe_size)
    if len(T) <= 1:
        return _trivial_certificate(T)
    ordered = sorted(T.members, key=lambda i: (len(chain.paths[i]), i))
    p_seq = tuple(ordered[:-1])
    q_seq = tuple(chain.paths[p][1] for p in p_seq)
    return InterwovenCertificate(
        subset=T, p_seq=p_seq, q_seq=q_seq, leftover=ordered[-1]
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
