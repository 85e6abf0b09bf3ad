"""Reference implementations of the structural kernels, kept for cross-checks.

These are the direct transcriptions of the definitions that the product
code in ``ddh`` replaces with sparse worklist kernels:

* the dense deleted row sums (``cumsum`` over a zero-diagonal copy) and
  the partial row sum scanning every column of the subset;
* the sparsity graph built by scanning every dense entry;
* the recursive peel that copies the principal submatrix at every stage
  (``is_h_dd`` and ``interwoven_from_peeling``);
* the greedy interwoven closure that rescans every remaining member at
  every step;
* the subset checks that analyze a copied block a second time: the
  subset H-condition deciding a dominant inner block with the full
  ``is_h_dd`` (scaling solve included), and the SSDD search classifying
  the copied block on T.

They are slow (the peel is O(n^3) on a chain) and exist only so that the
tests can compare the product functions against them, bit for bit.
"""

from __future__ import annotations

import numpy as np

from ddh import (
    DirectedGraph,
    DominanceClass,
    HVerdict,
    IndexSet,
    InterwovenCertificate,
    Matrix,
    PeelReason,
    SHReport,
    classify_dominance,
    comparison_matrix,
    inverse_nonneg_oracle,
    lu_solve,
    non_sdd_rows,
    principal_submatrix,
    scaling_certificate,
)


def deleted_row_sums(A: Matrix) -> np.ndarray:
    """All deleted row sums by a sequential ``cumsum`` over each dense row."""
    off = A.modulus.copy()
    np.fill_diagonal(off, 0.0)
    return np.cumsum(off, axis=1)[:, -1].copy()


def partial_row_sum(A: Matrix, i: int, S: IndexSet) -> float:
    """Part of row i's deleted sum over S, scanning every member of S."""
    row = A.modulus[i]
    total = 0.0
    for j in S.members:  # increasing column order
        if j != i:
            total += float(row[j])
    return total


def build_graph(A: Matrix) -> DirectedGraph:
    """Digraph of the off-diagonal nonzero pattern, from every dense entry."""
    mod = A.modulus
    adjacency = tuple(
        tuple(int(j) for j in range(A.n) if j != i and mod[i, j] > 0.0)
        for i in range(A.n)
    )
    return DirectedGraph(A.n, adjacency)


def is_h_dd(A: Matrix, tol: float = 0.0) -> HVerdict:
    """Recursive peel that restricts to a copied submatrix at every stage."""
    if classify_dominance(A, tol) is DominanceClass.NOT_DD:
        raise ValueError("is_h_dd requires a diagonally dominant matrix")
    active = IndexSet.full(A.n)
    sub = A
    trace: list[IndexSet] = []
    while True:
        t_rel = non_sdd_rows(sub, tol)
        t_orig = IndexSet(tuple(active.members[k] for k in t_rel.members), A.n)
        if len(t_orig) == 0:
            return HVerdict(
                is_h=True,
                peel_trace=tuple(trace),
                reason=PeelReason.SDD_REACHED,
                scaling=scaling_certificate(A, tol),
                witness=None,
            )
        if not trace or len(t_orig) < len(trace[-1]):
            trace.append(t_orig)
        zero_rows = [i for i in active.members if A.modulus[i, i] == 0.0]
        if zero_rows:
            return HVerdict(
                is_h=False,
                peel_trace=tuple(trace),
                reason=PeelReason.ZERO_DIAGONAL,
                scaling=None,
                witness=IndexSet((zero_rows[0],), A.n),
            )
        if len(t_orig) == len(active):
            return HVerdict(
                is_h=False,
                peel_trace=tuple(trace),
                reason=PeelReason.STAGNANT_PEEL,
                scaling=None,
                witness=active,
            )
        active = t_orig
        sub = principal_submatrix(A, active)


def _trivial_certificate(S: IndexSet) -> InterwovenCertificate:
    return InterwovenCertificate(subset=S, p_seq=(), q_seq=(), leftover=None)


def is_interwoven(A: Matrix, S: IndexSet) -> InterwovenCertificate | None:
    """Greedy closure that rescans all remaining members at every step."""
    s = len(S)
    if s <= 1:
        return _trivial_certificate(S)
    mod = A.modulus
    outside = list(S.complement().members)
    chosen: list[int] = []
    companions: list[int] = []
    remaining = list(S.members)
    while len(chosen) < s - 1:
        pick = None
        for p in remaining:
            q = next((j for j in outside if mod[p, j] > 0.0), None)
            if q is None:
                q = next((j for j in sorted(chosen) if mod[p, j] > 0.0), None)
            if q is not None:
                pick = (p, q)
                break
        if pick is None:
            return None
        p, q = pick
        chosen.append(p)
        companions.append(q)
        remaining.remove(p)
    return InterwovenCertificate(
        subset=S,
        p_seq=tuple(chosen),
        q_seq=tuple(companions),
        leftover=remaining[0],
    )


def interwoven_from_peeling(A: Matrix, tol: float = 0.0) -> InterwovenCertificate | None:
    """Peeling construction that copies the submatrix at every stage."""
    if classify_dominance(A, tol) is DominanceClass.NOT_DD:
        raise ValueError("peeling construction requires a diagonally dominant matrix")
    T = non_sdd_rows(A, tol)
    if len(T) <= 1:
        return _trivial_certificate(T)
    if T.is_full:
        return None
    mod = A.modulus
    current = list(T.members)
    pool = list(T.complement().members)
    p_seq: list[int] = []
    q_seq: list[int] = []
    while True:
        sub = principal_submatrix(A, IndexSet(tuple(current), A.n))
        t_rel = non_sdd_rows(sub, tol)
        t_next = [current[k] for k in t_rel.members]
        batch = [i for i in current if i not in set(t_next)]
        if not batch:
            return None
        if len(t_next) == 0:
            leftover = batch.pop()
        for p in batch:
            q = next((j for j in pool if mod[p, j] > 0.0), None)
            if q is None:
                return None
            p_seq.append(p)
            q_seq.append(q)
        if len(t_next) == 0:
            break
        if len(t_next) == 1:
            leftover = t_next[0]
            break
        pool = batch
        current = t_next
    return InterwovenCertificate(
        subset=T, p_seq=tuple(p_seq), q_seq=tuple(q_seq), leftover=leftover
    )


def find_ssdd_set_dd(A: Matrix, tol: float = 0.0) -> IndexSet | None:
    """SSDD search that classifies the copied block on T."""
    if classify_dominance(A, tol) is DominanceClass.NOT_DD:
        raise ValueError("find_ssdd_set_dd requires a diagonally dominant matrix")
    T = non_sdd_rows(A, tol)
    if len(T) == 0:
        return IndexSet((0,), A.n) if A.n >= 2 else None
    if T.is_full:
        return None
    if classify_dominance(principal_submatrix(A, T), tol) is DominanceClass.SDD:
        return T
    return None


def _gap_ratio(num: float, den: float) -> float:
    if den != 0.0:
        return num / den
    if num > 0.0:
        return float("inf")
    if num < 0.0:
        return float("-inf")
    return 0.0


def s_h_check(A: Matrix, S: IndexSet, tol: float = 0.0) -> SHReport:
    """Subset H-condition deciding a dominant inner block with ``is_h_dd``."""
    if S.universe_size != A.n:
        raise ValueError("subset universe does not match matrix order")
    if len(S) == 0 or S.is_full:
        raise ValueError("s_h_check requires a nonempty proper subset")
    sbar = S.complement()
    sub = principal_submatrix(A, S)
    diag = A.diagonal_modulus
    ratios = []
    degenerate = False
    for j in sbar.members:
        num = diag[j] - partial_row_sum(A, j, sbar)
        den = partial_row_sum(A, j, S)
        if num == 0.0 and den == 0.0:
            degenerate = True
        ratios.append(_gap_ratio(num, den))
    b2 = min(ratios)
    note = "b2 degenerate: some outside row has zero gap and zero coupling" if degenerate else None
    outside_sums = np.array([partial_row_sum(A, i, sbar) for i in S.members])
    x = lu_solve(comparison_matrix(sub).entries, outside_sums)
    if x is None:
        return SHReport(
            subset=S, lhs=None, b2=b2, satisfied=False, inner_h=False,
            note=note or "inner comparison block is singular",
        )
    lhs = float(np.max(np.abs(x)))
    if classify_dominance(sub, tol) is not DominanceClass.NOT_DD:
        inner_h = is_h_dd(sub, tol).is_h
    else:
        inner_h = inverse_nonneg_oracle(sub)
    satisfied = bool(inner_h and lhs < b2)
    return SHReport(subset=S, lhs=lhs, b2=b2, satisfied=satisfied, inner_h=inner_h, note=note)


def sh_key(rep):
    """Every field of an SHReport, reals by their bits; other values as given."""
    if not isinstance(rep, SHReport):
        return rep
    lhs = None if rep.lhs is None else rep.lhs.hex()
    return (rep.subset, lhs, rep.b2.hex(), rep.satisfied, rep.inner_h, rep.note)


def verdict_key(v):
    """Every field of an HVerdict, the scaling by its bits; other values as given."""
    if not isinstance(v, HVerdict):
        return v
    scaling = None if v.scaling is None else (v.scaling.d.tobytes(), v.scaling.margin.hex())
    return (v.is_h, v.peel_trace, v.reason, v.witness, scaling)
