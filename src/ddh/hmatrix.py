"""H-matrix decisions for diagonally dominant matrices, with certificates.

The decision algorithm is a recursive peel: a diagonally dominant matrix
is an H-matrix exactly when its restriction to the non-strict rows is,
so the peel restricts to T(A), recomputes T there, and repeats.
``is_h_dd`` runs it as one worklist pass over the sparse pattern
(``core.peel_levels``): after each level only the rows touching a
just-peeled column are re-tested, and no submatrix is copied.  The peel
either empties T (H-matrix; a strictly dominance-inducing positive
scaling is then computed and checked), hits a zero diagonal entry, or
stalls with T equal to the whole current block (a restriction that is
dominant with no strict row).  The latter two produce a witness set
whose principal submatrix certifies non-H-status by inspection.

``s_sdd_check`` / ``s_h_check`` implement the two classical
subset-partitioned conditions (cross-validated in the test suite);
``s_h_check`` decides a dominant inner block by the peel alone, and
``find_ssdd_set_dd`` reads row sums over T instead of copying a block.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    DominanceClass,
    InconsistencyError,
    IndexSet,
    Matrix,
    classify_dominance,
    comparison_matrix,
    non_sdd_rows,
    partial_row_sum,
    peel_levels,
    principal_submatrix,
)
from .oracle import inverse_nonneg_oracle, lu_solve


class PeelReason(Enum):
    """How the recursive peel terminated."""

    SDD_REACHED = "SddReached"
    ZERO_DIAGONAL = "ZeroDiagonal"
    STAGNANT_PEEL = "StagnantPeel"


@dataclass(frozen=True, eq=False)
class ScalingCertificate:
    """Positive column scaling making the matrix strictly dominant.

    ``margin`` is the smallest scaled dominance gap
    min_i (|a_ii| d_i - sum_{j != i} |a_ij| d_j); positive iff the scaled
    matrix is strictly diagonally dominant.  d is normalized to max 1.
    """

    d: np.ndarray
    margin: float


@dataclass(frozen=True, eq=False)
class HVerdict:
    """Outcome of the recursive peel with its full trace.

    ``peel_trace`` lists the successive non-strict row sets in original
    indices (strictly shrinking, empty only when the input is already
    strictly dominant).  Exactly one of ``scaling`` (H) and ``witness``
    (non-H) is present.
    """

    is_h: bool
    peel_trace: tuple[IndexSet, ...]
    reason: PeelReason
    scaling: ScalingCertificate | None
    witness: IndexSet | None


def scaling_margin(A: Matrix, d: np.ndarray) -> float:
    """Smallest dominance gap of A after scaling column j by d_j."""
    comp = comparison_matrix(A).entries
    return float(np.min(comp @ np.asarray(d, dtype=np.float64)))


def scaling_certificate(A: Matrix, tol: float = 0.0) -> ScalingCertificate:
    """Solve the comparison system for an all-ones gap, then normalize.

    The caller must already know A is an H-matrix; a failed solve,
    a nonpositive component or a nonpositive recomputed margin signals
    that claim was wrong and raises InconsistencyError.
    """
    comp = comparison_matrix(A).entries
    d = lu_solve(comp, np.ones(A.n))
    if d is None:
        raise InconsistencyError("comparison matrix is singular; input is not H")
    if (d <= 0.0).any():
        raise InconsistencyError("scaling vector has a nonpositive component")
    d = d / float(np.max(d))
    margin = scaling_margin(A, d)
    if not margin > 0.0:
        raise InconsistencyError(f"scaling margin {margin!r} is not positive")
    d = d.copy()
    d.setflags(write=False)
    return ScalingCertificate(d=d, margin=margin)


def _require_dd(A: Matrix, tol: float, what: str):
    if classify_dominance(A, tol) is DominanceClass.NOT_DD:
        raise ValueError(f"{what} requires a diagonally dominant matrix")


def is_h_dd(A: Matrix, tol: float = 0.0) -> HVerdict:
    """Recursive peel deciding H-status of a diagonally dominant matrix."""
    _require_dd(A, tol, "is_h_dd")
    zero_rows = np.flatnonzero(A.diagonal_modulus == 0.0)
    if zero_rows.size:
        # dominance leaves such a row at most tol off the diagonal: it sits
        # in T and can never peel
        return HVerdict(
            is_h=False,
            peel_trace=(non_sdd_rows(A, tol),),
            reason=PeelReason.ZERO_DIAGONAL,
            scaling=None,
            witness=IndexSet((int(zero_rows[0]),), A.n),
        )
    peel = peel_levels(A, tol)
    trace = peel.active_sets()
    if peel.stalled:
        # the last restriction is dominant with no strict row
        return HVerdict(
            is_h=False,
            peel_trace=tuple(trace),
            reason=PeelReason.STAGNANT_PEEL,
            scaling=None,
            witness=trace[-1],
        )
    return HVerdict(
        is_h=True,
        peel_trace=tuple(trace[:-1]),
        reason=PeelReason.SDD_REACHED,
        scaling=scaling_certificate(A, tol),
        witness=None,
    )


def non_h_witness(A: Matrix, tol: float = 0.0) -> IndexSet:
    """Witness set of a non-H verdict; error when A is an H-matrix."""
    verdict = is_h_dd(A, tol)
    if verdict.is_h:
        raise ValueError("non_h_witness called on an H-matrix")
    assert verdict.witness is not None
    return verdict.witness


def _check_proper_subset(A: Matrix, S: IndexSet, what: str):
    if S.universe_size != A.n:
        raise ValueError("subset universe does not match matrix order")
    if len(S) == 0 or S.is_full:
        raise ValueError(f"{what} requires a nonempty proper subset")


def s_sdd_check(A: Matrix, S: IndexSet) -> bool:
    """Two-condition strict dominance test partitioned by S.

    Requires |a_ii| > r_i^S on S and, for every cross pair (i in S,
    j outside), (|a_ii| - r_i^S)(|a_jj| - r_j^Sbar) > r_i^Sbar r_j^S.
    Strict float comparisons throughout.
    """
    _check_proper_subset(A, S, "s_sdd_check")
    sbar = S.complement()
    diag = A.diagonal_modulus
    gap_s = np.array([diag[i] - partial_row_sum(A, i, S) for i in S.members])
    if not (gap_s > 0.0).all():
        return False
    cross_s = np.array([partial_row_sum(A, i, sbar) for i in S.members])
    gap_sbar = np.array([diag[j] - partial_row_sum(A, j, sbar) for j in sbar.members])
    cross_sbar = np.array([partial_row_sum(A, j, S) for j in sbar.members])
    return bool((np.outer(gap_s, gap_sbar) > np.outer(cross_s, cross_sbar)).all())


def find_ssdd_set_dd(A: Matrix, tol: float = 0.0) -> IndexSet | None:
    """Subset passing ``s_sdd_check`` for a diagonally dominant matrix.

    For dominant matrices the search collapses: the non-strict rows T
    work iff their principal submatrix is strictly dominant, read off
    each row's sum over T; when T is empty any singleton works ({0} by
    convention).  Returns None when no subset exists (including order 1,
    which has no proper nonempty subset at all).
    """
    _require_dd(A, tol, "find_ssdd_set_dd")
    T = non_sdd_rows(A, tol)
    if len(T) == 0:
        return IndexSet((0,), A.n) if A.n >= 2 else None
    diag = A.diagonal_modulus
    if not T.is_full and all(diag[i] - partial_row_sum(A, i, T) > tol for i in T.members):
        return T
    return None


@dataclass(frozen=True, eq=False)
class SHReport:
    """Outcome of the subset H-condition on ``subset``.

    ``lhs`` is the infinity norm of the inner comparison block's inverse
    applied to the outside row sums (None when that block is singular);
    ``b2`` the smallest outside dominance-gap ratio, computed with the
    conventions a/0 = +-inf (sign of a) and 0/0 = 0.  ``satisfied``
    requires the inner block to be an H-matrix and lhs < b2.
    """

    subset: IndexSet
    lhs: float | None
    b2: float
    satisfied: bool
    inner_h: bool
    note: str | None = None


def _gap_ratio(num: float, den: float) -> float:
    if den != 0.0:
        return num / den
    if num > 0.0:
        return float("inf")
    if num < 0.0:
        return float("-inf")
    return 0.0


def s_h_check(A: Matrix, S: IndexSet, tol: float = 0.0) -> SHReport:
    """Subset H-condition: inner block H, and scaled cross sums below b2."""
    _check_proper_subset(A, S, "s_h_check")
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
    comp = comparison_matrix(sub).entries
    x = lu_solve(comp, outside_sums)
    if x is None:
        return SHReport(
            subset=S,
            lhs=None,
            b2=b2,
            satisfied=False,
            inner_h=False,
            note=note or "inner comparison block is singular",
        )
    lhs = float(np.max(np.abs(x)))
    if classify_dominance(sub, tol) is not DominanceClass.NOT_DD:
        # a dominant block is H iff its peel does not stall (a zero
        # diagonal stalls it too), so no second scaling solve is needed
        inner_h = not peel_levels(sub, tol).stalled
    else:
        inner_h = inverse_nonneg_oracle(sub)
    satisfied = bool(inner_h and lhs < b2)
    return SHReport(
        subset=S, lhs=lhs, b2=b2, satisfied=satisfied, inner_h=inner_h, note=note
    )
