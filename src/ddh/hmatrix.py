"""H-matrix decisions for diagonally dominant matrices, with certificates.

The decision algorithm is a recursive peel: a diagonally dominant matrix
is an H-matrix exactly when its restriction to the non-strict rows is,
so the peel restricts to T(A), recomputes T there, and repeats.
``is_h_dd`` runs it as one worklist pass over the sparse pattern
(``core.peel_levels``, the traversal ``core.layers_out_of`` of T with an
exact-gap re-test, skipped at tol 0 on dominant input, where it cannot
fail and the peel is the chains): after each level only the rows
touching a just-peeled column are re-tested, and no submatrix is copied.
The peel either empties T (H-matrix), hits a zero diagonal entry, or
stalls with T equal to the whole current block (a restriction that is
dominant with no strict row).  The latter two produce a witness set
whose principal submatrix certifies non-H-status by inspection.  On an exactly dominant
matrix each row a level removes has an entry in a column removed
before it, so every non-strict row has a chain to a strict row, which
proves H (Shivakumar & Chew 1974).  ``peel_outcome`` reads the trace,
the reason and the witness off a ``Peel`` (a stalled block is the rows
of T with no next hop), which ``verify`` rechecks without a solve.  The
verdict keeps its ``Peel`` so that an analysis peels A once:
``scaling_certificate`` sweeps in its order,
``interwoven.interwoven_from_peeling`` reads its next hops, and
``find_ssdd_set_dd`` reads the first.  A scaling, the certificate where
no chain proves H (an H verdict that a peel at tol > 0 proposes), comes
from Gauss-Seidel sweeps; a solve of the comparison system is left to
``s_h_check``'s inner block and to ``solved_scaling`` (the sweeps'
fallback after ``SCALING_SWEEP_CAP`` of them, and the scaling of a
non-dominant H-matrix).  Both hand ``lu_solve`` the comparison rows.
On a dominant matrix each such block is a dominant Z-matrix, which
``sparse_lu`` solves with no numpy: one reachability pass decides
whether it is singular, and x = 1 when the right-hand side is the
block's gap vector (T at tol 0); any other one takes one sparse GTH
elimination, with no subtraction and no pivot threshold, which touches
only stored entries and their fill.

``s_sdd_check`` / ``s_h_check`` implement the two classical
subset-partitioned conditions (cross-validated in the test suite);
``s_h_check`` reads a dominant inner block's H-status off its one
solve, and ``s_h_from_peel`` reads the subset H-condition on T off A's
peel with no solve.
"""

from __future__ import annotations

import math
from array import array
from enum import Enum
from typing import NamedTuple

from .core import (
    DominanceClass,
    InconsistencyError,
    IndexSet,
    Matrix,
    Peel,
    classify_dominance,
    comparison_rows,
    exact_gap,
    exact_sum,
    non_sdd_rows,
    peel_levels,
    principal_submatrix,
)
from .oracle import _max_abs, inverse_nonneg_oracle, lu_solve


class PeelReason(Enum):
    """How the recursive peel terminated."""

    SDD_REACHED = "SddReached"
    ZERO_DIAGONAL = "ZeroDiagonal"
    STAGNANT_PEEL = "StagnantPeel"


class ScalingCertificate(NamedTuple):
    """Positive column scaling making the matrix strictly dominant.

    ``margin`` is the smallest scaled dominance gap
    min_i (|a_ii| d_i - sum_{j != i} |a_ij| d_j), as ``scaling_margin``
    computes it; positive iff the scaled matrix is strictly diagonally
    dominant.  d is normalized to max 1.  Any such d certifies H-status;
    ``scaling_certificate`` returns the first its Gauss-Seidel sweeps
    reach, not the solution of M d = 1.  d is an ``array('d')``.
    """

    d: array
    margin: float


class HVerdict(NamedTuple):
    """Outcome of the recursive peel with its full trace.

    ``peel`` is the level structure the verdict was read from.
    ``peel_trace`` partitions the non-strict rows T in original indices:
    the rows peeled at each level, then, when the peel stalls, the
    stalled block (empty only when the input is already strictly
    dominant; only T itself on a zero diagonal).  ``witness`` is present
    exactly on a non-H verdict.
    """

    is_h: bool
    peel_trace: tuple[IndexSet, ...]
    reason: PeelReason
    witness: IndexSet | None
    peel: Peel


#: Gauss-Seidel sweeps ``scaling_certificate`` runs before it solves M d = 1
SCALING_SWEEP_CAP = 50


def scaling_margin(A: Matrix, d) -> float:
    """Smallest dominance gap of A after scaling column j by d_j.

    min_i (|a_ii| d_i - sum_{j != i} |a_ij| d_j) over the sparse pattern,
    each row summed left to right: O(nnz).  A NaN gap
    makes the margin NaN, wherever it occurs.
    """
    return _margins(A)([float(x) for x in d])


def _margins(A: Matrix):
    """``scaling_margin`` of A as a function of d, with the pattern copied to lists once."""
    pat = A.pattern
    indptr, indices, data = pat.indptr.tolist(), pat.indices.tolist(), pat.data.tolist()
    diag = A.diagonal_modulus.tolist()

    def margin_of(d) -> float:
        margin = math.inf
        for i, a in enumerate(diag):
            total = 0.0
            for k in range(indptr[i], indptr[i + 1]):
                total += data[k] * d[indices[k]]
            gap = a * d[i] - total
            if margin == margin and not gap >= margin:  # smaller, or NaN; NaN stays
                margin = gap
        return margin

    return margin_of


def _sweep_order(peel: Peel) -> list[int]:
    """The strict rows, then each peel level."""
    rank = [0] * peel.t_set.universe_size
    for k, level in enumerate(peel.levels, 1):
        for i in level:
            rank[i] = k
    return sorted(range(len(rank)), key=rank.__getitem__)  # stable


def solved_scaling(A: Matrix) -> ScalingCertificate:
    """Solve M d = 1 for the comparison matrix M, then normalize.

    The scaling of an H-matrix with no peel to sweep in (a non-dominant
    one, which ``analyze --oracle`` treats densely anyway) and the
    fallback of ``scaling_certificate``.  M goes to ``lu_solve`` by rows
    (``comparison_rows``): sparse GTH elimination over the stored
    entries and their fill, with no numpy, when A is dominant, and the
    dense LU otherwise.  Raises InconsistencyError when A is not H after
    all: M singular, a nonpositive component or a nonpositive margin.
    """
    d = lu_solve(comparison_rows(A), [1.0] * A.n)
    if d is None:
        raise InconsistencyError("comparison matrix is singular; input is not H")
    if any(v <= 0.0 for v in d):
        raise InconsistencyError("scaling vector has a nonpositive component")
    top = _max_abs(d)  # every d_i > 0 or NaN: np.max(d)
    d = array("d", [v / top for v in d])
    margin = scaling_margin(A, d)
    if not margin > 0.0:
        raise InconsistencyError(f"scaling margin {margin!r} is not positive")
    return ScalingCertificate(d=d, margin=margin)


def scaling_certificate(A: Matrix, peel: Peel) -> ScalingCertificate:
    """Gauss-Seidel sweeps until the scaling margin is positive.

    x starts at 1, which already serves a strictly dominant A.  A sweep
    sets x_i <- 1 + (sum_{j != i} |a_ij| x_j) / |a_ii| row by row, which
    is Gauss-Seidel on the Jacobi-scaled comparison system D^-1 M x = 1
    (invariant to the scale of A).  After each sweep d is x normalized to
    max 1, and the first d with a positive ``scaling_margin`` is
    returned.  The iterate itself stays unnormalized: rescaling it every
    sweep changes its fixed point, whose margin need not be positive.
    A sweep follows A's ``peel``: the strict rows first, then the peel
    levels in turn, so each row follows the rows that made it strict
    (one sweep serves a chain).

    For an H-matrix M is a nonsingular M-matrix, so from the subsolution
    x = 1 the sweeps increase x monotonically towards the finite solution
    of D^-1 M x = 1, which bounds them.  Any other input (one called H
    only under a tolerance, say) has no such bound; if its x overflows,
    the margin is NaN and the sweeps stop.  After
    ``SCALING_SWEEP_CAP`` sweeps, or on such an overflow, the solve of
    M d = 1 (``solved_scaling``) decides instead.

    The caller must already know A is an H-matrix; when the solve
    fails too (singular, a nonpositive component or a nonpositive
    margin), that claim was wrong and InconsistencyError names the sweep
    count and the last margin.
    """
    d = array("d", [1.0]) * A.n
    margin_of = _margins(A)
    margin = margin_of(d)
    sweeps = 0
    diag = A.diagonal_modulus.tolist()
    if not margin > 0.0 and min(diag) > 0.0:
        pat = A.pattern
        indptr, indices, data = pat.indptr.tolist(), pat.indices.tolist(), pat.data.tolist()
        order = _sweep_order(peel)
        x = [1.0] * A.n
        while sweeps < SCALING_SWEEP_CAP and margin <= 0.0:
            for i in order:
                total = 0.0
                for k in range(indptr[i], indptr[i + 1]):
                    total += data[k] * x[indices[k]]
                x[i] = 1.0 + total / diag[i]
            top = max(x)  # x >= 1 holds no NaN
            d = array("d", [v / top for v in x])
            margin = margin_of(d)
            sweeps += 1
    if not margin > 0.0:
        try:
            return solved_scaling(A)
        except InconsistencyError as exc:
            raise InconsistencyError(
                f"{sweeps} Gauss-Seidel sweeps left the scaling margin at {margin!r}; "
                f"dense solve: {exc}"
            ) from None
    return ScalingCertificate(d=d, margin=margin)


def peel_outcome(
    A: Matrix, peel: Peel
) -> tuple[tuple[IndexSet, ...], PeelReason, IndexSet | None]:
    """Trace, reason and witness that A's peel implies (the structural verdict).

    ``peel`` is A's ``peel_levels``; the caller guarantees dominance.
    The trace is the partition of T that ``HVerdict.peel_trace``
    describes, so it holds |T| indices in all.  The witness is None
    exactly when the reason is ``SDD_REACHED``.
    """
    T = peel.t_set
    # a zero diagonal leaves a row's gap at most 0: it sits in T and can never peel
    zero = next((i for i in T.members if A.diagonal_modulus[i] == 0.0), None)
    if zero is not None:
        return (T,), PeelReason.ZERO_DIAGONAL, IndexSet((zero,), A.n)
    trace = tuple(IndexSet.trusted(level, A.n) for level in peel.levels)
    if peel.stalled:
        # the rows never peeled, those with no next hop, form a dominant block with no strict row
        block = IndexSet.trusted(tuple(i for i in T.members if i not in peel.next_hop), A.n)
        return trace + (block,), PeelReason.STAGNANT_PEEL, block
    return trace, PeelReason.SDD_REACHED, None


def is_h_dd(A: Matrix, tol: float = 0.0) -> HVerdict:
    """Recursive peel deciding H-status of a diagonally dominant matrix: no solve, no scaling."""
    if classify_dominance(A, tol) is DominanceClass.NOT_DD:
        raise ValueError("is_h_dd requires a diagonally dominant matrix")
    peel = peel_levels(A, tol)
    trace, reason, witness = peel_outcome(A, peel)
    return HVerdict(
        is_h=reason is PeelReason.SDD_REACHED,
        peel_trace=trace,
        reason=reason,
        witness=witness,
        peel=peel,
    )


def _check_proper_subset(A: Matrix, S: IndexSet, what: str):
    if S.universe_size != A.n:
        raise ValueError("subset universe does not match matrix order")
    if len(S) == 0 or S.is_full:
        raise ValueError(f"{what} requires a nonempty proper subset")


def s_sdd_check(A: Matrix, S: IndexSet) -> bool:
    """Two-condition strict dominance test partitioned by S.

    Requires g_i = |a_ii| - r_i^S > 0 on S and g_i g_j > c_i c_j for every
    cross pair (i in S, j outside), where g_j = |a_jj| - r_j^Sbar,
    c_i = r_i^Sbar and c_j = r_j^S, exactly: the row test by
    ``core.exact_gap``, the cross test in ``Fraction`` sums.  With every
    g_i > 0 that is g_j > c_j max_i (c_i / g_i): O(n + nnz), no
    |S| x |Sbar| array.
    """
    _check_proper_subset(A, S, "s_sdd_check")
    inside = S.member_set
    pat, diag = A.pattern, A.diagonal_modulus
    indptr, indices, data = pat.indptr.tolist(), pat.indices.tolist(), pat.data.tolist()
    in_off, out_off = [], []  # each row's magnitudes in the columns of S, and outside S
    for ks in map(range, indptr, indptr[1:]):
        in_off.append([data[k] for k in ks if indices[k] in inside])
        out_off.append([data[k] for k in ks if indices[k] not in inside])
    if not all(exact_gap(diag[i], in_off[i]) > 0.0 for i in S.members):
        return False
    from fractions import Fraction as F  # imports decimal: only where the cross test runs

    def exact(values):
        return sum(map(F, values), F(0))

    top = max(exact(out_off[i]) / (F(diag[i]) - exact(in_off[i])) for i in S.members)
    return all(
        F(diag[j]) - exact(out_off[j]) > top * exact(in_off[j]) for j in S.complement().members
    )


def find_ssdd_set_dd(A: Matrix, peel: Peel) -> IndexSet | None:
    """Subset passing ``s_sdd_check`` for a diagonally dominant matrix.

    ``peel`` is A's ``peel_levels`` (``HVerdict.peel``); the caller
    guarantees dominance.  The candidate is T when the first level peels
    all of it (a row of T that no column outside T touches keeps its
    full, non-strict sum), or {0} when T is empty; it is returned only
    when it passes ``s_sdd_check``, else None (always at order 1, which
    has no proper nonempty subset).  Where every row is exactly dominant
    (the tol-0 class, which also skips the peel's re-test) the cross test
    provably passes, so it is skipped; at tol > 0 a row of T short of
    dominance can spoil it.
    """
    T = peel.t_set
    if len(T) == 0 and A.n >= 2:
        T = IndexSet.trusted((0,), A.n)  # every row is strict: any singleton works
    elif not (peel.levels and len(peel.levels[0]) == len(T)):
        return None
    return T if classify_dominance(A).is_dd or s_sdd_check(A, T) else None


class SHReport(NamedTuple):
    """Outcome of the subset H-condition on ``subset``.

    ``lhs`` is the infinity norm of the inner comparison block's inverse
    applied to the outside row sums (None when that block is singular,
    or past the float range, as the note says);
    ``b2`` the smallest outside dominance-gap ratio of exact sums rounded
    once, with the conventions a/0 = +-inf (sign of a) and 0/0 = 0.
    ``satisfied`` requires an H inner block and lhs below the exact b2.
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


def _outside_ratios(A: Matrix, S: IndexSet):
    """b2 over the rows outside S, a test of lhs < the exact b2, and its degeneracy note.

    Row j's ratio (|a_jj| - r_j^out) / r_j^S (``_gap_ratio``) divides its
    exact gap over the columns outside S by its exact sum over S, each
    rounded once (exact where subnormal), so every sign and the "zero
    gap" note are exact, and a ratio of at least 2^-1000 is within 2^-51
    of the exact one, relatively.  ``below(lhs)`` forms the exact ratio as
    a ``Fraction`` only below that or within 2^-40 of lhs; an lhs of inf,
    a finite one past the float range, is below exactly infinite ratios
    only.  Only the rows found through the transposes of S's columns and
    the rows not strict at tol 0 are summed: any other has r_j^S = 0 and
    a positive gap, ratio +inf.  After the cached row codes: O(|S| + nnz
    of those rows and S's columns).
    """
    inside, diag = S.member_set, A.diagonal_modulus
    indptr, indices, data, t_indptr, t_indices = A.pattern

    def split(i: int) -> tuple[list[float], list[float]]:  # row i in S's columns, and outside
        row_in, row_out = [], []
        for k in range(indptr[i], indptr[i + 1]):
            (row_in if indices[k] in inside else row_out).append(data[k])
        return row_in, row_out

    coupled = {j for i in S.members for j in t_indices[t_indptr[i]:t_indptr[i + 1]]}
    outside = sorted(coupled.union(non_sdd_rows(A).members).difference(inside))
    halves = list(map(split, outside))
    nums = [exact_gap(diag[j], row_out) for j, (_, row_out) in zip(outside, halves)]
    dens = [exact_sum(row_in) for row_in, _ in halves]
    ratios = list(map(_gap_ratio, nums, dens))
    strict = [math.inf] if len(outside) < A.n - len(S) else []  # the rows uncoupled to S
    # min keeps a NaN ratio only from the first row outside S, so +inf stands where that row does
    first = next(j for j in range(A.n) if j not in inside)
    b2 = min(ratios + strict if outside[:1] == [first] else strict + ratios)

    def below(lhs: float) -> bool:
        if not lhs < math.inf:  # NaN, or a finite lhs past the float range: below exact infinities
            return lhs == math.inf and all(num > 0.0 and not den for num, den in zip(nums, dens))
        for i, num, den, ratio in zip(outside, nums, dens, ratios):
            finite = num and den and abs(num) < math.inf and den < math.inf
            if finite and (ratio < 2.0**-1000 or abs(ratio - lhs) <= ratio * 2.0**-40):
                from fractions import Fraction as F  # imports decimal: only where lhs nearly ties

                row_in, row_out = split(i)
                ratio = (F(diag[i]) - sum(map(F, row_out))) / sum(map(F, row_in))
            if not lhs < ratio:  # elsewhere the float ratio is on the exact one's side of lhs
                return False
        return True

    degenerate = any(num == den == 0.0 for num, den in zip(nums, dens))
    note = "b2 degenerate: some outside row has zero gap and zero coupling" if degenerate else None
    return b2, below, note


def s_h_check(A: Matrix, S: IndexSet) -> SHReport:
    """Subset H-condition: inner block H, and scaled cross sums below b2.

    lhs comes from one ``lu_solve`` of the inner comparison block, given
    by rows (``comparison_rows``), with no numpy for a dominant block,
    and r_out holds each member's sum outside S, exact and rounded once
    (``exact_sum``).  On T of a dominant matrix r_out is the block's own
    gap vector bit for bit, so M 1 = r_out and one reachability pass
    decides x = 1 or a singular block in O(|S| + its nonzeros):
    ``s_h_from_peel``'s answer.  A dominant block with any other
    right-hand side is solved by sparse GTH elimination, and a block
    that is not dominant (under ``--subset``, or on non-dominant input)
    by the dense LU.  Every dominance sign is exact, so a dominant block
    is H iff it is nonsingular, which ``sparse_lu`` decides exactly:
    ``inner_h`` is read off the solve.  Any other block takes
    ``inverse_nonneg_oracle``.  An lhs past the float range (``sparse_lu``
    gives an inf) is written None, with a note.
    """
    _check_proper_subset(A, S, "s_h_check")
    sub = principal_submatrix(A, S)
    b2, below, note = _outside_ratios(A, S)
    indptr, indices, data, _, _ = A.pattern
    inside = S.member_set
    r_out = [
        exact_sum([data[k] for k in range(indptr[i], indptr[i + 1]) if indices[k] not in inside])
        for i in S.members
    ]
    x = lu_solve(comparison_rows(sub), r_out)
    if x is None:
        return SHReport(
            subset=S,
            lhs=None,
            b2=b2,
            satisfied=False,
            inner_h=False,
            note=note or "inner comparison block is singular",
        )
    lhs = _max_abs(x)
    inner_h = classify_dominance(sub).is_dd or inverse_nonneg_oracle(sub)
    satisfied = bool(inner_h and below(lhs))
    if lhs == math.inf:  # only sparse_lu returns one, for an lhs past the float range
        lhs, note = None, note or "lhs exceeds the float range"
    return SHReport(
        subset=S, lhs=lhs, b2=b2, satisfied=satisfied, inner_h=inner_h, note=note
    )


def s_h_from_peel(A: Matrix, peel: Peel) -> SHReport | None:
    """The subset H-condition on T at tol 0, read off A's peel with no solve.

    ``peel`` is A's ``peel_levels`` at tol 0; the caller guarantees
    dominance.  Dominance signs are exact (``core.exact_gap``), so every
    row of T is an exact equality and the comparison block M_T satisfies
    M_T 1 = r_out exactly, r_out being the row sums outside T.  A row
    the peel takes is strict in A[T_k, T_k], so a peel that empties T
    proves A[T,T] an H-matrix and lhs = ||M_T^-1 r_out|| = 1.  A stall
    leaves a block W whose rows are exact equalities with no strict row,
    so W is closed (no row of W has an entry outside W): M_W 1 = 0 and
    M_T, block triangular, is singular, so lhs is None.  The report is
    ``s_h_check``'s field for field, b2 from ``_outside_ratios``: past the
    row codes, O(|T| + nnz of T's rows and columns and of the rows
    coupled to T).  Every row outside T is strict, so the exact b2
    exceeds 1 and ``satisfied`` is ``inner_h``.

    Returns None, leaving the question to ``s_h_check``, when T is not a
    nonempty proper subset.
    """
    T = peel.t_set
    if len(T) == 0 or T.is_full:
        return None
    inner_h = not peel.stalled
    b2, _, note = _outside_ratios(A, T)
    return SHReport(
        subset=T,
        lhs=1.0 if inner_h else None,
        b2=b2,
        satisfied=inner_h,
        inner_h=inner_h,
        note=note or (None if inner_h else "inner comparison block is singular"),
    )
