"""Reference implementations of the structural kernels, kept for cross-checks.

These are the direct transcriptions of the definitions that the product
code in ``ddh`` replaces with sparse worklist kernels:

* the dense deleted row sums (every off-diagonal entry of a dense row)
  and the partial row sum scanning every column of the subset, each the
  exact ``Fraction`` sum of the moduli rounded once (``rounded_sum``),
  where the product adds with ``math.fsum``;
* numpy versions of the kernels that read the storage buffers (the
  moduli, the deleted and split row sums, the principal submatrix and
  the edge lookup), vectorized as the product was while it stored numpy
  arrays, with each row sum ``rounded_sum`` of the entries numpy selects;
* the sparsity graph's adjacency found by scanning every dense entry,
  and its strongly connected components in Frobenius normal form, with
  the irreducibility and Taussky tests built on them;
* the traversal out of an index set seeded from every column outside it
  (``layers_out_of``), where the product scans the set's own rows;
* the recursive peel that copies the principal submatrix at every stage
  (``is_h_dd``, whose ``HVerdict.peel`` is assembled from those copied
  stages, each peeled row's next hop scanned from its dense row, and
  ``interwoven_from_peeling``, which scans for companions), and the active sets
  T_0, T_1, ... of a ``Peel`` (``active_sets``), O(n^2) on a chain,
  whose successive differences the product's peel trace lists;
* the chain certificate checked by walking every chain in full
  (``hops_certify``), O(n^2) on a chain, where ``verify`` marks
  colours;
* the greedy interwoven closure that rescans every remaining member at
  every step;
* the scaling certificate from the dense solve of the comparison
  system M d = 1, with its margin from the dense product M d;
* the subset checks that analyze a copied block a second time: the
  subset H-condition deciding a dominant inner block with the full
  ``is_h_dd`` and its b2 from ``Fraction`` ratios, the inner block's
  H-status by the peel of the copied block (``inner_h_by_peel``), where
  the product reads an exactly dominant block's off its one solve, and
  the SSDD search
  classifying the copied block on T and confirming it with
  ``s_sdd_check``;
* the ensemble generator drawing cell by cell from ``RandomStream`` and
  the Matrix Market writer visiting every dense entry;
* the Matrix Market parser accumulating the entry lines into a dense
  n x n array;
* the dense LU that updates the whole trailing block at every step,
  where the product updates it in blocks of rows;
* the exact solve of a comparison block given by its rows, by
  ``Fraction`` Gauss-Jordan elimination, which the product's GTH
  elimination of dominant Z-matrices is compared against;
* the subset dominance test ``s_sdd_check`` over every cross pair, in
  ``Fraction`` arithmetic, where the product tests each outside row
  against the inside row of the largest ratio;
* the dominance classification (``classify_dominance``,
  ``non_sdd_rows``) from each row's gap in ``Fraction`` arithmetic
  (``exact_row_codes``), which every reference above classifies and
  peels with, where the product adds with ``math.fsum``.

The references keep the old signatures: each takes the matrix (and the
tolerance), checks dominance itself and raises ``ValueError`` without
it, where the product ``interwoven_from_peeling`` and
``find_ssdd_set_dd`` read the caller's ``Peel``.  They are slow (the
peel is O(n^3) on a chain) and exist only so that the tests can compare
the product functions against them, bit for bit (the generator and the
writer byte for byte, the parser down to its errors).  Two are
exceptions.
The product decides interwoven sets from shortest chains, so only the
decision is compared with the greedy closure, not the order of the
certificate.  The product's scaling is the first vector its
Gauss-Seidel sweeps find, so it is checked for validity
(``helpers.is_valid_scaling``), not against the solve here.
"""

from __future__ import annotations

import cmath
import dataclasses
from fractions import Fraction

import numpy as np

from ddh import (
    DominanceClass,
    EnsembleSpec,
    HVerdict,
    InconsistencyError,
    IndexSet,
    InterwovenCertificate,
    LuFactorization,
    Matrix,
    Peel,
    PeelReason,
    RandomStream,
    ScalingCertificate,
    SHReport,
    SparsePattern,
    comparison_matrix,
    inverse_nonneg_oracle,
    lu_solve,
    peel_levels,
    principal_submatrix,
)
from ddh.mmio import _FIELDS, _SYMMETRIES, ParseError, _tokens, format_real
from ddh.oracle import PIVOT_RTOL


def fraction_gap(diagonal: float, off) -> Fraction:
    """``diagonal - sum(off)`` of finite moduli exactly, as a ``Fraction``."""
    return Fraction(diagonal) - sum(map(Fraction, off), Fraction(0))


def exact_row_codes(A: Matrix, tol: float = 0.0) -> list[int]:
    """+1 strict, 0 equality within tol, -1 violated: each row's gap in ``Fraction`` arithmetic."""
    mod = A.modulus
    codes = []
    for i in range(A.n):
        gap = fraction_gap(float(mod[i, i]), [float(v) for j, v in enumerate(mod[i]) if j != i and v])
        codes.append(int(gap > Fraction(tol)) - int(gap < -Fraction(tol)))
    return codes


def classify_dominance(A: Matrix, tol: float = 0.0) -> DominanceClass:
    """The dominance class from ``exact_row_codes``."""
    codes = exact_row_codes(A, tol)
    if min(codes) < 0:
        return DominanceClass.NOT_DD
    if min(codes) > 0:
        return DominanceClass.SDD
    return DominanceClass.DD_PLUS if max(codes) > 0 else DominanceClass.DD_EQUALITY


def non_sdd_rows(A: Matrix, tol: float = 0.0) -> IndexSet:
    """The rows that ``exact_row_codes`` calls not strict."""
    return IndexSet(tuple(i for i, code in enumerate(exact_row_codes(A, tol)) if code <= 0), A.n)


def rounded_sum(values) -> float:
    """The sum of nonnegative finite moduli in ``Fraction`` arithmetic, rounded once.

    inf when the sum passes the float range; +0.0 for no values.
    """
    total = sum(map(Fraction, map(float, values)), Fraction(0))
    try:
        return float(total)  # a quotient of integers, correctly rounded
    except OverflowError:
        return np.inf


def deleted_row_sums(A: Matrix) -> np.ndarray:
    """All deleted row sums, each over every off-diagonal entry of its dense row."""
    mod = A.modulus
    return np.array([rounded_sum(np.delete(mod[i], i)) for i in range(A.n)])


def partial_row_sum(A: Matrix, i: int, S: IndexSet) -> float:
    """Part of row i's deleted sum over S, scanning every member of S."""
    return rounded_sum(A.modulus[i, j] for j in S.members if j != i)


def adjacency(A: Matrix) -> tuple[tuple[int, ...], ...]:
    """Out-neighbours of every vertex of the sparsity graph, from every dense entry."""
    mod = A.modulus
    return tuple(
        tuple(int(j) for j in range(A.n) if j != i and mod[i, j] > 0.0)
        for i in range(A.n)
    )


# the block-triangular form of the sparsity graph, which the dominance
# analysis never needs: Taussky's test (irreducible, dominant, one strict
# row) is one sufficient condition for an H-matrix among many, kept for
# acceptance criterion 7 and the graph tests.


@dataclasses.dataclass(frozen=True)
class FrobeniusForm:
    """Permutation to block upper triangular form.

    ``permutation[p]`` is the original index placed at permuted position
    p; ``blocks`` lists the strongly connected components (original
    indices) in the order they appear along the permuted diagonal.
    """

    permutation: tuple[int, ...]
    blocks: tuple[IndexSet, ...]


def _tarjan_sccs(pat: SparsePattern) -> list[list[int]]:
    """Strongly connected components, emitted in reverse topological order.

    Iterative with an explicit work stack of (vertex, next position in
    ``pat.indices``); recursion depth is not an issue for any admissible
    matrix order.
    """
    indptr, indices = pat.indptr.tolist(), pat.indices.tolist()
    n = len(indptr) - 1
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, indptr[root])]
        while work:
            v, pos = work[-1]
            if index[v] == -1:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            for k in range(pos, indptr[v + 1]):
                w = indices[k]
                if index[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, indptr[w]))
                    descended = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
    return sccs


def frobenius_normal_form(A: Matrix) -> FrobeniusForm:
    """Group indices into strongly connected blocks, sources first.

    With blocks listed in topological order of the condensation, every
    nonzero a_ij has i's block at or before j's block, i.e. the permuted
    matrix is block upper triangular with irreducible (or 1x1) diagonal
    blocks.
    """
    sccs = _tarjan_sccs(A.pattern)
    sccs.reverse()  # topological order of the condensation
    blocks = tuple(IndexSet(tuple(sorted(comp)), A.n) for comp in sccs)
    permutation = tuple(i for block in blocks for i in block.members)
    return FrobeniusForm(permutation=permutation, blocks=blocks)


def is_irreducible(A: Matrix) -> bool:
    """True iff the sparsity graph is strongly connected (1x1: always)."""
    if A.n == 1:
        return True
    return len(frobenius_normal_form(A).blocks) == 1


def taussky_test(A: Matrix, tol: float = 0.0) -> bool:
    """Irreducibly diagonally dominant with at least one strict row.

    A true result certifies nonsingularity (and scalability to strict
    dominance) without any arithmetic beyond row sums.
    """
    if classify_dominance(A, tol) not in (DominanceClass.DD_PLUS, DominanceClass.SDD):
        return False
    return is_irreducible(A)


# numpy versions of the buffer kernels: each reads the matrix's storage
# through ``np.asarray`` and vectorizes over it, as the product did while
# it kept numpy arrays.  Row sums select each row's entries by mask and
# add them with ``rounded_sum``.


def _stored_rows(A: Matrix) -> np.ndarray:
    """The row of every stored entry, in storage order."""
    return np.repeat(np.arange(A.n), np.diff(np.asarray(A.pattern.indptr)))


def vectorized_moduli(A: Matrix) -> tuple[np.ndarray, np.ndarray]:
    """|a_ii| and the stored |a_ij|: ``np.abs``, or ``np.hypot`` of the parts when complex."""
    diag, values = np.asarray(A.diagonal), np.asarray(A.values)
    if A.is_complex:
        return np.hypot(diag[0::2], diag[1::2]), np.hypot(values[0::2], values[1::2])
    return np.abs(diag), np.abs(values)


def vectorized_deleted_row_sums(A: Matrix) -> np.ndarray:
    data, rows = np.asarray(A.pattern.data), _stored_rows(A)
    return np.array([rounded_sum(data[rows == i]) for i in range(A.n)])


def vectorized_split_row_sums(A: Matrix, S: IndexSet) -> tuple[np.ndarray, np.ndarray]:
    data, indices = np.asarray(A.pattern.data), np.asarray(A.pattern.indices)
    inside = np.zeros(A.n, dtype=bool)
    inside[list(S.members)] = True
    rows, in_s = _stored_rows(A), inside[indices]
    return tuple(
        np.array([rounded_sum(data[(rows == i) & (in_s == side)]) for i in range(A.n)])
        for side in (True, False)
    )


def vectorized_principal_submatrix(A: Matrix, S: IndexSet):
    """Diagonal, stored rows, stored columns and values of A[S, S] (complex128 when complex)."""
    inside = np.zeros(A.n, dtype=bool)
    inside[list(S.members)] = True
    position = np.cumsum(inside) - 1  # of each member in S
    rows, cols = _stored_rows(A), np.asarray(A.pattern.indices)
    keep = inside[rows] & inside[cols]
    diag, values = np.asarray(A.diagonal), np.asarray(A.values)
    if A.is_complex:
        diag, values = diag.view(np.complex128), values.view(np.complex128)
    return diag[inside], position[rows[keep]], position[cols[keep]], values[keep]


def vectorized_has_edges(A: Matrix, rows, cols) -> np.ndarray:
    """One sorted membership test on the row-major keys i n + j."""
    stored = _stored_rows(A) * A.n + np.asarray(A.pattern.indices)
    wanted = np.asarray(rows, dtype=np.intp) * A.n + np.asarray(cols, dtype=np.intp)
    return np.isin(wanted, stored)


def scaling_certificate(A: Matrix) -> ScalingCertificate:
    """Solve the comparison system for an all-ones gap, then normalize.

    A failed solve, a nonpositive component or a nonpositive recomputed
    margin means A is not H (or too close to singular for the solve) and
    raises InconsistencyError.
    """
    comp = comparison_matrix(A)
    d = lu_solve(comp, np.ones(A.n))
    if d is None:
        raise InconsistencyError("comparison matrix is singular; input is not H")
    if (d <= 0.0).any():
        raise InconsistencyError("scaling vector has a nonpositive component")
    d = d / float(np.max(d))
    margin = float(np.min(comp @ d))
    if not margin > 0.0:
        raise InconsistencyError(f"scaling margin {margin!r} is not positive")
    return ScalingCertificate(d=d, margin=margin)


def is_h_dd(A: Matrix, tol: float = 0.0) -> HVerdict:
    """Recursive peel that restricts to a copied submatrix at every stage."""
    if classify_dominance(A, tol) is DominanceClass.NOT_DD:
        raise ValueError("is_h_dd requires a diagonally dominant matrix")
    # T_0, then T_{k+1}: the non-strict rows of the copied block on T_k
    stages = [non_sdd_rows(A, tol)]
    while len(stages[-1]):
        active = stages[-1]
        t_rel = non_sdd_rows(principal_submatrix(A, active), tol)
        if len(t_rel) == len(active):
            break
        stages.append(IndexSet(tuple(active.members[k] for k in t_rel.members), A.n))
    stalled = len(stages[-1]) > 0
    peeled = tuple(
        IndexSet(tuple(i for i in a.members if i not in b), A.n)
        for a, b in zip(stages, stages[1:])
    )
    # each peeled row's smallest nonzero column in the previous stage (outside T_0 first)
    next_hop = {}
    for previous, level in zip((stages[0].complement(),) + peeled, peeled):
        for i in level.members:
            next_hop[i] = next(j for j in previous.members if A.modulus[i, j] > 0.0)
    peel = Peel(
        t_set=stages[0], levels=tuple(level.members for level in peeled), next_hop=next_hop
    )
    zero_rows = [i for i in range(A.n) if A.modulus[i, i] == 0.0]
    if zero_rows:
        return HVerdict(
            is_h=False,
            peel_trace=(stages[0],),
            reason=PeelReason.ZERO_DIAGONAL,
            witness=IndexSet((zero_rows[0],), A.n),
            peel=peel,
        )
    if stalled:
        return HVerdict(
            is_h=False,
            peel_trace=peeled + (stages[-1],),
            reason=PeelReason.STAGNANT_PEEL,
            witness=stages[-1],
            peel=peel,
        )
    return HVerdict(
        is_h=True,
        peel_trace=peeled,
        reason=PeelReason.SDD_REACHED,
        witness=None,
        peel=peel,
    )


def layers_out_of(A: Matrix, S: IndexSet, tol: float | None = None):
    """``(levels, next_hop)`` seeded from every column outside S, as the product was.

    Level one is found through the transposes of all n - |S| columns
    outside S, each later level through those of the previous level; a
    touched row's next hop is the smallest column that touched it.  With
    ``tol`` a touched row joins only when its ``fraction_gap`` over the
    columns still in S exceeds tol.
    """
    pat = A.pattern
    indptr, indices, data = pat.indptr.tolist(), pat.indices.tolist(), pat.data.tolist()
    t_indptr, t_indices = pat.t_indptr.tolist(), pat.t_indices.tolist()
    diag = A.diagonal_modulus.tolist()
    active = [i in S for i in range(A.n)]
    removed = S.complement().members
    levels, next_hop = [], {}
    while True:
        touched = {}
        for j in removed:
            for i in t_indices[t_indptr[j]:t_indptr[j + 1]]:
                if active[i] and i not in touched:
                    touched[i] = j
        level = sorted(touched)
        if tol is not None:
            level = [i for i in level if fraction_gap(
                diag[i], [data[k] for k in range(indptr[i], indptr[i + 1]) if active[indices[k]]]
            ) > Fraction(tol)]
        if not level:
            return tuple(levels), next_hop
        for i in level:
            active[i] = False
            next_hop[i] = touched[i]
        levels.append(tuple(level))
        removed = level


def active_sets(peel: Peel) -> list[IndexSet]:
    """T_0, T_1, ..., ending with the empty set or the stalled block."""
    sets = [peel.t_set]
    for batch in peel.levels:
        gone = set(batch)
        rest = tuple(i for i in sets[-1].members if i not in gone)
        sets.append(IndexSet(rest, peel.t_set.universe_size))
    return sets


def hops_certify(A: Matrix, T: IndexSet, reached, hops: dict[int, int]) -> bool:
    """True iff ``hops`` is a chain certificate for the rows ``reached`` of T.

    Its keys must be exactly ``reached``, and from each key the hops,
    walked one at a time along nonzero off-diagonal entries, must leave
    T within |T| steps: a longer walk inside T has met a cycle.
    """
    if set(hops) != set(reached):
        return False
    for start in hops:
        v, steps = start, 0
        while v in T:
            if v not in hops or steps > len(T):
                return False
            j = hops[v]
            if not 0 <= j < A.n or j == v or A.modulus[v, j] == 0.0:
                return False
            v, steps = j, steps + 1
    return True


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
    """SSDD search that classifies the copied block on T, then confirms it with ``s_sdd_check``."""
    if classify_dominance(A, tol) is DominanceClass.NOT_DD:
        raise ValueError("find_ssdd_set_dd requires a diagonally dominant matrix")
    T = non_sdd_rows(A, tol)
    if len(T) == 0:
        S = IndexSet((0,), A.n) if A.n >= 2 else None
    elif not T.is_full and classify_dominance(principal_submatrix(A, T), tol) is DominanceClass.SDD:
        S = T
    else:
        S = None
    return S if S is not None and s_sdd_check(A, S) else None


def _gap_ratio(num: float, den: float) -> float:
    if den != 0.0:
        return num / den
    if num > 0.0:
        return float("inf")
    if num < 0.0:
        return float("-inf")
    return 0.0


def _rounded(q) -> float:
    """``float(q)``, or +-inf where a ``Fraction`` q is past the float range."""
    try:
        return float(q)
    except OverflowError:
        return np.inf if q > 0 else -np.inf


def outside_ratios(A: Matrix, S: IndexSet):
    """b2 of the subset H-condition on S, every outside ratio exactly, and the degeneracy note.

    Each row's gap over the columns outside S and its sum over S are
    formed in ``Fraction`` arithmetic.  Its exact ratio is their quotient
    where both, rounded once, are finite and nonzero, and otherwise the
    IEEE quotient of the rounded sums; b2 is the smallest quotient of the
    rounded sums.
    """
    diag, mod = A.diagonal_modulus, A.modulus
    exact, rounded = [], []
    degenerate = False
    for j in S.complement().members:
        num = fraction_gap(diag[j], [float(mod[j, k]) for k in range(A.n) if k != j and k not in S])
        den = -fraction_gap(0.0, [float(mod[j, k]) for k in S.members])
        degenerate = degenerate or (num == 0 and den == 0)
        sums = _rounded(num), _rounded(den)
        rounded.append(_gap_ratio(*sums))
        exact.append(num / den if all(x and abs(x) < np.inf for x in sums) else rounded[-1])
    note = "b2 degenerate: some outside row has zero gap and zero coupling" if degenerate else None
    return min(rounded), exact, note


def s_h_check(A: Matrix, S: IndexSet, tol: float = 0.0, exact: bool = False) -> SHReport:
    """Subset H-condition deciding a dominant inner block with ``is_h_dd``.

    b2 is ``outside_ratios``', and ``satisfied`` compares lhs with every
    exact ratio.  The inner block is solved by the dense ``lu_solve``,
    or with ``exact`` by ``exact_solve``, whose lhs is the exact one
    rounded once.
    """
    if S.universe_size != A.n:
        raise ValueError("subset universe does not match matrix order")
    if len(S) == 0 or S.is_full:
        raise ValueError("s_h_check requires a nonempty proper subset")
    sbar = S.complement()
    sub = principal_submatrix(A, S)
    b2, exact_ratios, note = outside_ratios(A, S)
    outside_sums = np.array([partial_row_sum(A, i, sbar) for i in S.members])
    if exact:
        rows = [dict(enumerate(row)) for row in comparison_matrix(sub).tolist()]
        x = exact_solve(rows, outside_sums)
        x = None if x is None else np.array([float(abs(v)) for v in x])
    else:
        x = lu_solve(comparison_matrix(sub), outside_sums)
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
    satisfied = bool(inner_h and all(lhs < v for v in exact_ratios))
    return SHReport(subset=S, lhs=lhs, b2=b2, satisfied=satisfied, inner_h=inner_h, note=note)


def inner_h_by_peel(A: Matrix, S: IndexSet, tol: float = 0.0) -> bool:
    """Whether the dominant block A[S, S] is H: its copied block's peel does not stall.

    A zero diagonal stalls it too.  At tol 0 this is ``s_h_check``'s
    ``inner_h`` of a dominant A, which the product reads off its solve.
    """
    return not peel_levels(principal_submatrix(A, S), tol).stalled


def lu_factor(M, pivot_rtol: float = PIVOT_RTOL) -> LuFactorization:
    """LU with partial pivoting that updates the whole trailing block at every step."""
    a = np.array(M, dtype=np.float64, copy=True)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("lu_factor expects a square real matrix")
    n = a.shape[0]
    pivots = np.arange(n)
    threshold = pivot_rtol * float(np.max(np.abs(a))) if a.size else 0.0
    singular = False
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        pivot = a[p, k]
        if pivot == 0.0 or abs(pivot) < threshold:
            singular = True
            break
        if p != k:
            a[[k, p], :] = a[[p, k], :]
            pivots[[k, p]] = pivots[[p, k]]
        a[k + 1 :, k] /= a[k, k]
        a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k], a[k, k + 1 :])
    return LuFactorization(a, pivots, singular, threshold)


def exact_solve(rows: list[dict[int, float]], b) -> list[Fraction] | None:
    """x with M x = b exactly, M given by its ``{column: value}`` rows; None when M is singular.

    Gauss-Jordan elimination in ``Fraction`` arithmetic, taking as pivot
    the first nonzero entry of each column: with no rounding, any
    nonzero pivot serves.  Every value must be finite.
    """
    n = len(rows)
    a = [[Fraction(row.get(j, 0.0)) for j in range(n)] + [Fraction(v)] for row, v in zip(rows, b)]
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return None
        a[k], a[p] = a[p], a[k]
        pivot = a[k][k]
        a[k] = [v / pivot for v in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                m = a[i][k]
                a[i] = [v - m * w for v, w in zip(a[i], a[k])]
    return [row[n] for row in a]


def s_sdd_check(A: Matrix, S: IndexSet) -> bool:
    """The two-condition subset dominance test over every cross pair, in exact arithmetic.

    The gaps, the split row sums and the products are ``Fraction``s of
    the moduli (``fraction_gap`` for the row test).
    """
    if S.universe_size != A.n or len(S) == 0 or S.is_full:
        raise ValueError("s_sdd_check requires a nonempty proper subset")
    sbar = S.complement()
    mod = A.modulus
    diag = A.diagonal_modulus

    def part(i, cols):
        return [float(mod[i, j]) for j in cols.members if j != i and mod[i, j]]

    if not all(fraction_gap(diag[i], part(i, S)) > 0 for i in S.members):
        return False
    r_in = [-fraction_gap(0.0, part(i, S)) for i in range(A.n)]
    r_out = [-fraction_gap(0.0, part(i, sbar)) for i in range(A.n)]
    F = Fraction
    return all((F(diag[i]) - r_in[i]) * (F(diag[j]) - r_out[j]) > r_out[i] * r_in[j]
               for i in S.members for j in sbar.members)


def sh_key(rep):
    """Every field of an SHReport, reals by their bits; other values as given."""
    if not isinstance(rep, SHReport):
        return rep
    lhs = None if rep.lhs is None else rep.lhs.hex()
    return (rep.subset, lhs, rep.b2.hex(), rep.satisfied, rep.inner_h, rep.note)


def verdict_key(v):
    """Every field of an HVerdict; other values (an error type, say) as given."""
    if not isinstance(v, HVerdict):
        return v
    return (v.is_h, v.peel_trace, v.reason, v.witness, v.peel)


_PHASES = (1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j)


def random_dd_matrix(spec: EnsembleSpec) -> Matrix:
    """The ensemble generator drawing every unit in turn from one ``RandomStream``."""
    rng = RandomStream(spec.seed)
    n = spec.n
    dtype = np.complex128 if spec.complex_entries else np.float64
    entries = np.zeros((n, n), dtype=dtype)
    magnitudes = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if rng.next_unit() <= spec.density:
                m = rng.next_unit()
                magnitudes[i, j] = m
                if spec.complex_entries:
                    entries[i, j] = m * _PHASES[rng.next_u64() & 3]
                else:
                    entries[i, j] = m
    for i in range(n):
        row_sum = 0.0
        for j in range(n):  # increasing column order, matching core row sums
            if j != i:
                row_sum += magnitudes[i, j]
        if rng.next_unit() <= spec.equality_rows:
            entries[i, i] = row_sum
        else:
            offset = round((0.1 + 0.9 * rng.next_unit()) * 1048576) / 1048576.0
            entries[i, i] = row_sum + offset
    return Matrix(entries)


def write_matrix_market(A: Matrix, comments: tuple[str, ...] = ()) -> str:
    """Coordinate text from a scan of every dense entry in row-major order."""
    is_complex = A.entries.dtype.kind == "c"
    field = "complex" if is_complex else "real"
    out = [f"%%MatrixMarket matrix coordinate {field} general"]
    out.extend(f"% {c}" for c in comments)
    body = []
    for i in range(A.n):
        for j in range(A.n):
            v = A.entries[i, j]
            if v == 0:
                continue
            if is_complex:
                body.append(f"{i + 1} {j + 1} {format_real(v.real)} {format_real(v.imag)}")
            else:
                body.append(f"{i + 1} {j + 1} {format_real(float(v.real))}")
    out.append(f"{A.n} {A.n} {len(body)}")
    out.extend(body)
    return "\n".join(out) + "\n"


def parse_matrix_market(text, max_order: int | None = None) -> Matrix:
    """The parser that accumulates every entry line into a dense n x n array.

    Same checks, line numbers and messages as the product's; the dense
    array then goes through ``Matrix(dense)``.
    """
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("utf-8", errors="replace")
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input", 1)

    header = _tokens(lines[0])
    if len(header) != 5 or header[0] != "%%MatrixMarket":
        raise ParseError("expected '%%MatrixMarket matrix coordinate <field> <symmetry>'", 1)
    _, obj, fmt, field, symmetry = (header[0],) + tuple(t.lower() for t in header[1:])
    if obj != "matrix" or fmt != "coordinate":
        raise ParseError(f"unsupported header '{obj} {fmt}' (need 'matrix coordinate')", 1)
    if field not in _FIELDS:
        raise ParseError(f"unsupported field '{field}' (need one of {', '.join(_FIELDS)})", 1)
    if symmetry not in _SYMMETRIES:
        raise ParseError(
            f"unsupported symmetry '{symmetry}' (need one of {', '.join(_SYMMETRIES)})", 1
        )
    # Matrix Market numbers are ASCII with no '_'; the first size or entry
    # line that is not is refused before any other line is read
    for lineno, line in enumerate(lines[1:], start=2):
        toks = _tokens(line)
        if toks and not toks[0].startswith("%") and (not line.isascii() or "_" in line):
            raise ParseError("size and entry lines must be ASCII, with no '_'", lineno)

    lineno = 1
    pos = 1
    size = None
    while pos < len(lines):
        lineno = pos + 1
        toks = _tokens(lines[pos])
        pos += 1
        if not toks or toks[0].startswith("%"):
            continue
        if len(toks) != 3:
            raise ParseError("size line must be 'rows cols nonzeros'", lineno)
        try:
            size = tuple(int(t) for t in toks)
        except ValueError:
            raise ParseError("size line must contain integers", lineno) from None
        break
    if size is None:
        raise ParseError("missing size line", lineno)
    rows, cols, nnz = size
    if rows != cols:
        raise ParseError(f"matrix must be square, got {rows}x{cols}", lineno)
    if rows < 1:
        raise ParseError("matrix order must be at least 1", lineno)
    if max_order is not None and rows > max_order:
        raise ParseError(f"order {rows} exceeds the maximum order {max_order}", lineno)
    if nnz < 0:
        raise ParseError("nonzero count must be nonnegative", lineno)

    n = rows
    dtype = np.complex128 if field == "complex" else np.float64
    entries = np.zeros((n, n), dtype=dtype)
    want = 4 if field == "complex" else 3
    seen = 0
    while pos < len(lines):
        lineno = pos + 1
        toks = _tokens(lines[pos])
        pos += 1
        if not toks or toks[0].startswith("%"):
            continue
        if seen >= nnz:
            raise ParseError(f"more than the declared {nnz} entries", lineno)
        if len(toks) != want:
            raise ParseError(f"entry line must have {want} tokens for field '{field}'", lineno)
        try:
            i = int(toks[0])
            j = int(toks[1])
        except ValueError:
            raise ParseError("entry indices must be integers", lineno) from None
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(f"entry ({i}, {j}) out of range for order {n}", lineno)
        try:
            if field == "complex":
                value = complex(float(toks[2]), float(toks[3]))
            else:
                value = float(toks[2])
        except ValueError:
            raise ParseError("entry value must be numeric", lineno) from None
        i -= 1
        j -= 1
        entries[i, j] += value
        if symmetry != "general" and i != j:
            mirrored = value.conjugate() if symmetry == "hermitian" else value
            entries[j, i] += mirrored
        for z in (complex(entries[i, j]), complex(entries[j, i])):
            if not cmath.isfinite(z):
                raise ParseError("entry value must be finite", lineno)
            try:
                abs(z)
            except OverflowError:
                raise ParseError("entry modulus must be finite", lineno) from None
        seen += 1
    if seen != nnz:
        raise ParseError(f"declared {nnz} entries but found {seen}", len(lines) + 1)
    return Matrix(entries)
