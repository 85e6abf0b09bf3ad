"""GTH elimination of a diagonally dominant Z-matrix given by its sparse rows.

``oracle.lu_solve`` hands a matrix given as ``{column: value}`` row dicts
(``core.comparison_rows``) to ``solve_rows``.  Every comparison block of
a dominant matrix is a Z-matrix whose exact row gaps are >= 0
(``_admit`` tests this in one pass).  One reachability pass decides
in O(n + nnz) whether such a block is singular: it is nonsingular
exactly when every row chains to a row with a positive gap (the
Shivakumar-Chew-Farid condition, which the source paper shows
necessary).  When the right-hand side is the gap vector, as on T at
tol 0, M 1 = b and x = 1 with no elimination.  Any other right-hand
side of a nonsingular block goes to ``gth_factor``, which
eliminates the block with no subtraction (Grassmann, Taksar & Heyman
1985), so every quantity is accurate to a few ulps (Alfa, Xue & Ye,
Math. Comp. 2002) and a zero pivot, a zero row of the remaining block,
means the block is singular: no pivot search, no threshold.  The
elimination touches only stored entries, in a dynamic Markowitz order.
Any other block goes to the dense ``oracle.lu_factor``.  ``oracle``
imports this module only when it is given rows; it loads no numpy
unless the dense path runs.
"""

from __future__ import annotations

import heapq
import math
import sys
from typing import NamedTuple

from .core import InconsistencyError, exact_gap
from .oracle import PIVOT_RTOL, _check_residual, _max_abs, _solve_dense

#: ``gth_factor`` hands over to the dense ``lu_factor`` once its entry
#: updates pass this multiple of n^2, the dense LU's storage (it does n^3/3
#: multiply-adds); the ensemble's order-400 blocks take at most 2.98 n^2
#: (median 1.88 n^2 over 200 seeds)
GTH_BUDGET = 8
#: smallest positive normal float: below it a product keeps fewer bits
_TINY = sys.float_info.min
#: ``_admit``'s off-diagonal magnitudes, gaps and column holders of each row
_Admitted = tuple[list[dict[int, float]], list[float], list[list[int]]]


class GthFactors(NamedTuple):
    """L\\U factors in elimination order, each step ``(k, d_k, [(i, f_ik), ...], {j: c_kj})``.

    Step k eliminates row and column k with pivot d_k; L holds -f_ik for
    the rows i it updated and U holds -c_kj != 0 off the diagonal.  On a
    singular matrix the steps stop at the zero pivot.  ``updates``
    counts the products f_ik c_kj, one per nonzero of row k per row i.
    """

    steps: list[tuple[int, float, list[tuple[int, float]], dict[int, float]]]
    singular: bool
    updates: int


def _admit(rows: list[dict[int, float]]) -> _Admitted | None:
    """``(off, gap, holders)`` of a dominant Z-matrix given by its rows, or None for any other.

    The one pass over the rows that ``solve_rows`` and ``gth_factor``
    share.  ``off[i]`` maps each column j != i with m_ij != 0 to
    c_ij = -m_ij, ``gap[i]`` is g_i = m_ii - sum_j c_ij, summed exactly
    and rounded once (``core.exact_gap``), so its sign is exact, and
    ``holders[j]`` lists the rows i, increasing, with c_ij > 0.  Returns
    None when a value is not finite, or a row has a positive off-diagonal
    entry or a negative gap.
    """
    off: list[dict[int, float]] = []
    gap: list[float] = []
    holders: list[list[int]] = [[] for _ in rows]
    for i, row in enumerate(rows):
        c = {j: -v for j, v in row.items() if j != i and v}
        d = row.get(i, 0.0)
        if not (math.isfinite(d) and all(0.0 < v < math.inf for v in c.values())):
            return None  # a value that is not finite, or a positive off-diagonal entry
        g = exact_gap(d, list(c.values()))
        if not g >= 0.0:
            return None
        off.append(c)
        gap.append(g)
        for j in c:
            holders[j].append(i)
    return off, gap, holders


def _all_reach_a_gap(gap: list[float], holders: list[list[int]]) -> bool:
    """Whether every row of the matrix ``_admit`` read chains to a row with a positive gap.

    One reverse breadth-first search from the rows with g > 0 along the
    stored entries (row i reaches row j when c_ij > 0): O(n + entries).
    Rows it misses form a block W whose rows have gap 0 and no entry
    outside W, so M_W 1 = 0 and M, block triangular, is singular; when it
    misses none, M is a weakly chained dominant M-matrix and nonsingular.
    """
    reached = [g > 0.0 for g in gap]
    queue = [i for i, hit in enumerate(reached) if hit]
    for k in queue:
        for i in holders[k]:
            if not reached[i]:
                reached[i] = True
                queue.append(i)
    return len(queue) == len(gap)


def gth_factor(rows: list[dict[int, float]], admitted: _Admitted | None = None) -> GthFactors | None:
    """GTH elimination of the matrix whose row i is ``rows[i]`` (a missing column is 0).

    ``admitted`` is ``_admit(rows)`` when the caller has taken it, and is
    used up.  A row is kept as its off-diagonal magnitudes c_ij > 0 and
    its gap g_i.  Eliminating pivot k takes d_k = g_k + sum_j c_kj, added
    in the order ``_substitute`` adds c_kj x_j, so x = 1 gives d_k / d_k,
    and, for each remaining row i holding k, with f = c_ik / d_k, adds
    f c_kj to c_ij (j != i: c_ki falls on the diagonal, which g_i stands
    for) and f g_k to g_i.  The next pivot is the remaining row with the
    smallest Markowitz count (its entries times the remaining rows
    holding its column; the smallest index on a tie), from a heap whose
    stale entries are skipped: O(n log n + stored entries + updates).

    Returns None, leaving the matrix to the dense ``lu_factor``, when
    ``_admit`` refuses the rows, when a quotient or a product falls below
    the normal float range, where its relative error is no longer a
    rounding's, or once the updates pass ``GTH_BUDGET`` n^2.
    """
    if admitted is None:
        admitted = _admit(rows)
        if admitted is None:
            return None
    off, gap, holders = admitted  # off: c_ij > 0 over the remaining columns
    n = len(rows)
    held = [len(h) for h in holders]  # by remaining rows
    alive = [True] * n
    heap = [(len(c) * held[k], k) for k, c in enumerate(off)]
    heapq.heapify(heap)
    steps = []
    updates, budget = 0, GTH_BUDGET * n * n
    while heap:
        score, k = heapq.heappop(heap)
        row_k = off[k]
        if not alive[k] or score != len(row_k) * held[k]:
            continue  # stale
        alive[k] = False
        g_k = d = gap[k]
        for c in row_k.values():
            d += c
        if not d < math.inf:
            return None
        if d == 0.0:  # row k of the remaining block is zero
            return GthFactors(steps, True, updates)
        # low, the smallest nonzero of g_k and the c_kj: products are monotone,
        # so an f with f * low in the normal range keeps every product of the step there
        low = min(row_k.values(), default=g_k)
        if g_k:
            low = min(low, g_k)
        items = list(row_k.items())
        lower = []
        for i in holders[k]:
            if not alive[i]:
                continue
            row_i = off[i]
            f = row_i.pop(k) / d
            updates += len(items)
            if f < _TINY or f * low < _TINY or updates > budget:
                return None
            lower.append((i, f))
            if g_k:
                gap[i] += f * g_k
            for j in row_k.keys() - row_i.keys() - {i}:
                holders[j].append(i)
                held[j] += 1
            get = row_i.get
            for j, c in items:
                row_i[j] = get(j, 0.0) + f * c
            row_i.pop(i, None)
            heapq.heappush(heap, (len(row_i) * held[i], i))
        for j in row_k:
            held[j] -= 1
            heapq.heappush(heap, (len(off[j]) * held[j], j))
        steps.append((k, d, lower, row_k))
    return GthFactors(steps, False, updates)


def _substitute(fac: GthFactors, b: list[float]) -> list[float]:
    """x with L U x = b: y_i += f y_k forward, then x_k = (y_k + sum c_kj x_j) / d_k backward."""
    x = list(b)
    for k, _, lower, _ in fac.steps:
        if x[k]:
            for i, f in lower:
                x[i] += f * x[k]
    for k, d, _, upper in reversed(fac.steps):
        total = x[k]
        for j, c in upper.items():
            total += c * x[j]
        x[k] = total / d
    return x


def solve_rows(rows: list[dict[int, float]], b: list[float]) -> list[float] | None:
    """``oracle.lu_solve`` of rows and a vector: x as a list, None when singular.

    When ``_admit`` takes the rows, ``_all_reach_a_gap`` decides whether
    M is singular, exactly, before any elimination or dense hand-over,
    so None means a singular M on every path.  If b is then their gap
    vector, bit for bit, M 1 = b up to the one rounding of each gap, so
    x = 1: no elimination.  Any other b goes to ``gth_factor``, and
    where b >= 0 and x overflows, ``_unit_diagonal_solve`` solves again:
    an inf there shows the largest x_i past the float range, and x is
    returned with no residual check.  ``oracle._solve_dense`` takes over
    when ``gth_factor`` hands the rows over, when ``_admit`` refuses
    them, or when x is otherwise not finite.  Rows ``_admit`` took reach
    it divided, with b, by their positive diagonal, so a graded block
    keeps nonzero pivots, and with no pivot threshold: a zero pivot
    raises InconsistencyError.  The residual is checked.
    """
    b = [float(v) for v in b]
    if len(b) != len(rows):
        raise ValueError("right-hand side length does not match matrix order")
    admitted = _admit(rows)
    if admitted is not None and not _all_reach_a_gap(admitted[1], admitted[2]):
        return None
    if admitted is not None and admitted[1] == b:
        x = [1.0] * len(b)
    else:
        fac = None if admitted is None else gth_factor(rows, admitted)
        x = None if fac is None else _substitute(fac, b)
        if x is not None and math.inf in x and all(0.0 <= v < math.inf for v in b):
            x = _unit_diagonal_solve(rows, b)
            if x is not None and math.inf in x:
                return x  # the largest x_i is past the float range
    if x is None or not all(map(math.isfinite, x)):
        import numpy as np

        dense = np.zeros((len(rows), len(rows)))
        for i, row in enumerate(rows):
            for j, v in row.items():
                dense[i, j] = v
        if admitted is not None:  # every row reaches a gap, so its diagonal is positive
            diag = dense.diagonal().copy()
            dense /= diag[:, None]
            b = [v / d for v, d in zip(b, diag.tolist())]
        x = _solve_dense(dense, np.array(b), PIVOT_RTOL if admitted is None else 0.0)
        if x is None and admitted is not None:
            raise InconsistencyError("dense LU met a zero pivot in a nonsingular block")
        return None if x is None else x.tolist()
    worst, norm_m = _residual(rows, x, b)
    top = _max_abs(x)
    if not math.isfinite(worst) and top:
        # a finite x whose products overflow: the same test on x and b scaled
        # by the power of 2 that brings max |x_i| into [0.5, 1)
        scale = math.ldexp(1.0, -math.frexp(top)[1])
        worst, _ = _residual(rows, [v * scale for v in x], [v * scale for v in b])
        top *= scale
    _check_residual(worst, norm_m, top)
    return x


def _unit_diagonal_solve(rows: list[dict[int, float]], b: list[float]) -> list[float] | None:
    """GTH solve of admitted rows and b >= 0, each divided by its diagonal; None on a hand-over.

    Elimination never raises a row's total g_i + sum_j c_ij, so every
    pivot is at most 1 and no sum formed exceeds the x_i it feeds (up to
    a few ulps): an inf shows the largest x_i past the float range, and
    may stand for an x_i it feeds.  On the rows as given, a pivot above 1
    can divide an overflowed sum back into range.
    """
    off, gap, holders = _admit(rows)
    diag = [row[i] for i, row in enumerate(rows)]  # positive: every row reaches a gap
    off = [{j: c / d for j, c in row.items()} for row, d in zip(off, diag)]
    fac = gth_factor(rows, (off, [g / d for g, d in zip(gap, diag)], holders))
    return None if fac is None else _substitute(fac, [v / d for v, d in zip(b, diag)])


def _residual(rows: list[dict[int, float]], x: list[float], b: list[float]) -> tuple[float, float]:
    """max_i |(M x - b)_i| and ||M||_inf, each row summed left to right."""
    norm_m, residual = 0.0, []
    for row, rhs in zip(rows, b):
        total = size = 0.0
        for j, v in row.items():
            total += v * x[j]
            size += abs(v)
        residual.append(total - rhs)
        norm_m = max(norm_m, size)
    return _max_abs(residual), norm_m
