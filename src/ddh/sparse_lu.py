"""LU of a matrix given by its sparse rows, in pure Python.

``oracle.lu_solve`` hands a matrix given as a list of ``{column: value}``
row dicts (``core.comparison_rows``) to ``solve_rows``.  ``lu_factor_rows``
eliminates on those rows with ``oracle.lu_factor``'s rules, touching only
stored entries, so its time follows the fill of the factors (Gilbert &
Peierls 1988); once the fill is no longer small it hands the matrix
over to the dense ``lu_factor``.  ``solve_rows`` substitutes with
``oracle``'s dense solve's arithmetic, so which path ran changes no
result.  ``oracle`` imports this module only when it is given rows, so
a command that solves nothing does not compile it; it loads no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .oracle import LU_RESIDUAL_RTOL, PIVOT_RTOL, _check_residual, _max_abs, _solve_dense

#: ``lu_factor_rows`` hands over to ``lu_factor`` once its entry updates
#: pass this multiple of the order plus the stored entries
SPARSE_LU_BUDGET = 1


@dataclass(frozen=True, eq=False)
class SparseLu:
    """L\\U factors of a matrix given by its rows, with ``lu_factor``'s pivots.

    ``lower[k]`` lists ``(i, l_ik)`` for the nonzero multipliers of step
    k, i > k a final row position; ``upper[k]`` is the row at position k
    of U as ``{column: u_kj}`` over columns j >= k, its diagonal
    included.  ``pivots[k]`` is the input row at position k.  On a
    singular matrix the factors stop at the failed step.  ``updates``
    counts the entry updates a - l u.
    """

    lower: list[list[tuple[int, float]]]
    upper: list[dict[int, float]]
    pivots: list[int]
    singular: bool
    pivot_threshold: float
    updates: int


def lu_factor_rows(rows: list[dict[int, float]]) -> SparseLu | None:
    """``lu_factor`` of the matrix whose row i is ``rows[i]``, in pure Python.

    Each row maps a column to a float; a missing column is +0.0.  The
    elimination follows ``lu_factor`` step for step: the same threshold
    (``PIVOT_RTOL`` times the largest |entry|), the same pivot (the first
    largest |entry| of the column among positions k..n-1, rows being
    swapped as there), the same multipliers, rows with a zero multiplier
    skipped, and each update a - l u.  Only stored entries are touched,
    and the rows holding a column are kept per column, so the time is
    O(n + stored entries + updates) (Gilbert & Peierls 1988).  Every
    nonzero factor and the singular flag are ``lu_factor``'s, bit for
    bit; a zero's sign may differ.

    Returns None, leaving the matrix to ``lu_factor``, when an entry is
    not finite (0 * inf is NaN in the dense loop, which skips no
    column), or before the updates pass ``SPARSE_LU_BUDGET`` times
    (n + stored entries): the factors fill up, and the dense loop does
    the same arithmetic faster.
    """
    n = len(rows)
    a = [dict(row) for row in rows]
    budget = SPARSE_LU_BUDGET * (n + sum(map(len, a)))
    threshold = PIVOT_RTOL * max(_max_abs(row.values()) for row in a) if n else 0.0
    holders: list[list[int]] = [[] for _ in range(n)]  # the rows holding each column
    for i, row in enumerate(a):
        for j in row:
            holders[j].append(i)
    at, pos = list(range(n)), list(range(n))  # the row at each position, and its inverse
    lower: list[list[tuple[int, float]]] = []
    updates = 0
    singular = False
    for k in range(n):
        live, best, top = [], -1, -1.0  # the rows below k holding column k, and the pivot
        for i in holders[k]:
            if pos[i] >= k:
                live.append(i)
                v = abs(a[i][k])
                if v > top or (v == top and pos[i] < pos[best]):
                    best, top = i, v
        if best < 0 or top == 0.0 or top < threshold:
            singular = True
            break
        r, p = at[k], pos[best]
        at[k], at[p], pos[best], pos[r] = best, r, k, p
        pivot_row = a[best]
        pivot = pivot_row[k]
        trailing = [(j, u) for j, u in pivot_row.items() if j != k]
        step = []
        for i in live:
            if i == best:
                continue
            row = a[i]
            m = row.pop(k) / pivot
            if m == 0.0:
                continue
            updates += len(trailing)
            if updates > budget:
                return None
            step.append((i, m))
            for j, u in trailing:
                old = row.get(j)
                if old is None:
                    row[j] = 0.0 - m * u
                    holders[j].append(i)
                else:
                    row[j] = old - m * u
        lower.append(step)
    # an inf or a NaN, given or from an overflow, stays in a row or in a
    # multiplier: inf - x, NaN - x and their quotients are not finite
    if not all(all(map(math.isfinite, row.values())) for row in a) or not all(
        math.isfinite(m) for step in lower for _, m in step
    ):
        return None
    return SparseLu(
        lower=[[(pos[i], m) for i, m in step] for step in lower],
        upper=[a[i] for i in at[: len(lower)]],
        pivots=at,
        singular=singular,
        pivot_threshold=threshold,
        updates=updates,
    )


def _solve_sparse(lu: SparseLu, b: list[float]) -> list[float]:
    """Solve with ``lu_factor_rows``'s factors, doing ``oracle._solve_factored``'s arithmetic.

    Forward substitution applies column k of L to every later y_i,
    y_i -= l_ik y_k, in increasing k; back substitution sets
    x_k = y_k / u_kk and applies column k of U, y_i -= u_ik x_k, in
    decreasing k.  Only nonzero factors are applied, and y starts with
    no -0.0, so each y_i sees the dense solve's operations in its order.
    """
    n = len(lu.pivots)
    y = [b[i] + 0.0 for i in lu.pivots]
    for k, step in enumerate(lu.lower):
        yk = y[k]
        for i, m in step:
            y[i] -= m * yk
    columns: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for i, row in enumerate(lu.upper):
        for j, u in row.items():
            if j != i and u != 0.0:
                columns[j].append((i, u))
    for k in range(n - 1, -1, -1):
        xk = y[k] = y[k] / lu.upper[k][k]
        for i, u in columns[k]:
            y[i] -= u * xk
    return y


def solve_rows(rows: list[dict[int, float]], b: list[float]) -> list[float] | None:
    """``oracle.lu_solve`` of rows and a vector: x as a list, None when singular.

    The dense path (``oracle._solve_dense``) takes the rows over when
    ``lu_factor_rows`` hands them over or b holds an inf or a NaN.  The
    residual is checked against ``oracle.lu_solve``'s bound either way.
    """
    b = [float(v) for v in b]
    if len(b) != len(rows):
        raise ValueError("right-hand side length does not match matrix order")
    lu = lu_factor_rows(rows) if all(map(math.isfinite, b)) else None
    if lu is None:
        import numpy as np

        dense = np.zeros((len(rows), len(rows)))
        for i, row in enumerate(rows):
            for j, v in row.items():
                dense[i, j] = v
        x = _solve_dense(dense, np.array(b))
        return None if x is None else x.tolist()
    if lu.singular:
        return None
    x = _solve_sparse(lu, b)
    norm_m, residual = 0.0, []
    for row, rhs in zip(rows, b):
        total = size = 0.0
        for j, v in row.items():
            total += v * x[j]
            size += abs(v)
        residual.append(total - rhs)
        norm_m = max(norm_m, size)
    _check_residual(_max_abs(residual), LU_RESIDUAL_RTOL * norm_m * _max_abs(x))
    return x
