"""Ground-truth machinery: LU and the H-matrix oracles.

``lu_solve`` solves a matrix given by its rows (``{column: value}``
dicts) with ``sparse_lu`` when the rows form a diagonally dominant
Z-matrix, as every comparison block of a dominant matrix does (by one
reachability pass when the right-hand side is the rows' gap vector, by
the subtraction-free sparse GTH elimination otherwise), and otherwise, like a
matrix given as an array, by the dense ``lu_factor`` with partial
pivoting.

Two independent oracles decide H-status without the dominance theory:

* ``inverse_nonneg_oracle`` inverts the comparison matrix and checks the
  inverse is entrywise nonnegative (the normative test), and
* ``jacobi_oracle`` estimates the spectral radius of the point-Jacobi
  iteration matrix and requires it below one (a consistency witness).

Everything here but ``lu_solve`` of rows that ``sparse_lu`` eliminates
computes with numpy, which each function imports when called: importing
this module (as ``hmatrix`` and ``cli`` do) loads no numpy.  The
ensemble generator lives in ``ensemble``; its names still resolve here
(``__getattr__``), for callers that import them from this module.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .core import InconsistencyError, Matrix, comparison_matrix

if TYPE_CHECKING:
    import numpy as np

#: per-column residual bound for lu_solve: ||M x - b||_inf <= RTOL ||M||_inf ||x||_inf
LU_RESIDUAL_RTOL = 1e-9
#: a pivot below PIVOT_RTOL * max |initial entry| declares singularity
PIVOT_RTOL = 1e-12
#: a temporary of ``lu_factor`` or ``_norm_inf`` holds at most 1/_TEMPORARY_SHARE
#: of M's elements, or _SMALL_TEMPORARY elements, whichever is more
_TEMPORARY_SHARE = 8
_SMALL_TEMPORARY = 1 << 14
#: inverse entries may undershoot zero by this fraction of ||inverse||_inf
INVERSE_TOL = 1e-9
#: jacobi_oracle demands rho < 1 - JACOBI_MARGIN
JACOBI_MARGIN = 1e-9
#: |rho - 1| <= JACOBI_BAND is the do-not-adjudicate boundary band
JACOBI_BAND = 1e-6
#: the names of ``ensemble`` that this module and the package forward to it
_ENSEMBLE_NAMES = ("EnsembleSpec", "RandomStream", "derive_seed", "random_dd_matrix")


def __getattr__(name: str):
    """An ``_ENSEMBLE_NAMES`` name, from ``ensemble``, imported on first use."""
    if name in _ENSEMBLE_NAMES:
        from . import ensemble

        return getattr(ensemble, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class LuFactorization(NamedTuple):
    """Packed L\\U factors with the row permutation applied during pivoting."""

    factors: np.ndarray
    pivots: np.ndarray
    singular: bool
    pivot_threshold: float


def _max_abs(values) -> float:
    """max |v| over ``values``, NaN as soon as one is NaN (as ``np.max``); 0.0 when empty."""
    top = 0.0
    for v in values:
        v = abs(v)
        if not v <= top:
            if v != v:
                return v
            top = v
    return top


def _row_block(size: int, width: int) -> int:
    """Rows per block of a temporary ``width`` wide, next to a matrix of ``size`` elements."""
    return max(1, max(size // _TEMPORARY_SHARE, _SMALL_TEMPORARY) // max(1, width))


def _norm_inf(M: np.ndarray) -> float:
    """Largest row sum of |M|, NaN if M holds one; computed on row blocks, not on |M| at once."""
    import numpy as np

    if M.ndim == 1:
        return float(np.max(np.abs(M))) if M.size else 0.0
    if not M.size:
        return 0.0
    with np.errstate(over="ignore"):  # a row sum past the float range is inf
        if M.size <= _SMALL_TEMPORARY:
            return float(np.max(np.sum(np.abs(M), axis=1)))
        step = _row_block(M.size, M.shape[1])
        return float(np.max([np.max(np.sum(np.abs(M[s : s + step]), axis=1))
                             for s in range(0, M.shape[0], step)]))


def lu_factor(M, pivot_rtol: float = PIVOT_RTOL) -> LuFactorization:
    """LU with partial pivoting; flags singularity instead of raising.

    A pivot of 0, or below ``pivot_rtol`` times the largest initial
    magnitude, declares singularity.  Right-looking elimination.  The
    pivot search, the swaps and the multipliers cost O(n) per step,
    O(n^2) in all, and the updates n^3/3 multiply-adds.  Besides the
    copy of M that becomes the factors, no temporary holds more than an
    eighth of M's elements: the threshold is a max and a min, and each
    update runs on blocks of rows.
    """
    import numpy as np

    a = np.array(M, dtype=np.float64, copy=True)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("lu_factor expects a square real matrix")
    n = a.shape[0]
    pivots = np.arange(n)
    threshold = pivot_rtol * abs(float(max(a.max(), -a.min()))) if a.size else 0.0
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
        multipliers = a[k + 1 :, k]
        multipliers /= a[k, k]
        trailing = a[k, k + 1 :]
        block = _row_block(n * n, n - k - 1)  # rows per update
        for s in range(k + 1, n, block):
            a[s : s + block, k + 1 :] -= np.outer(multipliers[s - k - 1 : s - k - 1 + block], trailing)
    return LuFactorization(a, pivots, singular, threshold)


def _subtract_column(y: np.ndarray, column: np.ndarray, yk):
    """y_i -= column_i * yk, leaving y_i alone where column_i is zero.

    yk is a float (one right-hand side, y a vector) or a row of y.
    Subtracting a zero product changes no y_i (none is -0.0), so the
    whole column is used unless yk holds an inf or a NaN (0 * inf is
    NaN).  A row's yk @ yk is not finite then, or when yk is merely
    huge, where skipping the zeros gives the same y.
    """
    import numpy as np

    if math.isfinite(yk if isinstance(yk, float) else yk @ yk):
        y -= np.multiply.outer(column, yk)
    else:
        rows = column.nonzero()[0]
        y[rows] -= np.multiply.outer(column[rows], yk)


def _solve_factored(fac: LuFactorization, B: np.ndarray) -> np.ndarray:
    """Forward then back substitution, column by column."""
    import numpy as np

    n = fac.factors.shape[0]
    a = fac.factors
    y = B[fac.pivots].astype(np.float64, copy=True)
    y += 0.0  # -0.0 becomes +0.0
    work = y[:, 0] if y.shape[1] == 1 else y  # one right-hand side: y[k] is a float
    for k in range(n - 1):
        _subtract_column(work[k + 1 :], a[k + 1 :, k], work[k])
    for k in range(n - 1, -1, -1):
        work[k] /= a[k, k]
        _subtract_column(work[:k], a[:k, k], work[k])
    return y


def _check_residual(worst: float, norm_m: float, top: float):
    """Raise unless the largest |x_i| ``top`` and the residual ``worst`` are finite and in bound.

    The bound is ``LU_RESIDUAL_RTOL * norm_m * top``.  An inf or a NaN
    in x makes the bound inf or NaN too, which no ``>`` test fails, so a
    non-finite x or residual is rejected on its own, by name.
    """
    if not math.isfinite(top):
        raise InconsistencyError(f"LU solution is not finite: max |x_i| is {top}")
    if not math.isfinite(worst):
        raise InconsistencyError(f"LU residual {worst} is not finite")
    bound = LU_RESIDUAL_RTOL * norm_m * top
    if worst > bound:
        raise InconsistencyError(f"LU residual {worst:.3e} exceeds bound {bound:.3e}")


def _solve_dense(a: np.ndarray, b: np.ndarray, pivot_rtol=PIVOT_RTOL) -> np.ndarray | None:
    import numpy as np

    one_dim = b.ndim == 1
    if one_dim:
        b = b[:, None]
    if b.shape[0] != a.shape[0]:
        raise ValueError("right-hand side length does not match matrix order")
    # an overflow or inf - inf leaves x or its residual non-finite: _check_residual names it
    with np.errstate(over="ignore", invalid="ignore"):
        fac = lu_factor(a, pivot_rtol)
        if fac.singular:
            return None
        x = _solve_factored(fac, b)
        residual = np.abs(a @ x - b)
    norm_m = _norm_inf(a)
    for col in range(x.shape[1]):
        top = float(np.max(np.abs(x[:, col])))
        _check_residual(float(np.max(residual[:, col])) if residual.size else 0.0, norm_m, top)
    return x[:, 0] if one_dim else x


def lu_solve(M, B) -> np.ndarray | list[float] | None:
    """Solve M X = B column by column; None when M is declared singular.

    M is a square array, or the list of its rows as ``{column: value}``
    dicts (``core.comparison_rows``) with B a vector.  Rows go to
    ``sparse_lu.solve_rows``, which gives a list, with no numpy, unless
    it hands them to ``lu_factor`` (a row that is not diagonally
    dominant, or an inf or a NaN); an array is factored by
    ``lu_factor`` and gives an array.  Every finite solve is
    residual-checked; a violated bound means the factorization itself is
    broken and raises InconsistencyError.  Only ``solve_rows`` returns
    an x_i of +inf, where the largest x_i is past the float range.
    """
    if isinstance(M, list) and M and isinstance(M[0], dict):
        from .sparse_lu import solve_rows

        return solve_rows(M, B)
    import numpy as np

    return _solve_dense(np.asarray(M, dtype=np.float64), np.asarray(B, dtype=np.float64))


def inverse_nonneg_oracle(A: Matrix) -> bool:
    """H-status via the comparison matrix: nonsingular with inverse >= 0."""
    import numpy as np

    if 0.0 in A.diagonal_modulus:
        return False
    comp = comparison_matrix(A)
    inv = lu_solve(comp, np.eye(A.n))
    if inv is None:
        return False
    return float(np.min(inv)) >= -INVERSE_TOL * _norm_inf(inv)


def spectral_radius(B) -> float:
    """Spectral radius of an entrywise nonnegative matrix.

    Repeated squaring with per-step infinity-norm normalization:
    ``||B^(2^k)||_inf^(1/2^k)`` accumulated in log space for k up to 40.
    """
    import numpy as np

    b = np.asarray(B, dtype=np.float64)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError("spectral_radius expects a square matrix")
    if (b < 0.0).any():
        raise ValueError("spectral_radius expects entrywise nonnegative input")
    scale = _norm_inf(b)
    if scale == 0.0:
        return 0.0
    c = b / scale
    log_correction = 0.0
    for k in range(1, 41):
        c = c @ c
        s = _norm_inf(c)
        if s == 0.0:
            return 0.0  # nilpotent
        log_correction += math.log(s) / (1 << k)
        c = c / s
    return scale * math.exp(log_correction)


def jacobi_spectral_radius(A: Matrix) -> float | None:
    """rho of the point-Jacobi iteration matrix; None on a zero diagonal."""
    import numpy as np

    if 0.0 in A.diagonal_modulus:
        return None
    J = A.modulus / np.asarray(A.diagonal_modulus)[:, None]
    J = J.copy()
    np.fill_diagonal(J, 0.0)
    return spectral_radius(J)


def jacobi_oracle(A: Matrix) -> bool:
    """H-status via convergence of point-Jacobi on the comparison matrix."""
    rho = jacobi_spectral_radius(A)
    return rho is not None and rho < 1.0 - JACOBI_MARGIN
