"""Ground-truth machinery: LU, H-matrix oracles, matrix ensembles.

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

The ensemble generator uses an explicitly specified 64-bit mixing
generator (splitmix64, constants in the README) so ensembles are
reproducible from a seed alone.  splitmix64 is counter-based, so the
generator computes its stream as uint64 arrays, block by block, in the
same draw order as ``RandomStream``.  Magnitudes are dyadic multiples of
2^-30, which keeps every row sum, split row sum and dominance comparison
exact in double precision.

Everything here but ``lu_solve`` of rows that ``sparse_lu`` eliminates,
``RandomStream`` and ``derive_seed`` computes with numpy, which each
function imports when called: importing this module (as ``hmatrix`` and
``cli`` do) loads no numpy.
"""

from __future__ import annotations

import math
from array import array
from functools import cache
from typing import TYPE_CHECKING, NamedTuple

from .core import InconsistencyError, Matrix, _Frozen, comparison_matrix

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
    ``lu_factor`` and gives an array.  Every solve is residual-checked;
    a violated bound means the factorization itself is broken and raises
    InconsistencyError.
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


# ---------------------------------------------------------------------------
# Reproducible ensembles
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class RandomStream:
    """splitmix64: state advances by a fixed odd gamma, output is mixed state."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)

    def next_unit(self) -> float:
        """Dyadic value in (0, 1]: (top-30-bits + 1) / 2^30."""
        return ((self.next_u64() >> 34) + 1) / 1073741824.0


def derive_seed(seed: int, k: int) -> int:
    """Stable per-item seed for families of ensembles."""
    return _mix64((int(seed) + int(k) * _GAMMA) & _MASK64)


class EnsembleSpec(_Frozen):
    """Parameters of one random diagonally dominant matrix; equal when every parameter is."""

    def __init__(self, n: int, density: float, equality_rows: float, seed: int,
                 complex_entries: bool = False):
        if n < 1:
            raise ValueError("ensemble order must be at least 1")
        if not (0.0 <= density <= 1.0):
            raise ValueError("density must lie in [0, 1]")
        if not (0.0 <= equality_rows <= 1.0):
            raise ValueError("equality_rows must lie in [0, 1]")
        self.__dict__.update(n=n, density=density, equality_rows=equality_rows, seed=seed,
                             complex_entries=complex_entries)

    def _key(self) -> tuple:
        return (self.n, self.density, self.equality_rows, self.seed, self.complex_entries)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "EnsembleSpec(" + ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items()) + ")"


_PHASES = (1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j)
#: stream positions ``random_dd_matrix`` draws at once for the inclusion scan
STREAM_BLOCK = 1 << 16


@cache
def _u64() -> dict:
    """The array form's uint64 constants, made once: a numpy scalar costs a call."""
    import numpy as np

    return {
        c: np.uint64(c)
        for c in (1, 3, 27, 30, 31, 34, _GAMMA, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
    }


def stream_words(seed: int, positions) -> np.ndarray:
    """splitmix64 outputs at the given 0-based stream positions, as uint64.

    splitmix64 is counter-based: output k >= 1 of ``RandomStream(seed)``
    is ``_mix64(seed + k * gamma mod 2^64)``, so position p (the
    (p+1)-th ``next_u64``) needs no state.  uint64 array arithmetic
    wraps modulo 2^64, as the scalar masks do.
    """
    import numpy as np

    u64 = _u64()
    z = np.asarray(positions, dtype=np.uint64) + u64[1]
    z *= u64[_GAMMA]
    z += np.uint64(int(seed) & _MASK64)
    z ^= z >> u64[30]
    z *= u64[0xBF58476D1CE4E5B9]
    z ^= z >> u64[27]
    z *= u64[0x94D049BB133111EB]
    z ^= z >> u64[31]
    return z


def _units(words: np.ndarray) -> np.ndarray:
    """``RandomStream.next_unit`` of each word: (top-30-bits + 1) / 2^30."""
    u64 = _u64()
    return ((words >> u64[34]) + u64[1]) / 1073741824.0


def random_dd_matrix(spec: EnsembleSpec) -> Matrix:
    """Draw a diagonally dominant matrix; deterministic in the seed.

    Off-diagonal magnitudes are dyadic multiples of 2^-30 in (0, 1];
    complex mode multiplies them by an axis phase (1, i, -1, -i) so the
    magnitude stays bit-exact.  Each diagonal entry is set to its row sum
    (an equality row) or to the row sum plus a dyadic offset in about
    (0.1, 1] (a strict row), so generated matrices are exactly
    diagonally dominant at zero tolerance.

    Draw order (one splitmix64 stream seeded by ``spec.seed``): for each
    row i and column j != i in row-major order, one unit for pattern
    inclusion, then if included one unit for magnitude, then in complex
    mode one raw word for the phase; afterwards, per row, one unit for
    the equality decision and, for strict rows only, one unit for the
    offset.

    The stream is computed in blocks of about ``STREAM_BLOCK`` positions
    by ``stream_words``.  Where a cell's inclusion draw sits depends on
    how many cells before it were included, so one scan over each block's
    passing draws resolves them: a passing draw at a position that the
    last included cell's magnitude or phase took is skipped, and a cell
    whose draws would cross the block's end starts the next block.  Each
    block's magnitudes and phases are then read from it, and its cells,
    which come in row-major order, are appended to the compressed rows
    that ``Matrix.from_nonzeros`` keeps: memory stays bounded by the
    block and the sparse matrix.  The per-row draws follow the cells.  A
    row sum adds fewer than 2^23 dyadic multiples of 2^-30 in (0, 1], so
    it is exact in any order, across blocks too.
    """
    import numpy as np

    n = spec.n
    extra = 2 if spec.complex_entries else 1  # slots an included cell adds
    cells = n * (n - 1)
    phases = np.array(_PHASES)
    rows, cols, values = array("q"), array("q"), array("d")  # the included cells
    row_sums = np.zeros(n)
    pos = 0  # position of the next unresolved cell's inclusion draw
    shift = 0  # slots the included cells before pos took: pos - shift is a cell
    start = stop = 0  # the last block's positions
    while pos - shift < cells:
        left = cells - pos + shift
        # the cells left at their expected density, then the per-row draws;
        # a short guess costs one more block, and a block holds one cell's draws
        guess = left + int(extra * spec.density * left) + 2 * n + 16
        start = pos
        stop = pos + max(1 + extra, min(STREAM_BLOCK, guess))
        words = stream_words(spec.seed, np.arange(start, stop))
        units = _units(words)
        first = shift  # the shift at the block's first included cell
        hits: list[int] = []  # the included cells' inclusion draws
        resume = stop
        for q in ((units <= spec.density).nonzero()[0] + start).tolist():
            if q < pos:
                continue  # a magnitude or phase draw
            if q - shift >= cells:
                break  # a per-row draw
            if q + extra >= stop:
                resume = q  # its magnitude or phase lies past the block
                break
            hits.append(q)
            pos = q + 1 + extra
            shift += extra
        pos = max(pos, resume)  # every cell from pos up to resume failed its draw
        if hits:
            at = np.array(hits) - start
            c = at + (start - first) - extra * np.arange(len(hits))  # rank among off-diagonal cells
            i, j = np.divmod(c + c // n + 1, n)  # c = i (n - 1) + j - [j > i] is entry i n + j
            magnitudes = units[at + 1]
            if spec.complex_entries:
                values.frombytes((magnitudes * phases[words[at + 2] & _u64()[3]]).tobytes())
            else:
                values.frombytes(magnitudes.tobytes())
            rows.frombytes(i.astype(np.int64).tobytes())
            cols.frombytes(j.astype(np.int64).tobytes())
            row_sums += np.bincount(i, weights=magnitudes, minlength=n)

    rows_at = cells + shift  # position of the first per-row draw, at most 2n of them
    if not start <= rows_at <= stop - 2 * n:
        start = rows_at
        units = _units(stream_words(spec.seed, np.arange(start, start + 2 * n)))
    row_units = units[rows_at - start : rows_at - start + 2 * n].tolist()
    offsets = [0.0] * n
    r = 0
    for i in range(n):
        if row_units[r] <= spec.equality_rows:
            r += 1
        else:
            offsets[i] = round((0.1 + 0.9 * row_units[r + 1]) * 1048576) / 1048576.0
            r += 2
    diagonal = row_sums + offsets  # offset 0.0 keeps an equality row's sum
    if spec.complex_entries:
        diagonal = diagonal.astype(np.complex128)
    return Matrix.from_nonzeros(
        array("d", diagonal.tobytes()), rows, cols, values, spec.complex_entries
    )
