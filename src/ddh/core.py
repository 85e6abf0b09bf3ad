"""Square matrices, their sparse pattern, and row-dominance primitives.

Every check in this package depends on entry magnitudes only, and reads
the diagonal, the row sums and the sparsity graph.  So a ``Matrix`` is
stored sparse: its diagonal, and its off-diagonal nonzeros in compressed
row form (with the transpose), as magnitudes (``SparsePattern``, which
is also the sparsity graph) and as the (possibly complex) entries.  The
structural kernels (row sums, the peel, the interwoven closure, the
graph traversals), the scaling sweeps and the principal submatrices
read that storage, so they cost O(n + nnz).  A dense array is built
only on request, for the LU of a subset block, the oracles and the
dense scaling solve.

Row sums accumulate left to right in increasing column order, and all
callers share the helpers here, so quantities that must agree (a full
deleted row sum versus its two halves over a column split, or a row's
sum inside a peel restriction versus the same row in the copied
submatrix) are computed with one accumulation order everywhere.  Kernels
accumulate with ``total += v``, never with ``sum()`` or ``np.sum``:
Python 3.12's ``sum()`` and ``math.fsum`` compensate, and numpy's sum is
pairwise, so either would change the rounding of a row sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np


class InconsistencyError(RuntimeError):
    """A certified quantity failed its own self-check."""


def _as_square_array(data) -> np.ndarray:
    arr = np.asarray(data)
    if arr.dtype.kind in "iubf":
        arr = arr.astype(np.float64, copy=False)
    elif arr.dtype.kind == "c":
        arr = arr.astype(np.complex128, copy=False)
    else:
        raise ValueError(f"unsupported entry dtype {arr.dtype!r}")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square 2-d array, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise ValueError("matrix order must be at least 1")
    return arr


@dataclass(frozen=True, eq=False)
class SparsePattern:
    """Off-diagonal nonzeros of a matrix modulus, by rows and by columns.

    This is the sparsity graph of the matrix, the only one the package
    builds: every entry with i != j and ``|a_ij| != 0`` is stored, and is
    an edge i -> j.  Row i holds the columns
    ``indices[indptr[i]:indptr[i + 1]]`` (its out-edges) in increasing
    order, with magnitudes ``data`` at the same positions.  Column j is
    touched by the rows ``t_indices[t_indptr[j]:t_indptr[j + 1]]`` (its
    in-edges), also in increasing order.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    t_indptr: np.ndarray
    t_indices: np.ndarray

    @classmethod
    def from_triples(cls, n: int, rows, cols, data) -> "SparsePattern":
        """Pattern of the entries ``(rows[k], cols[k])`` with magnitudes ``data[k]``.

        The caller lists off-diagonal positions in row-major order, each
        once, with positive magnitudes.
        """
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        by_col = np.argsort(cols, kind="stable")  # rows stay increasing per column
        arrays = (
            _pointers(rows, n), cols, np.asarray(data, dtype=np.float64),
            _pointers(cols, n), rows[by_col],
        )
        for arr in arrays:
            arr.setflags(write=False)
        return cls(*arrays)

    def row(self, i: int) -> tuple[list[int], list[float]]:
        """Columns and magnitudes of row i's off-diagonal nonzeros."""
        a, b = self.indptr[i], self.indptr[i + 1]
        return self.indices[a:b].tolist(), self.data[a:b].tolist()

    def rows(self) -> np.ndarray:
        """The row of every stored entry, in storage order (``indices`` holds the columns)."""
        return np.repeat(np.arange(len(self.indptr) - 1), np.diff(self.indptr))

    def has_edges(self, rows, cols) -> np.ndarray:
        """Whether each ``(rows[k], cols[k])``, 0-based and in range, is stored.

        Row-major keys ``i n + j`` of the stored entries increase, so this
        is one sorted membership test: O((nnz + k) log), no dense lookup.
        """
        n = len(self.indptr) - 1
        stored = self.rows() * n + self.indices
        wanted = np.asarray(rows, dtype=np.intp) * n + np.asarray(cols, dtype=np.intp)
        return np.isin(wanted, stored)


def _pointers(keys: np.ndarray, n: int) -> np.ndarray:
    ptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(keys, minlength=n), out=ptr[1:])
    return ptr


class Matrix:
    """Square matrix of order >= 1, stored as its diagonal and its off-diagonal nonzeros.

    ``pattern`` holds the off-diagonal nonzeros in compressed row form
    with their magnitudes (and the transpose), ``values`` the entries
    themselves (real or complex) at the same positions, and ``diagonal``
    the diagonal entries, zeros included.  Every check reads these, in
    O(n + nnz) memory.  The dense ``entries`` and ``modulus`` are views
    built on first request (as ``comparison_matrix`` is, on each call):
    the oracles, the dense scaling solve and the tests ask for them.

    ``Matrix(dense)`` converts a square array once.  NaN entries (a
    complex entry with a NaN part included) are rejected, so every stored
    magnitude in ``pattern`` is positive.  Infinite entries are kept.
    The parser and ``principal_submatrix`` build a matrix from its
    nonzeros directly (``from_nonzeros``).
    """

    def __init__(self, entries):
        arr = _as_square_array(entries)
        if np.isnan(arr).any():
            raise ValueError("matrix entries must not be NaN")
        rows, cols = np.nonzero(arr)  # row-major: columns increase within a row
        off = rows != cols
        rows, cols = rows[off], cols[off]
        self._store(np.diagonal(arr).copy(), rows, cols, arr[rows, cols])

    @classmethod
    def from_nonzeros(cls, diagonal, rows, cols, values) -> "Matrix":
        """Matrix with ``diagonal`` and off-diagonal entries ``values`` at ``(rows, cols)``.

        The caller lists each off-diagonal nonzero once, in row-major
        order, and guarantees that no value is NaN; ``values`` and
        ``diagonal`` share a float64 or complex128 dtype.
        """
        A = cls.__new__(cls)
        A._store(np.asarray(diagonal), rows, cols, np.asarray(values))
        return A

    def _store(self, diagonal: np.ndarray, rows, cols, values: np.ndarray):
        if diagonal.shape[0] < 1:
            raise ValueError("matrix order must be at least 1")
        diagonal.setflags(write=False)
        values.setflags(write=False)
        self.diagonal = diagonal
        self.values = values
        self.pattern = SparsePattern.from_triples(diagonal.shape[0], rows, cols, np.abs(values))

    @property
    def n(self) -> int:
        return self.diagonal.shape[0]

    @property
    def dtype(self) -> np.dtype:
        """float64 or complex128."""
        return self.diagonal.dtype

    @cached_property
    def entries(self) -> np.ndarray:
        """Dense entries (read-only), built on first request."""
        dense = _dense(self, self.values, self.diagonal)
        dense.setflags(write=False)
        return dense

    @cached_property
    def modulus(self) -> np.ndarray:
        """Dense entrywise ``|a_ij|`` as float64 (read-only), built on first request."""
        mod = _dense(self, self.pattern.data, self.diagonal_modulus)
        mod.setflags(write=False)
        return mod

    @cached_property
    def deleted_row_sums(self) -> np.ndarray:
        """All deleted row sums, accumulated in increasing column order.

        Pass k adds every row's k-th off-diagonal nonzero, so each row is
        summed strictly left to right and matches a plain loop over
        ``modulus[i]`` bit for bit (adding the skipped zeros changes no
        partial sum of nonnegative terms).
        """
        sums = np.zeros(self.n)
        for rows, at in _entry_passes(self.pattern):
            sums[rows] += self.pattern.data[at]
        sums.setflags(write=False)
        return sums

    @cached_property
    def diagonal_modulus(self) -> np.ndarray:
        diag = np.abs(self.diagonal).astype(np.float64, copy=False)
        diag.setflags(write=False)
        return diag

    def __repr__(self) -> str:
        return f"Matrix(n={self.n}, dtype={self.dtype})"


def _entry_passes(pat: SparsePattern):
    """Pass k: the rows with at least k + 1 stored entries, and the position of the k-th.

    Adding pass after pass sums every row strictly left to right, in
    increasing column order, with one vectorized step per pass.
    """
    counts = np.diff(pat.indptr)
    for k in range(int(counts.max(initial=0))):
        rows = np.flatnonzero(counts > k)
        yield rows, pat.indptr[rows] + k


def _dense(A: Matrix, off: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Order-n array with ``off`` at the pattern's positions and ``diag`` on the diagonal.

    Every dense view of a matrix is made here, and nowhere on the
    structural path.
    """
    out = np.zeros((A.n, A.n), dtype=diag.dtype)
    out[A.pattern.rows(), A.pattern.indices] = off
    np.fill_diagonal(out, diag)
    return out


@dataclass(frozen=True)
class IndexSet:
    """Sorted set of distinct 0-based indices over a universe {0..n-1}."""

    members: tuple[int, ...]
    universe_size: int

    def __post_init__(self):
        members = tuple(int(m) for m in self.members)
        object.__setattr__(self, "members", members)
        if self.universe_size < 0:
            raise ValueError("universe_size must be nonnegative")
        if any(not 0 <= m < self.universe_size for m in members):
            raise ValueError("members out of range for universe")
        if any(a >= b for a, b in zip(members, members[1:])):
            raise ValueError("members must be strictly increasing")

    @classmethod
    def from_indices(cls, indices, universe_size: int) -> "IndexSet":
        return cls(tuple(sorted(set(int(i) for i in indices))), universe_size)

    @classmethod
    def empty(cls, universe_size: int) -> "IndexSet":
        return cls((), universe_size)

    @classmethod
    def full(cls, universe_size: int) -> "IndexSet":
        return cls(tuple(range(universe_size)), universe_size)

    def complement(self) -> "IndexSet":
        inside = self.member_set
        rest = tuple(i for i in range(self.universe_size) if i not in inside)
        return IndexSet(rest, self.universe_size)

    @cached_property
    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    @property
    def is_full(self) -> bool:
        return len(self.members) == self.universe_size

    def to_array(self) -> np.ndarray:
        return np.array(self.members, dtype=np.intp)

    def __contains__(self, i) -> bool:
        return int(i) in self.member_set

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return f"IndexSet({list(self.members)}, n={self.universe_size})"


class DominanceClass(Enum):
    """Row-dominance classification; tags are mutually exclusive."""

    NOT_DD = "NotDD"
    DD_EQUALITY = "DDEquality"
    DD_PLUS = "DDPlus"
    SDD = "SDD"

    @property
    def is_dd(self) -> bool:
        return self is not DominanceClass.NOT_DD


def _check_tol(tol: float) -> float:
    tol = float(tol)
    if not (tol >= 0.0):
        raise ValueError("tol must be a nonnegative real")
    return tol


def _check_index(A: Matrix, i: int) -> int:
    i = int(i)
    if not (0 <= i < A.n):
        raise IndexError(f"row index {i} out of range for order {A.n}")
    return i


def _check_universe(A: Matrix, S: IndexSet):
    if S.universe_size != A.n:
        raise ValueError(
            f"index set universe {S.universe_size} does not match matrix order {A.n}"
        )


def row_strictness(A: Matrix, tol: float = 0.0) -> np.ndarray:
    """Per-row code: +1 strict, 0 equality (within tol), -1 dominance violated."""
    tol = _check_tol(tol)
    gap = A.diagonal_modulus - A.deleted_row_sums
    return np.where(gap > tol, 1, np.where(gap < -tol, -1, 0)).astype(np.int8)


def deleted_row_sum(A: Matrix, i: int) -> float:
    """Sum of off-diagonal magnitudes in row i."""
    i = _check_index(A, i)
    return float(A.deleted_row_sums[i])


def partial_row_sum(A: Matrix, i: int, S: IndexSet) -> float:
    """Part of the deleted row sum of row i over the columns in S."""
    i = _check_index(A, i)
    _check_universe(A, S)
    inside = S.member_set
    cols, vals = A.pattern.row(i)
    total = 0.0
    for j, v in zip(cols, vals):  # increasing column order, matching deleted_row_sum
        if j in inside:
            total += v
    return total


def split_row_sums(A: Matrix, S: IndexSet) -> tuple[np.ndarray, np.ndarray]:
    """Every row's deleted sum split over the columns in S and outside S.

    One O(n + nnz) pass: entry k of each half is ``partial_row_sum`` of
    row k over S and over its complement, bit for bit, since both add
    the row's nonzeros in increasing column order.
    """
    _check_universe(A, S)
    pat = A.pattern
    outside = np.ones(A.n, dtype=np.intp)
    outside[S.to_array()] = 0
    sums = np.zeros((2, A.n))
    for rows, at in _entry_passes(pat):
        sums[outside[pat.indices[at]], rows] += pat.data[at]  # one entry per row and pass
    return sums[0], sums[1]


def classify_dominance(A: Matrix, tol: float = 0.0) -> DominanceClass:
    """Classify A by comparing each |a_ii| against its deleted row sum."""
    s = row_strictness(A, tol)
    if (s < 0).any():
        return DominanceClass.NOT_DD
    if (s > 0).all():
        return DominanceClass.SDD
    if (s > 0).any():
        return DominanceClass.DD_PLUS
    return DominanceClass.DD_EQUALITY


def non_sdd_rows(A: Matrix, tol: float = 0.0) -> IndexSet:
    """Indices of rows that are not strictly dominant (|a_ii| <= r_i + tol)."""
    s = row_strictness(A, tol)
    return IndexSet(tuple(int(i) for i in np.flatnonzero(s <= 0)), A.n)


@dataclass(frozen=True, eq=False)
class Peel:
    """Level structure of the recursive peel onto the non-strict rows.

    With T_0 = ``t_set`` and T_{k+1} = T_k minus ``levels[k]``, each
    ``levels[k]`` lists (increasingly) the rows of T_k that are strict in
    the principal submatrix of A on T_k, and is never empty.  The peel
    ends when T_k is empty or when no row of a nonempty T_k is strict;
    ``stalled`` tells the two apart.
    """

    t_set: IndexSet
    levels: tuple[tuple[int, ...], ...]
    stalled: bool


def peel_levels(A: Matrix, tol: float = 0.0) -> Peel:
    """Worklist form of the recursive peel (Kahn-style, one pass).

    A row's sum inside T_k changes only when a column it touches leaves,
    so only those rows are re-tested after each level: each row at most
    once per column it loses, which is O(nnz) work for bounded row
    degrees and O(sum of squared row degrees) at worst.  A re-tested row's
    sum is re-accumulated over its nonzeros still in T_k in increasing
    column order, which is exactly the deleted row sum of the copied
    submatrix, so every decision matches ``row_strictness`` on it bit for
    bit at any ``tol``.
    """
    tol = _check_tol(tol)
    T = non_sdd_rows(A, tol)
    pat = A.pattern
    indptr, indices, data = pat.indptr.tolist(), pat.indices.tolist(), pat.data.tolist()
    t_indptr, t_indices = pat.t_indptr.tolist(), pat.t_indices.tolist()
    diag = A.diagonal_modulus.tolist()
    active = [False] * A.n
    for i in T.members:
        active[i] = True
    left = len(T)
    removed = T.complement().members
    levels: list[tuple[int, ...]] = []
    while left:
        touched = {
            i
            for j in removed
            for i in t_indices[t_indptr[j]:t_indptr[j + 1]]
            if active[i]
        }
        batch = []
        for i in sorted(touched):
            total = 0.0
            for k in range(indptr[i], indptr[i + 1]):
                if active[indices[k]]:
                    total += data[k]
            if diag[i] - total > tol:
                batch.append(i)
        if not batch:
            break
        for i in batch:
            active[i] = False
        levels.append(tuple(batch))
        left -= len(batch)
        removed = batch
    return Peel(t_set=T, levels=tuple(levels), stalled=left > 0)


def comparison_matrix(A: Matrix) -> np.ndarray:
    """Dense real array with diagonal |a_ii| and off-diagonal -|a_ij|.

    Built from the pattern on each call; unstored entries are +0.0.
    """
    return _dense(A, -A.pattern.data, A.diagonal_modulus)


def principal_submatrix(A: Matrix, S: IndexSet) -> Matrix:
    """Restriction of A to the rows and columns in S, in increasing order.

    Keeps the stored entries with both ends in S and renumbers them:
    O(n + nnz), with no dense array.
    """
    _check_universe(A, S)
    if len(S) == 0:
        raise ValueError("principal submatrix requires a nonempty index set")
    inside = np.zeros(A.n, dtype=bool)
    inside[S.to_array()] = True
    position = np.cumsum(inside) - 1  # of each member in S; increasing, so row-major order stays
    pat = A.pattern
    rows = pat.rows()
    keep = inside[rows] & inside[pat.indices]
    return Matrix.from_nonzeros(
        A.diagonal[inside], position[rows[keep]], position[pat.indices[keep]], A.values[keep]
    )
