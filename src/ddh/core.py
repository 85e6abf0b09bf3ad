"""Square matrices, their sparse pattern, and row-dominance primitives.

Every check in this package depends on entry magnitudes only, so the
container caches a nonnegative ``|a_ij|`` view next to the (possibly
complex) entries, and a compressed-row view of the off-diagonal nonzeros
of that modulus (with its transpose).  The structural kernels (row sums,
the peel, the interwoven closure, the sparsity graph) read the sparse
view, so they cost O(nnz); dense work is left to the LU, the oracles and
the scaling solve.

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

    Row i holds the columns ``indices[indptr[i]:indptr[i + 1]]`` in
    increasing order with magnitudes ``data`` at the same positions.
    Column j is touched by the rows ``t_indices[t_indptr[j]:t_indptr[j + 1]]``
    in increasing order with magnitudes ``t_data``.  Every entry with
    ``|a_ij| != 0`` and i != j is stored, NaN included; the sparsity graph
    keeps only those with ``|a_ij| > 0``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    t_indptr: np.ndarray
    t_indices: np.ndarray
    t_data: np.ndarray

    @classmethod
    def from_modulus(cls, mod: np.ndarray) -> "SparsePattern":
        n = mod.shape[0]
        rows, cols = np.nonzero(mod)  # row-major: columns increase within a row
        keep = rows != cols
        rows, cols = rows[keep], cols[keep]
        data = mod[rows, cols]
        by_col = np.argsort(cols, kind="stable")  # rows stay increasing per column
        arrays = (
            _pointers(rows, n), cols, data,
            _pointers(cols, n), rows[by_col], data[by_col],
        )
        for arr in arrays:
            arr.setflags(write=False)
        return cls(*arrays)

    def row(self, i: int) -> tuple[list[int], list[float]]:
        """Columns and magnitudes of row i's off-diagonal nonzeros."""
        a, b = self.indptr[i], self.indptr[i + 1]
        return self.indices[a:b].tolist(), self.data[a:b].tolist()


def _pointers(keys: np.ndarray, n: int) -> np.ndarray:
    ptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(keys, minlength=n), out=ptr[1:])
    return ptr


@dataclass(frozen=True, eq=False)
class Matrix:
    """Square matrix of order >= 1 with cached magnitude and sparse views."""

    entries: np.ndarray

    def __post_init__(self):
        arr = _as_square_array(self.entries)
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def modulus(self) -> np.ndarray:
        """Entrywise ``|a_ij|`` as float64 (read-only)."""
        mod = np.abs(self.entries).astype(np.float64, copy=False)
        mod.setflags(write=False)
        return mod

    @cached_property
    def pattern(self) -> SparsePattern:
        """Off-diagonal nonzeros of ``modulus`` in compressed row form."""
        return SparsePattern.from_modulus(self.modulus)

    @cached_property
    def deleted_row_sums(self) -> np.ndarray:
        """All deleted row sums, accumulated in increasing column order.

        Pass k adds every row's k-th off-diagonal nonzero, so each row is
        summed strictly left to right and matches a plain loop over
        ``modulus[i]`` bit for bit (adding the skipped zeros changes no
        partial sum of nonnegative terms).
        """
        pat = self.pattern
        counts = np.diff(pat.indptr)
        sums = np.zeros(self.n)
        for k in range(int(counts.max(initial=0))):
            rows = np.flatnonzero(counts > k)
            sums[rows] += pat.data[pat.indptr[rows] + k]
        sums.setflags(write=False)
        return sums

    @cached_property
    def diagonal_modulus(self) -> np.ndarray:
        diag = np.abs(np.diagonal(self.entries)).astype(np.float64, copy=False)
        diag.setflags(write=False)
        return diag

    def transpose(self) -> "Matrix":
        return Matrix(self.entries.T)

    def __repr__(self) -> str:
        return f"Matrix(n={self.n}, dtype={self.entries.dtype})"


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
        prev = -1
        for m in members:
            if m <= prev:
                raise ValueError("members must be strictly increasing")
            prev = m
        if members and not (0 <= members[0] and members[-1] < self.universe_size):
            raise ValueError("members out of range for universe")

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

    def active_sets(self) -> list[IndexSet]:
        """T_0, T_1, ..., ending with the empty set or the stalled block."""
        sets = [self.t_set]
        for batch in self.levels:
            gone = set(batch)
            rest = tuple(i for i in sets[-1].members if i not in gone)
            sets.append(IndexSet(rest, self.t_set.universe_size))
        return sets


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


def comparison_matrix(A: Matrix) -> Matrix:
    """Real matrix with diagonal |a_ii| and off-diagonal -|a_ij|."""
    comp = 0.0 - A.modulus  # one allocation; 0.0 - 0.0 is +0.0, so no -0.0
    np.fill_diagonal(comp, A.diagonal_modulus)
    return Matrix(comp)


def principal_submatrix(A: Matrix, S: IndexSet) -> Matrix:
    """Restriction of A to the rows and columns in S, in increasing order."""
    _check_universe(A, S)
    if len(S) == 0:
        raise ValueError("principal submatrix requires a nonempty index set")
    idx = S.to_array()
    return Matrix(A.entries[np.ix_(idx, idx)])


def is_sdd_by_columns(A: Matrix, tol: float = 0.0) -> bool:
    """True iff the transpose of A is strictly diagonally dominant."""
    return classify_dominance(A.transpose(), tol) is DominanceClass.SDD
