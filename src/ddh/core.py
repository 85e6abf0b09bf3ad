"""Square matrices, their sparse pattern, and row-dominance primitives.

Every check in this package depends on entry magnitudes only, and reads
the diagonal, the row sums and the sparsity graph.  So a ``Matrix`` is
stored sparse: its diagonal, and its off-diagonal nonzeros in compressed
row form (with the transpose), as magnitudes (``SparsePattern``, which
is also the sparsity graph) and as the (possibly complex) entries.  The
row codes (kept per tol, with T, the class and the chains out of T), the
row sums and the scaling sweeps read that storage in O(n + nnz).
``layers_out_of`` (the one traversal out of a set S: the chains, and
with a re-test the peel) and ``principal_submatrix`` read only S's rows
and columns.

The storage is standard-library ``array.array`` buffers: indices and
row pointers as ``'q'`` (int64), reals as ``'d'`` (float64), and a
complex entry as its real and imaginary parts side by side in a ``'d'``
buffer, which is complex128's memory layout.  The kernels loop over
them (or a whole-pass ``tolist()`` copy) in plain Python, so the
structural path never imports numpy.  numpy is imported only where a
dense array is built: ``Matrix(dense)``, the ``entries`` and ``modulus``
views and ``comparison_matrix`` here, and the oracles and the dense LU
elsewhere.  ``comparison_rows`` gives the comparison matrix as sparse
rows, which ``oracle.lu_solve`` eliminates in pure Python.
``np.asarray`` views any buffer without a copy (``.view(np.complex128)``
for complex entries).

Every entry and every modulus is finite: ``Matrix(dense)`` refuses any
other entry as the parser does, by the one rule ``_refusal``.
Every dominance sign and every reported row sum is exact with respect to
the float moduli, rounded once: only ``exact_gap`` decides a sign, so a
row's class, a peel re-test and the same row in a copied submatrix
always agree, and a row sum is ``exact_sum``, so the sum outside T of a
row of T at tol 0 is its gap in A[T, T] bit for bit.  A complex
magnitude is ``abs(complex)``, C ``hypot`` (``np.hypot``, not numpy's
own complex ``abs``).
"""

from __future__ import annotations

import cmath
import math
from array import array
from bisect import bisect_left
from enum import Enum
from functools import cached_property
from itertools import accumulate, compress, pairwise, repeat
from types import MappingProxyType
from typing import Mapping, NamedTuple


class InconsistencyError(RuntimeError):
    """A certified quantity failed its own self-check."""


class SparsePattern(NamedTuple):
    """Off-diagonal nonzeros of a matrix modulus, by rows and by columns.

    This is the sparsity graph of the matrix, the only one the package
    builds: every entry with i != j and ``|a_ij| != 0`` is stored, and is
    an edge i -> j.  Row i holds the columns
    ``indices[indptr[i]:indptr[i + 1]]`` (its out-edges) in increasing
    order, with magnitudes ``data`` at the same positions.  Column j is
    touched by the rows ``t_indices[t_indptr[j]:t_indptr[j + 1]]`` (its
    in-edges), also in increasing order.  The index buffers are
    ``array('q')`` and ``data`` is ``array('d')``.
    """

    indptr: array
    indices: array
    data: array
    t_indptr: array
    t_indices: array

    @classmethod
    def from_triples(cls, n: int, rows, cols, data) -> "SparsePattern":
        """Pattern of the entries ``(rows[k], cols[k])`` with magnitudes ``data[k]``.

        The caller lists off-diagonal positions in row-major order, each
        once, with positive magnitudes; ``cols`` (``array('q')``) and
        ``data`` (``array('d')``) are kept as ``indices`` and ``data``.
        ``rows`` is sorted, so row i starts at ``bisect_left(rows, i)``:
        n + 1 binary searches.  The transpose is a counting sort by
        column, so rows stay increasing per column: O(n + nnz).
        """
        t_indptr = _pointers(cols, n)
        free = t_indptr.tolist()  # next free slot of each column
        t_indices = array("q", bytes(8 * len(cols)))
        for i, j in zip(rows, cols):
            t_indices[free[j]] = i
            free[j] += 1
        indptr = array("q", [bisect_left(rows, i) for i in range(n + 1)])
        return cls(indptr, cols, data, t_indptr, t_indices)

    def has_edges(self, rows, cols) -> list[bool]:
        """Whether each ``(rows[k], cols[k])``, 0-based and in range, is stored.

        A row's columns increase, so each pair is one ``bisect`` in its
        row: O(k log(row length)), no dense lookup.
        """
        indptr, indices = self.indptr, self.indices
        found = []
        for i, j in zip(rows, cols):
            end = indptr[i + 1]
            k = bisect_left(indices, j, indptr[i], end)
            found.append(k < end and indices[k] == j)
        return found


def _pointers(keys, n: int) -> array:
    """Compressed pointers of ``keys``, each in 0..n-1: entry i + 1 counts the keys up to i."""
    counts = [0] * (n + 1)
    for k in keys:
        counts[k + 1] += 1
    return array("q", accumulate(counts))


def _refusal(z: complex | float) -> str | None:
    """Why the entry z is refused, or None: the one numeric rule of input.

    A part that is NaN or infinite is refused, and so are finite parts
    whose modulus, ``abs(complex)``, overflows (it raises).
    ``Matrix(dense)`` and the parser both apply it, so they refuse the
    same entries in the same words.
    """
    if not cmath.isfinite(z):
        return "entry value must be finite"
    if type(z) is complex:  # a real entry's modulus is finite with it
        try:
            abs(z)
        except OverflowError:
            return "entry modulus must be finite"
    return None


def _moduli(buf: array, is_complex: bool) -> array:
    """``|x|`` of every real, or of every interleaved (re, im) pair, as ``array('d')``."""
    if is_complex:
        return array("d", map(abs, map(complex, buf[0::2], buf[1::2])))
    return array("d", map(abs, buf))


def _gather(buf: array, at, is_complex: bool) -> array:
    """The entries of ``buf`` at the positions ``at`` (pairs, when complex)."""
    if is_complex:
        return array("d", [x for k in at for x in (buf[2 * k], buf[2 * k + 1])])
    return array("d", [buf[k] for k in at])


def _ndarray(buf: array, is_complex: bool = False):
    """numpy view of a buffer, with no copy: float64, int64, or complex128 for pairs."""
    import numpy as np

    arr = np.asarray(buf)
    return arr.view(np.complex128) if is_complex else arr


class Matrix:
    """Square matrix of order >= 1, stored as its diagonal and its off-diagonal nonzeros.

    ``pattern`` holds the off-diagonal nonzeros in compressed row form
    with their magnitudes (and the transpose), ``values`` the entries
    themselves at the same positions, and ``diagonal`` the diagonal
    entries, zeros included.  Both are ``array('d')``; when
    ``is_complex``, entry k is ``complex(values[2k], values[2k + 1])``.
    Every check reads these, in O(n + nnz) memory; no code writes to
    them once the matrix is built.  The dense
    ``entries`` and ``modulus`` are numpy arrays built on first request
    (as ``comparison_matrix`` is, on each call): the oracles, the dense
    scaling solve and the tests ask for them.

    ``Matrix(dense)`` converts a square array once, and raises
    ``ValueError`` on an entry that ``_refusal`` refuses (NaN or
    infinite, or of infinite modulus), so every stored magnitude in
    ``pattern`` is positive and finite.  The parser, the ensemble
    generator and ``principal_submatrix`` build a matrix from its
    nonzeros directly (``from_nonzeros``).
    """

    def __init__(self, entries):
        import numpy as np

        arr = np.asarray(entries)
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
        rows, cols = np.nonzero(arr)  # row-major: columns increase within a row; NaN is nonzero
        off = rows != cols
        rows, cols = rows[off], cols[off]
        diagonal, values = np.diagonal(arr), arr[rows, cols]
        for z in (*diagonal.tolist(), *values.tolist()):  # every entry that is not zero
            problem = _refusal(z)
            if problem:
                raise ValueError(problem)
        self._store(
            array("d", diagonal.tobytes()),
            array("q", rows.astype(np.int64).tobytes()),
            array("q", cols.astype(np.int64).tobytes()),
            array("d", values.tobytes()),
            arr.dtype.kind == "c",
        )

    @classmethod
    def from_nonzeros(cls, diagonal, rows, cols, values, is_complex: bool = False) -> "Matrix":
        """Matrix with ``diagonal`` and off-diagonal entries ``values`` at ``(rows, cols)``.

        The caller lists each off-diagonal nonzero once, in row-major
        order, and guarantees that ``_refusal`` refuses none.  ``cols``
        is an ``array('q')``; ``diagonal`` and ``values`` are ``array('d')``
        buffers of reals, or, when ``is_complex``, of real and imaginary
        parts side by side.  The buffers are kept, not copied.
        """
        A = cls.__new__(cls)
        A._store(diagonal, rows, cols, values, is_complex)
        return A

    def _store(self, diagonal: array, rows, cols, values: array, is_complex: bool):
        n = len(diagonal) // 2 if is_complex else len(diagonal)
        if n < 1:
            raise ValueError("matrix order must be at least 1")
        self._n = n
        self._strictness: dict[float, _Rows] = {}  # by tol
        self.is_complex = is_complex
        self.diagonal = diagonal
        self.values = values
        self.pattern = SparsePattern.from_triples(n, rows, cols, _moduli(values, is_complex))

    @property
    def n(self) -> int:
        return self._n

    @property
    def dtype(self) -> str:
        """The dense entries' numpy dtype name: ``"float64"`` or ``"complex128"``."""
        return "complex128" if self.is_complex else "float64"

    @cached_property
    def entries(self):
        """Dense entries as a read-only numpy array, built on first request."""
        dense = _dense(
            self, _ndarray(self.values, self.is_complex), _ndarray(self.diagonal, self.is_complex)
        )
        dense.setflags(write=False)
        return dense

    @cached_property
    def modulus(self):
        """Dense entrywise ``|a_ij|`` as a read-only float64 numpy array, built on first request."""
        mod = _dense(self, _ndarray(self.pattern.data), _ndarray(self.diagonal_modulus))
        mod.setflags(write=False)
        return mod

    @cached_property
    def diagonal_modulus(self) -> array:
        return _moduli(self.diagonal, self.is_complex)

    def __repr__(self) -> str:
        return f"Matrix(n={self.n}, dtype={self.dtype})"


def _dense(A: Matrix, off, diag):
    """Order-n numpy array with ``off`` at the pattern's positions and ``diag`` on the diagonal.

    Every dense view of a matrix is made here, and nowhere on the
    structural path.
    """
    import numpy as np

    pat = A.pattern
    out = np.zeros((A.n, A.n), dtype=diag.dtype)
    rows = np.repeat(np.arange(A.n), np.diff(_ndarray(pat.indptr)))
    out[rows, _ndarray(pat.indices)] = off
    np.fill_diagonal(out, diag)
    return out


class _Frozen:
    """Base of the records a ``NamedTuple`` cannot hold: fields set once, in the constructor.

    Assigning or deleting a field raises ``AttributeError``; a
    ``cached_property`` still fills the instance dictionary.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class IndexSet(_Frozen):
    """Sorted set of distinct 0-based indices over a universe {0..n-1}.

    The constructor validates outside input; ``trusted`` takes sorted kernel output as is.
    Two sets are equal, and hash alike, when their members and universes are.
    """

    def __init__(self, members: tuple[int, ...], universe_size: int):
        members = tuple(int(m) for m in members)
        if universe_size < 0:
            raise ValueError("universe_size must be nonnegative")
        if any(not 0 <= m < universe_size for m in members):
            raise ValueError("members out of range for universe")
        if any(a >= b for a, b in zip(members, members[1:])):
            raise ValueError("members must be strictly increasing")
        self.__dict__.update(members=members, universe_size=universe_size)

    @classmethod
    def trusted(cls, members: tuple[int, ...], universe_size: int) -> "IndexSet":
        """The set of ``members``, which the caller guarantees are increasing ints in range."""
        S = cls.__new__(cls)
        S.__dict__.update(members=members, universe_size=universe_size)
        return S

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.members == other.members and self.universe_size == other.universe_size

    def __hash__(self) -> int:
        return hash((self.members, self.universe_size))

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
        return IndexSet.trusted(rest, self.universe_size)

    @cached_property
    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    @property
    def is_full(self) -> bool:
        return len(self.members) == self.universe_size

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


def _check_universe(A: Matrix, S: IndexSet):
    if S.universe_size != A.n:
        raise ValueError(
            f"index set universe {S.universe_size} does not match matrix order {A.n}"
        )


def exact_sum(terms: list[float]) -> float:
    """``sum(terms)`` computed exactly and rounded once; +0.0 for no terms.

    A sum of doubles is a multiple of 2^-1074 that ``math.fsum`` rounds
    correctly (Shewchuk 1997), so the result is the same in any term
    order.  The terms are finite; where their partial sums overflow,
    they are added as ``Fraction``s (a total past the float range gives
    +-inf).
    """
    try:
        return math.fsum(terms)
    except OverflowError:
        pass
    from fractions import Fraction  # imports decimal: only on this rare path

    total = sum(map(Fraction, terms))
    try:
        return float(total)
    except OverflowError:
        return math.inf if total > 0 else -math.inf


def exact_gap(diagonal: float, off: list[float], shift: float = 0.0) -> float:
    """``diagonal - sum(off) + shift`` computed exactly and rounded once (``exact_sum``).

    The one place a dominance sign is decided (row codes, peel re-tests,
    ``s_sdd_check``'s row test, ``sparse_lu``'s admission), so the sign
    is exact, in any term order.
    """
    return 0.0 - exact_sum(off + [-diagonal, -shift])  # the gap, negated


class _Rows(NamedTuple):
    """One classification pass at one tol; ``chains`` holds T's ``Peel`` once asked for."""

    codes: array
    t_set: IndexSet
    dom: DominanceClass
    chains: list


def _classified(A: Matrix, tol: float) -> _Rows:
    """Row codes, non-strict rows and class at ``tol``: one pass per matrix and tol."""
    tol = _check_tol(tol)
    if tol not in A._strictness:
        data, diag = A.pattern.data.tolist(), A.diagonal_modulus
        rows = [data[a:b] for a, b in pairwise(A.pattern.indptr)]
        high = list(map(exact_gap, diag, rows, repeat(-tol)))
        low = list(map(exact_gap, diag, rows, repeat(tol))) if tol else high
        codes = array("b", [(h > 0.0) - (g < 0.0) for h, g in zip(high, low)])
        T = IndexSet.trusted(tuple(compress(range(A.n), map((0).__ge__, codes))), A.n)
        least, most = min(codes), max(codes)
        A._strictness[tol] = _Rows(codes, T, (
            DominanceClass.NOT_DD if least < 0 else DominanceClass.SDD if least > 0
            else DominanceClass.DD_PLUS if most > 0 else DominanceClass.DD_EQUALITY), [])
    return A._strictness[tol]


def row_strictness(A: Matrix, tol: float = 0.0) -> array:
    """Per-row code as ``array('b')``: +1 strict, 0 equality (within tol), -1 dominance violated.

    The signs of |a_ii| - r_i -+ tol, exactly (``exact_gap``).  An
    analysis asks for the codes several times at one tol, so they are
    computed once per matrix and tol; each call returns its own copy.
    """
    return array("b", _classified(A, tol).codes)


def classify_dominance(A: Matrix, tol: float = 0.0) -> DominanceClass:
    """Classify A by comparing each |a_ii| against its deleted row sum (kept with the codes)."""
    return _classified(A, tol).dom


def non_sdd_rows(A: Matrix, tol: float = 0.0) -> IndexSet:
    """Indices of rows that are not strictly dominant (|a_ii| <= r_i + tol), kept with the codes."""
    return _classified(A, tol).t_set


def layers_out_of(A: Matrix, S: IndexSet, tol: float | None = None):
    """``(levels, next_hop)``: the layers of S out of its complement, and each layered row's hop.

    Level one holds the rows of S with a nonzero in a column outside S
    (a scan of S's rows), level k + 1 the rows still in S with one in a
    column of level k (through the transposes of those columns).  Each
    level is increasing, and a row's next hop is the smallest such
    column.  With ``tol`` None every touched row joins: the distance
    layers of the shortest chains out of S (``graph.chains_out_of``).
    With a ``tol`` a touched row joins only when the exact gap of its
    nonzeros still in S, shifted by ``tol``, is positive (``exact_gap``):
    the recursive peel (``peel_levels``).  Rows never layered have no
    hop, and ``next_hop`` is a read-only mapping.  Only S's rows and
    columns are read: O(|S| + their nonzeros) with no re-test, O(sum of
    squared row degrees over S) with one.
    """
    indptr, indices, data, t_indptr, t_indices = A.pattern
    diag, active = A.diagonal_modulus, set(S.members)
    touched = {}  # row -> the smallest column that left before it
    for i in S.members:
        for j in indices[indptr[i]:indptr[i + 1]]:
            if j not in active:
                touched[i] = j
                break
    levels: list[tuple[int, ...]] = []
    next_hop: dict[int, int] = {}
    while touched:
        level = sorted(touched)
        if tol is not None:
            level = [i for i in level if exact_gap(
                diag[i], [data[k] for k in range(indptr[i], indptr[i + 1]) if indices[k] in active],
                -tol) > 0.0]
            if not level:
                break
        for i in level:
            active.discard(i)
            next_hop[i] = touched[i]
        levels.append(tuple(level))
        # columns in decreasing order: the smallest one a row touches is written last
        touched = {i: j for j in reversed(level)
                   for i in t_indices[t_indptr[j]:t_indptr[j + 1]] if i in active}
    return tuple(levels), MappingProxyType(next_hop)


class Peel(NamedTuple):
    """The layers out of a set S = ``t_set``: its chains, or with the re-test its recursive peel.

    With S_0 = S and S_{k+1} = S_k minus ``levels[k]``, each ``levels[k]``
    lists (increasingly) the rows of S_k with a nonzero in a column
    outside S_k, and for the peel onto T only those strict in A[T_k, T_k];
    it is never empty.  ``next_hop`` maps each layered row to the
    smallest such column of the previous level (outside S for
    ``levels[0]``), read-only, since one ``Peel`` can serve several
    readers.  The layering ends when S_k is empty or when no row of a
    nonempty S_k joins; then it is ``stalled``, and the rows with no next
    hop are that block.  As chains, a row's level is the length of its
    shortest chain out of S, and the chain condition holds iff no stall.
    """

    t_set: IndexSet
    levels: tuple[tuple[int, ...], ...]
    next_hop: Mapping[int, int]

    @property
    def stalled(self) -> bool:
        return len(self.next_hop) < len(self.t_set)

    @property
    def paths(self) -> dict[int, tuple[int, ...]]:
        """A shortest vertex path per layered row, by increasing row: about n^2/2 indices on a chain."""
        paths = {}
        for i in sorted(self.next_hop):
            path = [i]
            while path[-1] in self.next_hop:
                path.append(self.next_hop[path[-1]])
            paths[i] = tuple(path)
        return paths


def _chains_out_of_t(A: Matrix, tol: float) -> Peel:
    """The chains out of T at ``tol`` (no re-test): walked once per matrix and tol, then kept."""
    T = non_sdd_rows(A, tol)
    kept = _classified(A, tol).chains
    if not kept:
        kept.append(Peel(T, *layers_out_of(A, T)))
    return kept[0]


def peel_levels(A: Matrix, tol: float = 0.0) -> Peel:
    """The recursive peel as one worklist pass: ``layers_out_of`` T at ``tol``.

    On a dominant matrix at tol 0, the peel every report states, each row
    of T is an exact equality, so no re-test can fail: the peel is
    ``graph.chain_condition``'s very ``Peel`` (Shivakumar & Chew 1974).
    Any other (tol > 0, which only proposes a verdict) re-tests only the
    rows touching a column that just left, each by the exact sign of its
    gap over its nonzeros still in T_k (``exact_gap``): every decision
    matches ``row_strictness`` on the copied submatrix, and only T's
    rows and columns are read.
    """
    tol = _check_tol(tol)
    if not tol and _classified(A, 0.0).dom.is_dd:
        return _chains_out_of_t(A, 0.0)
    T = non_sdd_rows(A, tol)
    return Peel(T, *layers_out_of(A, T, tol))


def comparison_matrix(A: Matrix):
    """Dense real numpy array with diagonal |a_ii| and off-diagonal -|a_ij|.

    Built from the pattern on each call; unstored entries are +0.0.
    """
    return _dense(A, -_ndarray(A.pattern.data), _ndarray(A.diagonal_modulus))


def comparison_rows(A: Matrix) -> list[dict[int, float]]:
    """``comparison_matrix`` by rows: row i maps i to |a_ii| and each stored j to -|a_ij|.

    The form ``oracle.lu_solve`` eliminates in pure Python: O(n + nnz), no numpy.
    """
    pat = A.pattern
    indptr, indices, data = pat.indptr, pat.indices.tolist(), pat.data.tolist()
    rows = []
    for i, d in enumerate(A.diagonal_modulus.tolist()):
        a, b = indptr[i], indptr[i + 1]
        row = {j: -v for j, v in zip(indices[a:b], data[a:b])}
        row[i] = d
        rows.append(row)
    return rows


def principal_submatrix(A: Matrix, S: IndexSet) -> Matrix:
    """Restriction of A to the rows and columns in S, in increasing order.

    Keeps the stored entries with both ends in S and renumbers them:
    O(|S| + the nonzeros of S's rows), with no dense array.
    """
    _check_universe(A, S)
    if len(S) == 0:
        raise ValueError("principal submatrix requires a nonempty index set")
    position = {i: p for p, i in enumerate(S.members)}  # increasing: row-major order stays
    indptr, indices = A.pattern.indptr, A.pattern.indices
    rows, cols, keep = [], array("q"), []
    for p, i in enumerate(S.members):
        for k in range(indptr[i], indptr[i + 1]):
            q = position.get(indices[k], -1)
            if q >= 0:
                rows.append(p)
                cols.append(q)
                keep.append(k)
    return Matrix.from_nonzeros(
        _gather(A.diagonal, S.members, A.is_complex), rows, cols,
        _gather(A.values, keep, A.is_complex), A.is_complex,
    )
