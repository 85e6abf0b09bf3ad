"""Reproducible ensembles of random diagonally dominant matrices (``ddh generate``).

An explicitly specified 64-bit mixing generator (splitmix64, constants
in the README) makes an ensemble reproducible from a seed alone.  It is
counter-based, so ``random_dd_matrix`` computes its stream as uint64
arrays, block by block, in ``RandomStream``'s draw order, importing
numpy when called.  Magnitudes are dyadic multiples of 2^-30, which
keeps every row sum, split row sum and dominance comparison exact in
double precision.  ``analyze`` and ``verify`` never import this module.
"""

from __future__ import annotations

from array import array
from functools import cache
from typing import TYPE_CHECKING

from .core import Matrix, _Frozen

if TYPE_CHECKING:
    import numpy as np


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
