"""Seeded inputs for the benchmark workloads.

Every generator here is deterministic in its seed.  ``chain`` and ``wide``
are built by the benchmark itself, so their verdicts are known from
construction.  ``ensemble`` and ``corpus`` come from the product's own
generator (``ddh generate`` / ``random_dd_matrix``); their verdicts come
from the independent check in ``wcdd.py``.  ``ddh`` only ever sees the
``.mtx`` files written from these texts.

Magnitudes built here are multiples of 2**-10 and rows have few terms, so
every row sum and every equality decision is exact in double precision.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

CHAIN_ORDER = 300
WIDE_ORDER = 2000
WIDE_OFF_DIAGONALS = 3
WIDE_REACHING_ROWS = 4

# ``ddh generate`` flags of one ensemble matrix; one child per matrix.
ENSEMBLE_FLAGS = ("--n", "800", "--density", "0.01", "--equality-rows", "0.5")
ENSEMBLE_COUNT = 3

CORPUS_ORDERS = tuple(range(2, 9))
CORPUS_DENSITIES = (0.2, 0.5, 0.9)
CORPUS_EQUALITY = (0.3, 0.7, 1.0)
CORPUS_SEEDS_PER_CELL = 10


@dataclass(frozen=True)
class Expected:
    """What a correct report says about one input.

    ``is_h`` is None for a matrix that is not diagonally dominant (the
    benchmark generates none).  ``peel_depth`` and ``witness`` (1-based)
    are checked only when set.
    """

    dominance_class: str
    is_h: bool | None
    peel_depth: int | None = None
    witness: tuple[int, ...] | None = None


def _dyadic(rng: random.Random, lo: int, hi: int) -> float:
    """Uniform multiple of 1/1024 in [lo/1024, hi/1024]."""
    return (lo + int(rng.random() * (hi - lo + 1))) / 1024.0


def _signed(rng: random.Random, m: float) -> float:
    return m if rng.random() < 0.5 else -m


def render_mtx(n: int, entries: list[tuple[int, int, float]], comment: str) -> str:
    """Real general coordinate text; ``entries`` hold 0-based (i, j, value)."""
    out = [
        "%%MatrixMarket matrix coordinate real general",
        f"% {comment}",
        f"{n} {n} {len(entries)}",
    ]
    out.extend(f"{i + 1} {j + 1} {v!r}" for i, j, v in entries)
    return "\n".join(out) + "\n"


def chain_matrix(seed: int, n: int = CHAIN_ORDER) -> tuple[str, Expected]:
    """Upper-bidiagonal chain: row i < n-1 is an equality row pointing at i+1.

    Only the last row is strict, so the peel removes one row per level and
    goes n-1 levels deep.  Every equality row reaches the strict row, so
    the matrix is DDPlus and an H-matrix.
    """
    rng = random.Random(seed)
    entries = []
    for i in range(n - 1):
        m = _dyadic(rng, 512, 1024)
        entries.append((i, i, _signed(rng, m)))
        entries.append((i, i + 1, _signed(rng, m)))
    entries.append((n - 1, n - 1, _signed(rng, _dyadic(rng, 512, 1024))))
    text = render_mtx(n, entries, f"perfbench chain n={n} seed={seed}")
    return text, Expected("DDPlus", True, peel_depth=n - 1)


def wide_matrix(seed: int, n: int = WIDE_ORDER) -> tuple[str, Expected]:
    """Large sparse matrix: strict rows plus a few planted equality rows.

    Planted equality rows: ``WIDE_REACHING_ROWS`` rows whose neighbours are
    all strict, one row whose only neighbour is the first of those (a
    two-level chain), and a closed pair (p, q) pointing only at each other.
    The pair cannot reach a strict row, so the matrix is DDPlus and not H,
    and the peel stalls on exactly {p, q} after three levels.
    """
    rng = random.Random(seed)
    planted = rng.sample(range(n), WIDE_REACHING_ROWS + 3)
    reaching = planted[:WIDE_REACHING_ROWS]
    second, p, q = planted[WIDE_REACHING_ROWS:]
    planted_set = set(planted)
    single = {second: reaching[0], p: q, q: p}
    entries = []
    for i in range(n):
        if i in single:
            off = {single[i]: _dyadic(rng, 1, 1024)}
        else:
            off = {}
            while len(off) < WIDE_OFF_DIAGONALS:
                j = int(rng.random() * n)
                if j != i and j not in off and not (i in planted_set and j in planted_set):
                    off[j] = _dyadic(rng, 1, 1024)
        diag = sum(off.values())  # exact: a few dyadic terms
        if i not in planted_set:
            diag += _dyadic(rng, 128, 1024)
        off[i] = diag
        entries.extend((i, j, _signed(rng, off[j])) for j in sorted(off))
    text = render_mtx(n, entries, f"perfbench wide n={n} seed={seed}")
    return text, Expected("DDPlus", False, peel_depth=3, witness=tuple(sorted((p + 1, q + 1))))


def ensemble_seeds(seed: int) -> list[int]:
    """``ddh generate --seed`` values of the ensemble matrices."""
    return [seed * ENSEMBLE_COUNT + k for k in range(ENSEMBLE_COUNT)]


def corpus_specs(seed: int) -> list[dict]:
    """Keyword arguments of ``ddh.oracle.EnsembleSpec`` for every corpus matrix."""
    rng = random.Random(seed)
    specs = []
    for n in CORPUS_ORDERS:
        for density in CORPUS_DENSITIES:
            for equality in CORPUS_EQUALITY:
                for complex_entries in (False, True):
                    for _ in range(CORPUS_SEEDS_PER_CELL):
                        specs.append(
                            dict(
                                n=n,
                                density=density,
                                equality_rows=equality,
                                seed=int(rng.random() * 2**52),
                                complex_entries=complex_entries,
                            )
                        )
    return specs
