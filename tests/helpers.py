"""Shared test utilities: independent oracles and hypothesis strategies.

The oracles here deliberately avoid the library's own algorithms:
interwoven membership is decided by exhaustive search over orderings,
shortest distances by Floyd-Warshall, and subset dominance by trying
every subset.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from array import array
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from ddh import (
    IndexSet,
    InterwovenCertificate,
    Matrix,
    ScalingCertificate,
    jacobi_spectral_radius,
    scaling_margin,
    verify_certificate,
)
from ddh.core import exact_sum
from ddh.oracle import JACOBI_BAND

DYADIC_STEP = 2.0**-30
#: non-dyadic moduli: a sum of three or more of them is a float only now and then
NON_DYADIC = (0.1, 0.37, 1 / 3, 0.7, 2 / 3, 0.2, 0.3, 1.1)
#: T = {2} (0-based): row 2 is an exact equality whose sum outside T, added left to right,
#: missed its exact value by an ulp, so the subset solve on T eliminated a block of order 1
#: and wrote lhs 0.9999999999999999
NON_DYADIC_EQUALITY = [
    [1.102, -0.001, -0.001, 0.1],
    [-0.3333333333333333, 1.6666666666666665, 0.3333333333333333, 0],
    [-0.7, 0.37, 1.7366666666666666, -0.6666666666666666],
    [0.001, 0.1, -0.37, 0.971],
]


def jacobi_in_band(A: Matrix) -> bool:
    """True when A sits in the spectral boundary band.

    There the discrete theory still decides H-status exactly, but the
    floating-point oracles (LU singularity, inverse sign checks, Jacobi
    radius threshold) are allowed to go either way, so agreement
    assertions are skipped, mirroring the acceptance criteria.
    """
    rho = jacobi_spectral_radius(A)
    return rho is not None and abs(rho - 1.0) <= JACOBI_BAND


def dyadic_units(step_bits: int = 30):
    """Strictly positive dyadic floats in (0, 1]; sums of them are exact.

    ``step_bits`` sets the grid 2^-step_bits.  The fine default spans nine
    orders of magnitude and is right for structural properties; tests that
    assert agreement with the floating-point oracles should pass a coarse
    grid (e.g. 10 bits) so entry grading stays far from the LU pivot
    threshold and only the spectral boundary band needs excluding.
    """
    return st.integers(1, 2**step_bits).map(lambda k: k * 2.0**-step_bits)


@st.composite
def dd_matrices(draw, min_n=1, max_n=6, allow_zero_rows=True, step_bits=30):
    """Random diagonally dominant matrices with dyadic magnitudes.

    Every row is exactly an equality row or exactly strict at tol=0.
    """
    n = draw(st.integers(min_n, max_n))
    units = dyadic_units(step_bits)
    mags = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if draw(st.booleans()):
                mags[i, j] = draw(units)
    for i in range(n):
        row_sum = 0.0
        for j in range(n):
            if j != i:
                row_sum += mags[i, j]
        strict = draw(st.booleans())
        if not allow_zero_rows and row_sum == 0.0:
            strict = True
        if strict:
            mags[i, i] = row_sum + draw(units)
        else:
            mags[i, i] = row_sum
    return Matrix(mags)


@st.composite
def pattern_matrices(draw, min_n=2, max_n=5):
    """0/1 off-diagonal patterns with the diagonal set to the row sum."""
    n = draw(st.integers(min_n, max_n))
    mags = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j and draw(st.booleans()):
                mags[i, j] = 1.0
    for i in range(n):
        mags[i, i] = float(mags[i].sum()) - mags[i, i]
    return Matrix(mags)


@st.composite
def proper_subsets(draw, n):
    """Any proper subset of {0..n-1}, possibly empty."""
    members = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n - 1))
    return IndexSet.from_indices(members, n)


def brute_force_interwoven(A: Matrix, S: IndexSet) -> bool:
    """Exhaustive decision of interwoven membership.

    Tries every ordering of |S|-1 distinct members; a position is
    satisfiable iff that member has a nonzero entry into the complement
    or the earlier members (the companion choice has no later effect, so
    testing existence per position is exhaustive over q sequences too).
    Whether the rest of an ordering can be completed depends only on the
    set of members still unplaced, so each such set is searched once.
    """
    s = len(S)
    if s <= 1:
        return True
    mod = A.modulus
    outside = list(S.complement().members)
    members = frozenset(S.members)

    @functools.cache
    def feasible(remaining: frozenset[int]) -> bool:
        if len(remaining) == 1:
            return True
        allowed = outside + sorted(members - remaining)
        for p in remaining:
            if any(mod[p, q] > 0.0 for q in allowed):
                if feasible(remaining - {p}):
                    return True
        return False

    return feasible(members)


def pattern_rows(A: Matrix) -> tuple[tuple[int, ...], ...]:
    """Out-neighbours of every vertex, read from the rows of ``A.pattern``."""
    indptr, indices = A.pattern.indptr, A.pattern.indices
    return tuple(tuple(indices[indptr[i]:indptr[i + 1]]) for i in range(A.n))


def split_row_sums(A: Matrix, S: IndexSet) -> tuple[array, array]:
    """Every row's deleted sum split over the columns in S and outside S, as the product sums.

    Each half is ``core.exact_sum`` of the row's stored magnitudes on that
    side (exact, rounded once, +0.0 where the row has none there), as
    ``hmatrix`` forms r_out and the outside ratios.
    """
    if S.universe_size != A.n:
        raise ValueError("index set universe does not match matrix order")
    indptr, indices, data = A.pattern.indptr, A.pattern.indices, A.pattern.data
    in_s, out_s = array("d"), array("d")
    for i in range(A.n):
        ks = range(indptr[i], indptr[i + 1])
        in_s.append(exact_sum([data[k] for k in ks if indices[k] in S]))
        out_s.append(exact_sum([data[k] for k in ks if indices[k] not in S]))
    return in_s, out_s


def floyd_warshall_dist_to_set(A: Matrix, targets: IndexSet) -> list[float]:
    """Shortest unweighted distance from each vertex into ``targets``."""
    n = A.n
    inf = float("inf")
    dist = [[0.0 if i == j else (1.0 if A.modulus[i, j] > 0.0 else inf) for j in range(n)]
            for i in range(n)]
    for k in range(n):
        for i in range(n):
            dik = dist[i][k]
            if dik == inf:
                continue
            row_k = dist[k]
            row_i = dist[i]
            for j in range(n):
                alt = dik + row_k[j]
                if alt < row_i[j]:
                    row_i[j] = alt
    out = []
    for i in range(n):
        best = inf
        for t in targets.members:
            best = min(best, dist[i][t])
        out.append(best)
    return out


def is_chain_certificate(A: Matrix, cert: InterwovenCertificate) -> bool:
    """Valid, with ``p_seq`` in nondecreasing distance out of the subset.

    That order is what the breadth-first construction promises; the
    distances come from Floyd-Warshall, not from the library's search.
    """
    if not verify_certificate(A, cert):
        return False
    dist = floyd_warshall_dist_to_set(A, cert.subset.complement())
    steps = [dist[p] for p in cert.p_seq]
    return steps == sorted(steps)


def all_proper_nonempty_subsets(n: int):
    for mask in range(1, (1 << n) - 1):
        yield IndexSet(tuple(i for i in range(n) if mask >> i & 1), n)


def exhaustive_ssdd(A: Matrix) -> bool:
    """True iff some nonempty proper subset passes the two-part test."""
    from ddh import s_sdd_check

    return any(s_sdd_check(A, S) for S in all_proper_nonempty_subsets(A.n))


def is_valid_scaling(A: Matrix, cert: ScalingCertificate) -> bool:
    """Every d_i in (0, 1], a positive margin, and the margin ``scaling_margin`` gives, bit for bit."""
    d = np.asarray(cert.d)
    return bool(
        ((d > 0.0) & (d <= 1.0)).all()
        and cert.margin > 0.0
        and scaling_margin(A, d) == cert.margin
    )


def count_updated_rows(monkeypatch) -> list[int]:
    """Rows that each ``numpy.outer`` call updates: the length of its first argument.

    The dense LU's rank-one update calls ``numpy.outer`` once per block
    of rows it updates at a step.
    """
    updated = []
    outer = np.outer

    def counted(a, b, *args, **kwargs):
        updated.append(len(a))
        return outer(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "outer", counted)
    return updated


def record_gth_factors(monkeypatch) -> list:
    """What each ``sparse_lu.gth_factor`` call returned: a ``GthFactors``, or None on a hand-over."""
    import ddh.sparse_lu

    results = []
    factor = ddh.sparse_lu.gth_factor

    def recorded(*args):
        results.append(factor(*args))
        return results[-1]

    monkeypatch.setattr(ddh.sparse_lu, "gth_factor", recorded)
    return results


def non_dyadic_equality_matrix(seed: int, n: int) -> Matrix:
    """A dominant order-n matrix whose exact-equality rows sum three or more non-dyadic moduli.

    Each row draws its off-diagonal nonzeros (each column with
    probability 0.6) from ``NON_DYADIC``, with random signs.  About half
    the rows aim at equality: they redraw, up to 20 times, until they
    hold three or more nonzeros whose exact sum is a float, and take
    that sum as diagonal.  Every other row is strict: its diagonal is
    the smallest float not below its exact sum, plus a ``NON_DYADIC``
    margin.  A left-to-right sum of an equality row's entries outside
    some set can then miss the exact one by an ulp.
    """
    rng = random.Random(seed)
    entries = np.zeros((n, n))
    for i in range(n):
        equality = rng.random() < 0.5
        for _ in range(20 if equality else 1):
            cols = [j for j in range(n) if j != i and rng.random() < 0.6]
            mags = [rng.choice(NON_DYADIC) for _ in cols]
            total = sum(map(Fraction, mags), Fraction(0))
            exact = len(cols) >= 3 and float(total) == total
            if exact:
                break
        d = float(total)
        if d < total:
            d = math.nextafter(d, math.inf)
        if not (equality and exact):
            d += rng.choice(NON_DYADIC)
        for j, m in zip(cols, mags):
            entries[i, j] = m if rng.random() < 0.5 else -m
        entries[i, i] = d if rng.random() < 0.5 else -d
    return Matrix(entries)
