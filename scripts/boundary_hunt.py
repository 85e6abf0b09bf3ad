#!/usr/bin/env python3
"""Hunt for matrices near the spectral boundary and inspect oracle behaviour.

The discrete theory decides H-status exactly, but the numerical oracles
(LU singularity flag, inverse sign test, Jacobi radius threshold) have a
gray zone around rho = 1.  This script scans an ensemble with magnitudes
spanning many orders of magnitude, collects instances inside the band
|rho - 1| <= band, and reports whether the exact verdict and the oracles
ever point in different directions there.

    python3 scripts/boundary_hunt.py --count 2000 --band 1e-6
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

from ddh import (
    Matrix,
    Peel,
    inverse_nonneg_oracle,
    is_h_dd,
    jacobi_oracle,
    jacobi_spectral_radius,
    layers_out_of,
    non_sdd_rows,
)
from ddh.core import exact_gap, row_strictness
from ddh.ensemble import EnsembleSpec, RandomStream, derive_seed, random_dd_matrix


@dataclass
class HuntConfig:
    count: int = 2000
    band: float = 1e-6
    order: int = 6
    seed: int = 0


def graded_matrix(cfg: HuntConfig, k: int) -> Matrix:
    """Dominant matrix whose magnitudes span ~9 orders of magnitude.

    Start from the standard ensemble and shrink each off-diagonal by a
    random power of two, then re-balance the diagonal; wide grading makes
    tiny dominance margins (and hence boundary instances) far more likely
    than the plain ensemble does.  A row strict in the ensemble, by the
    product's exact rule, stays strict; any other row gets the smallest
    diagonal that keeps it dominant (an equality wherever the exact sum is a
    float).
    """
    base = random_dd_matrix(
        EnsembleSpec(n=cfg.order, density=0.7, equality_rows=0.8,
                     seed=derive_seed(cfg.seed, k))
    )
    rng = RandomStream(derive_seed(cfg.seed ^ 0xBEEF, k))
    entries = base.entries.copy()
    n = cfg.order
    strict = row_strictness(base)  # the product's exact rule
    for i in range(n):
        for j in range(n):
            if i != j and entries[i, j] != 0.0:
                entries[i, j] *= 2.0 ** -(rng.next_u64() % 31)
    for i in range(n):
        off = [abs(entries[i, j]) for j in range(n) if j != i]
        row = math.fsum(off)
        if exact_gap(row, off) < 0.0:  # the sum rounded down: the next float keeps the row dominant
            row = math.nextafter(row, math.inf)
        entries[i, i] = row + (2.0 ** -(rng.next_u64() % 31) if strict[i] > 0 else 0.0)
    return Matrix(entries)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=2000)
    parser.add_argument("--band", type=float, default=1e-6)
    parser.add_argument("--order", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    cfg = HuntConfig(count=args.count, band=args.band, order=args.order, seed=args.seed)

    in_band = 0
    band_splits = 0
    graded_splits = 0
    for k in range(cfg.count):
        A = graded_matrix(cfg, k)
        T = non_sdd_rows(A)
        # the peel that re-tests each touched row by its exact gap, which is_h_dd
        # skips at tol 0, where it provably gives the chains out of T
        exact = (
            not Peel(T, *layers_out_of(A, T, 0.0)).stalled
            and min(A.diagonal_modulus) > 0.0
            and not T.is_full
        )
        rho = jacobi_spectral_radius(A)
        banded = rho is not None and abs(rho - 1.0) <= cfg.band
        assert is_h_dd(A).is_h == exact, f"exact mismatch at k={k}"  # never expected
        inv = inverse_nonneg_oracle(A)
        if banded:
            in_band += 1
            if inv != exact or jacobi_oracle(A) != exact:
                band_splits += 1
                print(f"  band instance k={k}: exact={exact} rho={rho!r} inverse={inv}")
        elif inv != exact:
            graded_splits += 1
            print(f"  graded instance k={k}: exact={exact} rho={rho!r} inverse={inv}")

    print(f"\n{cfg.count} graded matrices, order {cfg.order}: "
          f"{in_band} inside |rho-1|<={cfg.band:g} with {band_splits} oracle/exact "
          f"splits; {graded_splits} splits outside the band from row grading")
    print("the verdict (the chains out of T) never disagreed with the re-tested peel; "
          "every split above is a floating-point oracle artifact")
    return 0


if __name__ == "__main__":
    sys.exit(main())
