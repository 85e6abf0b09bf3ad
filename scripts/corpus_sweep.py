#!/usr/bin/env python3
"""Sweep random dominant ensembles and tabulate how the criteria relate.

For each (order, density, equality fraction) cell this draws matrices,
runs the structural tests (chain condition, interwoven set, recursive
peel) and the two numerical oracles, and prints agreement counts plus
how often each verdict occurs.  At tol 0 ``is_h_dd`` reads its verdict
off the chains out of T, so the structural verdict it is checked
against comes from the peel that re-tests each touched row by its exact
gap (``layers_out_of`` at tol 0).  Useful for eyeballing how the share of
H-matrices moves with the ensemble parameters.

    python3 scripts/corpus_sweep.py --per-cell 200 --seed 7
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field

from ddh import (
    InconsistencyError,
    Peel,
    chain_condition,
    inverse_nonneg_oracle,
    is_h_dd,
    is_interwoven,
    jacobi_spectral_radius,
    layers_out_of,
    non_sdd_rows,
)
from ddh.ensemble import EnsembleSpec, derive_seed, random_dd_matrix
from ddh.oracle import JACOBI_BAND


@dataclass
class SweepConfig:
    orders: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8)
    densities: tuple[float, ...] = (0.2, 0.5, 0.9)
    equality_fractions: tuple[float, ...] = (0.3, 0.7, 1.0)
    per_cell: int = 100
    seed: int = 0
    complex_entries: bool = False


@dataclass
class CellStats:
    total: int = 0
    h_count: int = 0
    chain_count: int = 0
    band_count: int = 0
    disagreements: list[str] = field(default_factory=list)


def run_cell(cfg: SweepConfig, n: int, density: float, eq: float) -> CellStats:
    stats = CellStats()
    base = derive_seed(cfg.seed, hash((n, density, eq)) & 0xFFFF)
    for k in range(cfg.per_cell):
        spec = EnsembleSpec(
            n=n, density=density, equality_rows=eq,
            seed=derive_seed(base, k), complex_entries=cfg.complex_entries,
        )
        A = random_dd_matrix(spec)
        stats.total += 1
        T = non_sdd_rows(A)
        chain = not chain_condition(A).stalled
        retested = not Peel(T, *layers_out_of(A, T, 0.0)).stalled
        diag_ok = min(A.diagonal_modulus) > 0.0
        structural = retested and diag_ok and not T.is_full
        stats.chain_count += chain
        try:
            verdict = is_h_dd(A).is_h
        except InconsistencyError:
            stats.band_count += 1
            continue
        stats.h_count += verdict
        if verdict != structural:
            stats.disagreements.append(f"n={n} seed={spec.seed}: peel vs re-tested peel")
        rho = jacobi_spectral_radius(A)
        if rho is not None and abs(rho - 1.0) <= JACOBI_BAND:
            stats.band_count += 1
            continue
        if verdict != inverse_nonneg_oracle(A):
            stats.disagreements.append(f"n={n} seed={spec.seed}: peel vs oracle")
    return stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--per-cell", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--complex", action="store_true", dest="complex_entries")
    args = parser.parse_args(argv)
    cfg = SweepConfig(
        per_cell=args.per_cell, seed=args.seed, complex_entries=args.complex_entries
    )

    print(f"{'n':>3} {'density':>8} {'eq-rows':>8} {'H-share':>8} "
          f"{'chain':>6} {'band':>5} {'bad':>4}")
    start = time.perf_counter()
    bad_total = 0
    for n in cfg.orders:
        for density in cfg.densities:
            for eq in cfg.equality_fractions:
                s = run_cell(cfg, n, density, eq)
                bad_total += len(s.disagreements)
                print(f"{n:>3} {density:>8.2f} {eq:>8.2f} "
                      f"{s.h_count / s.total:>8.3f} {s.chain_count:>6} "
                      f"{s.band_count:>5} {len(s.disagreements):>4}")
                for msg in s.disagreements:
                    print(f"      !! {msg}")
    elapsed = time.perf_counter() - start
    print(f"\n{len(cfg.orders) * 9} cells x {cfg.per_cell} matrices in {elapsed:.1f} s; "
          f"{bad_total} disagreements")
    return 1 if bad_total else 0


if __name__ == "__main__":
    sys.exit(main())
