"""Independent H-matrix verdict for diagonally dominant matrices.

A diagonally dominant matrix is an H-matrix exactly when it is weakly
chained diagonally dominant: every row that is not strictly dominant
reaches a strictly dominant row along nonzero off-diagonal entries
(Shivakumar & Chew, Proc. AMS 1974; Azimzadeh & Forsyth, SIAM J. Numer.
Anal. 2016).  This module decides that from the coordinate list alone,
with its own parser, exact row-sum signs (``math.fsum``) and one
breadth-first search, so the benchmark can check ``ddh`` verdicts without
using ``ddh``.
"""

from __future__ import annotations

import math
from collections import deque

from inputs import Expected


def read_coordinates(text: str) -> tuple[int, dict[tuple[int, int], complex]]:
    """Order and summed entries (0-based keys) of general coordinate text."""
    lines = iter(text.splitlines())
    header = next(lines).split()
    field, symmetry = header[3].lower(), header[4].lower()
    if symmetry != "general":
        raise ValueError(f"only general symmetry is supported, got {symmetry!r}")
    n = None
    entries: dict[tuple[int, int], complex] = {}
    for line in lines:
        toks = line.split()
        if not toks or toks[0].startswith("%"):
            continue
        if n is None:
            n = int(toks[0])
            continue
        key = (int(toks[0]) - 1, int(toks[1]) - 1)
        value = complex(float(toks[2]), float(toks[3])) if field == "complex" else float(toks[2])
        entries[key] = entries.get(key, 0.0) + value
    if n is None:
        raise ValueError("missing size line")
    return n, entries


def verdict(n: int, entries: dict[tuple[int, int], complex]) -> Expected:
    """Dominance class and H-status by the weakly-chained rule."""
    diag = [0.0] * n
    off: list[list[float]] = [[] for _ in range(n)]
    into: list[list[int]] = [[] for _ in range(n)]  # into[j]: rows with a_ij != 0
    for (i, j), value in entries.items():
        m = abs(value)
        if i == j:
            diag[i] = m
        elif m > 0.0:
            off[i].append(m)
            into[j].append(i)
    # fsum rounds the exact sum once, so its sign is the exact sign
    gaps = [math.fsum([diag[i]] + [-m for m in off[i]]) for i in range(n)]
    if any(g < 0.0 for g in gaps):
        return Expected("NotDD", None)
    reached = [g > 0.0 for g in gaps]
    if all(reached):
        return Expected("SDD", True)
    cls = "DDPlus" if any(reached) else "DDEquality"
    queue = deque(i for i in range(n) if reached[i])
    while queue:
        j = queue.popleft()
        for i in into[j]:
            if not reached[i]:
                reached[i] = True
                queue.append(i)
    return Expected(cls, all(reached))


def expected_from_text(text: str) -> Expected:
    return verdict(*read_coordinates(text))
