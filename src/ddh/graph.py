"""Directed sparsity graph: reachability chains out of an index set.

The graph of a matrix has an edge i -> j exactly when i != j and
a_ij != 0, which is exactly an entry stored in ``Matrix.pattern``
(``Matrix`` rejects NaN, so every stored magnitude is positive).  The
search here reads that pattern directly: its rows are the out-edges
and its transpose the in-edges.  One question about the graph drives
the dominance analysis: which members of an index set S reach an index
outside S along nonzero entries (``chains_out_of``, one reverse
breadth-first search).  With S the non-strict rows this is the chain
condition (``chain_condition``); the same chains decide and certify
whether S is interwoven (``interwoven.interwoven_from_chains``).

The search scans neighbours in increasing index order and keeps the
first discovered parent, so the reported next hops are deterministic.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property

from .core import IndexSet, Matrix, _Frozen, non_sdd_rows


class ChainReport(_Frozen):
    """Shortest chains from the members of ``subset`` to indices outside it.

    ``reached`` lists the members with such a chain along nonzero
    entries, by breadth-first distance and then by index, and
    ``next_hop`` maps each of them to its successor on a shortest chain;
    ``unreachable`` collects the members without one.  ``holds`` is true
    exactly when ``unreachable`` is empty.  The next hops are the
    certificate (the report's ``chain.next``): O(n), where the full
    ``paths`` can hold about n^2/2 indices and are built only when read.
    """

    subset: IndexSet
    reached: tuple[int, ...]
    next_hop: dict[int, int]
    unreachable: IndexSet

    def __init__(self, subset: IndexSet, reached: tuple[int, ...], next_hop: dict[int, int],
                 unreachable: IndexSet):
        self.__dict__.update(subset=subset, reached=reached, next_hop=next_hop,
                             unreachable=unreachable)

    @property
    def holds(self) -> bool:
        return len(self.unreachable) == 0

    @cached_property
    def paths(self) -> dict[int, tuple[int, ...]]:
        """A shortest vertex path per reached member, by increasing member."""
        paths = {}
        for i in sorted(self.reached):
            path = [i]
            while path[-1] in self.next_hop:
                path.append(self.next_hop[path[-1]])
            paths[i] = tuple(path)
        return paths


def chains_out_of(A: Matrix, S: IndexSet) -> ChainReport:
    """Shortest chains from every member of S to an index outside S.

    A multi-source BFS runs from the complement of S along reversed
    edges: column u of the pattern lists the rows with an edge into u,
    in increasing order, and the first row to discover a vertex becomes
    its successor.  Chains are therefore breadth-first shortest and
    deterministic; interior vertices are members of S and only the
    final vertex lies outside.
    """
    pat = A.pattern
    t_indptr, t_indices = pat.t_indptr.tolist(), pat.t_indices.tolist()
    dist = [-1] * A.n  # length of a shortest chain out of S
    next_hop: dict[int, int] = {}
    queue: deque[int] = deque()
    for t in S.complement().members:  # seed in increasing index order
        dist[t] = 0
        queue.append(t)
    while queue:
        u = queue.popleft()
        for v in t_indices[t_indptr[u]:t_indptr[u + 1]]:
            if dist[v] == -1:
                dist[v] = dist[u] + 1
                next_hop[v] = u
                queue.append(v)
    reached = sorted(next_hop, key=lambda i: (dist[i], i))
    missing = tuple(i for i in S.members if dist[i] == -1)
    return ChainReport(
        subset=S, reached=tuple(reached), next_hop=next_hop,
        unreachable=IndexSet.trusted(missing, A.n),
    )


def chain_condition(A: Matrix, tol: float = 0.0) -> ChainReport:
    """Check that every non-strict row reaches a strict row in the graph.

    These are the chains out of the non-strict rows T
    (``chains_out_of``), so following ``next_hop`` runs through rows of
    T and ends at the first strict row.
    """
    return chains_out_of(A, non_sdd_rows(A, tol))
