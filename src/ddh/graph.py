"""Directed sparsity graph: reachability chains and block-triangular form.

The graph of a matrix has an edge i -> j exactly when i != j and
a_ij != 0, which is exactly an entry stored in ``Matrix.pattern``
(``Matrix`` rejects NaN, so every stored magnitude is positive).  The
traversals here read that pattern directly: its rows are the out-edges
and its transpose the in-edges.  Two questions about the graph drive
the dominance analysis:

* which members of an index set S reach an index outside S along
  nonzero entries (``chains_out_of``, one reverse breadth-first search).
  With S the non-strict rows this is the chain condition
  (``chain_condition``); the same chains decide and certify whether S
  is interwoven (``interwoven.interwoven_from_chains``), and
* what are the strongly connected components, ordered so that the
  permuted matrix is block upper triangular (``frobenius_normal_form``).

All traversals scan neighbours in increasing index order and keep the
first discovered parent, so reported next hops and block orders are
deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .core import (
    DominanceClass,
    IndexSet,
    Matrix,
    SparsePattern,
    classify_dominance,
    non_sdd_rows,
)


@dataclass(frozen=True, eq=False)
class ChainReport:
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


@dataclass(frozen=True)
class FrobeniusForm:
    """Permutation to block upper triangular form.

    ``permutation[p]`` is the original index placed at permuted position
    p; ``blocks`` lists the strongly connected components (original
    indices) in the order they appear along the permuted diagonal.
    """

    permutation: tuple[int, ...]
    blocks: tuple[IndexSet, ...]


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
        unreachable=IndexSet(missing, A.n),
    )


def chain_condition(A: Matrix, tol: float = 0.0) -> ChainReport:
    """Check that every non-strict row reaches a strict row in the graph.

    These are the chains out of the non-strict rows T
    (``chains_out_of``), so following ``next_hop`` runs through rows of
    T and ends at the first strict row.
    """
    return chains_out_of(A, non_sdd_rows(A, tol))


def _tarjan_sccs(pat: SparsePattern) -> list[list[int]]:
    """Strongly connected components, emitted in reverse topological order.

    Iterative with an explicit work stack of (vertex, next position in
    ``pat.indices``); recursion depth is not an issue for any admissible
    matrix order.
    """
    indptr, indices = pat.indptr.tolist(), pat.indices.tolist()
    n = len(indptr) - 1
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, indptr[root])]
        while work:
            v, pos = work[-1]
            if index[v] == -1:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            for k in range(pos, indptr[v + 1]):
                w = indices[k]
                if index[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, indptr[w]))
                    descended = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
    return sccs


def frobenius_normal_form(A: Matrix) -> FrobeniusForm:
    """Group indices into strongly connected blocks, sources first.

    With blocks listed in topological order of the condensation, every
    nonzero a_ij has i's block at or before j's block, i.e. the permuted
    matrix is block upper triangular with irreducible (or 1x1) diagonal
    blocks.
    """
    sccs = _tarjan_sccs(A.pattern)
    sccs.reverse()  # topological order of the condensation
    blocks = tuple(IndexSet(tuple(sorted(comp)), A.n) for comp in sccs)
    permutation = tuple(i for block in blocks for i in block.members)
    return FrobeniusForm(permutation=permutation, blocks=blocks)


def is_irreducible(A: Matrix) -> bool:
    """True iff the sparsity graph is strongly connected (1x1: always)."""
    if A.n == 1:
        return True
    return len(frobenius_normal_form(A).blocks) == 1


def taussky_test(A: Matrix, tol: float = 0.0) -> bool:
    """Irreducibly diagonally dominant with at least one strict row.

    A true result certifies nonsingularity (and scalability to strict
    dominance) without any arithmetic beyond row sums.
    """
    if classify_dominance(A, tol) not in (DominanceClass.DD_PLUS, DominanceClass.SDD):
        return False
    return is_irreducible(A)
