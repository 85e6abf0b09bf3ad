"""Directed sparsity graph: reachability chains and block-triangular form.

The graph of a matrix has an edge i -> j exactly when i != j and
``|a_ij| > 0``.  Two questions about it drive the dominance analysis:

* can every non-strict row reach a strict row along nonzero entries
  (``chain_condition``), and
* what are the strongly connected components, ordered so that the
  permuted matrix is block upper triangular (``frobenius_normal_form``).

All traversals scan neighbours in increasing index order and keep the
first discovered parent, so reported paths and block orders are
deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import (
    DominanceClass,
    IndexSet,
    Matrix,
    classify_dominance,
    non_sdd_rows,
)


@dataclass(frozen=True)
class DirectedGraph:
    """Adjacency-list digraph without self-loops."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.adjacency) != self.n:
            raise ValueError("adjacency length must equal vertex count")
        for i, nbrs in enumerate(self.adjacency):
            prev = -1
            for j in nbrs:
                if j == i or not (0 <= j < self.n):
                    raise ValueError(f"bad edge {i}->{j}")
                if j <= prev:
                    raise ValueError("neighbour lists must be strictly increasing")
                prev = j


@dataclass(frozen=True, eq=False)
class ChainReport:
    """Outcome of the nonzero-chain reachability test.

    ``paths`` maps each non-strict row that can reach a strict row to a
    shortest vertex path ending at one; ``unreachable`` collects those
    that cannot.  ``holds`` is true exactly when ``unreachable`` is empty.
    """

    holds: bool
    paths: dict[int, tuple[int, ...]]
    unreachable: IndexSet


@dataclass(frozen=True)
class FrobeniusForm:
    """Permutation to block upper triangular form.

    ``permutation[p]`` is the original index placed at permuted position
    p; ``blocks`` lists the strongly connected components (original
    indices) in the order they appear along the permuted diagonal.
    """

    permutation: tuple[int, ...]
    blocks: tuple[IndexSet, ...]


def build_graph(A: Matrix) -> DirectedGraph:
    """Digraph of the off-diagonal nonzero pattern of A, in O(nnz)."""
    pat = A.pattern
    ptr = pat.indptr.tolist()
    cols = pat.indices.tolist()
    positive = (pat.data > 0.0).tolist()  # NaN magnitudes are not edges
    adjacency = tuple(
        tuple(j for j, ok in zip(cols[a:b], positive[a:b]) if ok)
        for a, b in zip(ptr, ptr[1:])
    )
    return DirectedGraph(A.n, adjacency)


def _reverse_adjacency(G: DirectedGraph) -> list[list[int]]:
    rev: list[list[int]] = [[] for _ in range(G.n)]
    for i, nbrs in enumerate(G.adjacency):
        for j in nbrs:
            rev[j].append(i)
    # built in increasing source order per target, already sorted
    return rev


def _bfs_to_targets(G: DirectedGraph, targets: IndexSet):
    """Multi-source BFS toward ``targets`` along reversed edges.

    Returns (dist, next_hop): dist[v] is the length of a shortest path
    from v to the target set (-1 when unreachable); next_hop[v] is the
    successor of v on one such path (first-discovered parent wins).
    """
    rev = _reverse_adjacency(G)
    dist = [-1] * G.n
    next_hop = [-1] * G.n
    queue: deque[int] = deque()
    for t in targets.members:  # seed in increasing index order
        dist[t] = 0
        queue.append(t)
    while queue:
        u = queue.popleft()
        for v in rev[u]:  # increasing index order
            if dist[v] == -1:
                dist[v] = dist[u] + 1
                next_hop[v] = u
                queue.append(v)
    return dist, next_hop


def reaches_target_set(G: DirectedGraph, targets: IndexSet) -> IndexSet:
    """All vertices with a directed path (length >= 0) into ``targets``."""
    if targets.universe_size != G.n:
        raise ValueError("target set universe does not match graph order")
    dist, _ = _bfs_to_targets(G, targets)
    return IndexSet(tuple(v for v in range(G.n) if dist[v] >= 0), G.n)


def chain_condition(A: Matrix, tol: float = 0.0) -> ChainReport:
    """Check that every non-strict row reaches a strict row in the graph.

    Paths are breadth-first shortest; interior vertices are non-strict
    rows and only the final vertex is strict.
    """
    T = non_sdd_rows(A, tol)
    G = build_graph(A)
    dist, next_hop = _bfs_to_targets(G, T.complement())
    paths: dict[int, tuple[int, ...]] = {}
    missing = []
    for i in T.members:
        if dist[i] == -1:
            missing.append(i)
            continue
        path = [i]
        v = i
        while dist[v] > 0:
            v = next_hop[v]
            path.append(v)
        paths[i] = tuple(path)
    unreachable = IndexSet(tuple(missing), A.n)
    return ChainReport(holds=not missing, paths=paths, unreachable=unreachable)


def _tarjan_sccs(adjacency) -> list[list[int]]:
    """Strongly connected components, emitted in reverse topological order.

    Iterative with an explicit work stack; recursion depth is not an
    issue for any admissible matrix order.
    """
    n = len(adjacency)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, edge_pos = work[-1]
            if edge_pos == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            nbrs = adjacency[v]
            for k in range(edge_pos, len(nbrs)):
                w = nbrs[k]
                if index[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
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
    G = build_graph(A)
    sccs = _tarjan_sccs(G.adjacency)
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
