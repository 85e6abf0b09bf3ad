"""Directed sparsity graph: reachability chains out of an index set.

The graph of a matrix has an edge i -> j exactly when i != j and
a_ij != 0, which is exactly an entry stored in ``Matrix.pattern``
(``Matrix`` rejects NaN, so every stored magnitude is positive).  The
search here reads that pattern directly: its rows are the out-edges
and its transpose the in-edges.  One question about the graph drives
the dominance analysis: which members of an index set S reach an index
outside S along nonzero entries (``chains_out_of``).  Its answer is
``core.layers_out_of`` with no re-test, the traversal that with the
exact-gap re-test is the recursive peel.  With S the non-strict rows
this is the chain condition (``chain_condition``); the same chains
decide and certify whether S is interwoven
(``interwoven.interwoven_from_chains``).

A member's next hop is the smallest index one level closer to the
outside of S, so the reported next hops are deterministic, and on a
dominant matrix at tol 0 they are the peel's.
"""

from __future__ import annotations

from functools import cached_property

from .core import IndexSet, Matrix, _Frozen, layers_out_of, non_sdd_rows


class ChainReport(_Frozen):
    """Shortest chains from the members of ``subset`` to indices outside it.

    ``reached`` lists the members with such a chain along nonzero
    entries, by chain length and then by index, and ``next_hop`` maps
    each of them to its successor on a shortest chain: the smallest
    column in its row whose own chain is one step shorter (outside S,
    for a chain of one step);
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

    These are the layers out of S with no re-test (``core.layers_out_of``):
    a member's chain is as long as its level is deep, and its next hop is
    the smallest column one level down.  Interior vertices are members
    of S and only the final vertex lies outside.
    """
    levels, next_hop = layers_out_of(A, S)
    return ChainReport(
        subset=S, reached=tuple(i for level in levels for i in level), next_hop=next_hop,
        unreachable=IndexSet.trusted(tuple(i for i in S.members if i not in next_hop), A.n),
    )


def chain_condition(A: Matrix, tol: float = 0.0) -> ChainReport:
    """Check that every non-strict row reaches a strict row in the graph.

    These are the chains out of the non-strict rows T
    (``chains_out_of``), so following ``next_hop`` runs through rows of
    T and ends at the first strict row.
    """
    return chains_out_of(A, non_sdd_rows(A, tol))
