"""Directed sparsity graph: reachability chains out of an index set.

The graph of a matrix has an edge i -> j exactly when i != j and
a_ij != 0, which is exactly an entry stored in ``Matrix.pattern``
(``Matrix`` refuses NaN, so every stored magnitude is positive).  The
search here reads that pattern directly: its rows are the out-edges
and its transpose the in-edges.  One question about the graph drives
the dominance analysis: which members of an index set S reach an index
outside S along nonzero entries (``chains_out_of``).  Its answer is
``core.layers_out_of`` with no re-test, as a ``core.Peel``: the
traversal that with the exact-gap re-test is the recursive peel.  With
S the non-strict rows this is the chain condition (``chain_condition``);
the same chains decide and certify whether S is interwoven
(``interwoven.interwoven_from_peeling``).

A member's next hop is the smallest index one level closer to the
outside of S, so the reported next hops are deterministic, and on a
dominant matrix at tol 0 the chains out of T are the peel itself.
"""

from __future__ import annotations

from .core import IndexSet, Matrix, Peel, _chains_out_of_t, layers_out_of


def chains_out_of(A: Matrix, S: IndexSet) -> Peel:
    """Shortest chains from every member of S to an index outside S.

    These are the layers out of S with no re-test (``core.layers_out_of``):
    a member's chain is as long as its level is deep, and its next hop is
    the smallest column one level down.  Interior vertices are members
    of S and only the final vertex lies outside.  The chain condition on
    S holds exactly when the layering does not stall.
    """
    return Peel(S, *layers_out_of(A, S))


def chain_condition(A: Matrix, tol: float = 0.0) -> Peel:
    """Check that every non-strict row reaches a strict row in the graph.

    These are the chains out of the non-strict rows T (``chains_out_of``),
    kept with the row codes, so following ``next_hop`` runs through rows
    of T to the first strict row; a report states them at tol 0.  On
    dominant input at tol 0, where the peel's re-test cannot fire,
    ``core.peel_levels`` returns this same ``Peel``.
    """
    return _chains_out_of_t(A, tol)
