"""Homogeneous sets, twins, and simplicial vertices.

A homogeneous set is a vertex set X such that every outside vertex is either
complete or anticomplete to X; the decomposition theory branches on whether a
nontrivial one exists, and the finder returns just its members.  Twins are a
two-element special case and get their own finders because two of the
theorem's cases quantify over them directly.  A twin finder returns the least
pair as a plain ``(u, v)`` with u < v; its name says whether the pair is
adjacent, and the adjacent finder's pair is simplicial as well: the two share
one closed row, and that row is a clique, which is what the certificate
verifier rechecks.

The simplicial and twin kernels take rows and a vertex mask ``within``, so the
colorer searches an induced part in the graph's own labels.  A twin finder
first sets the rows it holds, one C-level pass: when no two agree it returns
None; otherwise twins come from one grouping of equal rows
(``graph._row_classes``), whose first class with two members gives the least
pair as a pair scan would.
"""

from __future__ import annotations

from .graph import Graph, _is_clique_mask, _mask_to_tuple, _row_classes, _sides


def _closure_mask(g: Graph, seed: int) -> int:
    """Smallest homogeneous set containing the seed mask, by saturation."""
    x = seed
    while True:
        mixed = _sides(g.adj, g.full_mask & ~x, x)[2]
        if not mixed:
            return x
        x |= mixed


def _simplicial_in(adj: tuple[int, ...], within: int) -> int | None:
    """Least vertex of ``within`` whose neighbours inside it form a clique."""
    m = within
    while m:
        low = m & -m
        v = low.bit_length() - 1
        if _is_clique_mask(adj, adj[v] & within):
            return v
        m ^= low
    return None


def _nonadjacent_twins_in(adj: tuple[int, ...], within: int) -> tuple[int, int] | None:
    """Least pair u < v of ``within`` with ``adj[u] & within == adj[v] & within``;
    equal rows make u and v nonadjacent, as no row holds its own vertex.
    Distinct masked rows over all of ``adj`` rule out a pair inside ``within``."""
    if len(set(map(within.__and__, adj))) == len(adj):
        return None
    for twins in _row_classes(adj, within):
        if twins & twins - 1:
            return _mask_to_tuple(twins)[:2]
    return None


def find_nontrivial_homogeneous_set(g: Graph) -> tuple[int, ...] | None:
    """Members of the first nontrivial homogeneous set in pair-lexicographic
    order, or None.

    Every nontrivial homogeneous set contains some pair's closure, and the
    closure of any pair inside it stays inside it, so scanning all pair
    closures is a complete search.  Graphs with n <= 2 have no room for one.
    """
    if g.n <= 2:
        return None
    full = g.full_mask
    for u in range(g.n):
        for v in range(u + 1, g.n):
            x = _closure_mask(g, 1 << u | 1 << v)
            if x != full:
                return _mask_to_tuple(x)
    return None


def find_adjacent_simplicial_twins(g: Graph) -> tuple[int, int] | None:
    """Least pair u < v of adjacent twins that are simplicial, or None.

    Adjacent twins share their closed row, which is then a clique exactly
    when both are simplicial; so the least group of equal closed rows that
    is a clique gives the pair.
    """
    closed = [row | 1 << v for v, row in enumerate(g.adj)]
    if len(set(closed)) == len(closed):
        return None
    for twins in _row_classes(closed, g.full_mask):
        if twins & twins - 1 and _is_clique_mask(g.adj, closed[twins.bit_length() - 1]):
            return _mask_to_tuple(twins)[:2]
    return None


def _anti_simplicial_twins(g: Graph) -> tuple[int, int] | None:
    """find_adjacent_simplicial_twins of g's complement, read off g.

    The complement's closed rows are g's non-neighbourhoods, so its
    adjacent twins are g's nonadjacent twins, grouped in the same order,
    and its closed row is a clique exactly when that non-neighbourhood,
    twins included, is stable in g.
    """
    adj, full = g.adj, g.full_mask
    if len(set(adj)) == len(adj):
        return None
    for twins in _row_classes(adj, full):
        if twins & twins - 1:
            far = full & ~adj[twins.bit_length() - 1]
            if not any(adj[v] & far for v in _mask_to_tuple(far)):
                return _mask_to_tuple(twins)[:2]
    return None


def find_nonadjacent_twins(g: Graph) -> tuple[int, int] | None:
    """Least pair u < v of nonadjacent twins, or None."""
    return _nonadjacent_twins_in(g.adj, g.full_mask)


def find_simplicial_vertex(g: Graph) -> int | None:
    """Least simplicial vertex, or None."""
    return _simplicial_in(g.adj, g.full_mask)
