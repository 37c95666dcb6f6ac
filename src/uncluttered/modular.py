"""Homogeneous sets, twins, and simplicial vertices.

A homogeneous set is a vertex set X such that every outside vertex is either
complete or anticomplete to X; the decomposition theory branches on whether a
nontrivial one exists.  Twins are a two-element special case and get their
own finders because two of the theorem's cases quantify over them directly.
A twin finder returns the least pair as a plain ``(u, v)`` with u < v; its
name says whether the pair is adjacent, and the adjacent finder's pair is
simplicial as well.

The simplicial and twin kernels take rows and a vertex mask ``within``, so the
colorer searches an induced part in the graph's own labels; twins come from
one grouping of equal rows, which gives the least pair as a pair scan would.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InputError
from .graph import Graph, _is_clique_mask, _mask_to_tuple, _sides


class HomogeneousSet(NamedTuple):
    """A nontrivial homogeneous set plus the forced outside split."""
    members: tuple[int, ...]
    complete_side: tuple[int, ...]
    anticomplete_side: tuple[int, ...]


def _closure_mask(g: Graph, seed: int) -> int:
    """Smallest homogeneous set containing the seed mask, by saturation."""
    x = seed
    while True:
        mixed = _sides(g.adj, g.full_mask & ~x, x)[2]
        if not mixed:
            return x
        x |= mixed


def _equal_row_groups(rows: tuple[int, ...] | list[int], within: int) -> list[list[int]]:
    """Groups of two or more vertices of ``within`` with one row inside it,
    ordered by least member."""
    groups: dict[int, list[int]] = {}
    for v in _mask_to_tuple(within):
        groups.setdefault(rows[v] & within, []).append(v)
    return [vs for vs in groups.values() if len(vs) > 1]


def _simplicial_in(adj: tuple[int, ...], within: int) -> int | None:
    """Least vertex of ``within`` whose neighbours inside it form a clique."""
    for v in _mask_to_tuple(within):
        if _is_clique_mask(adj, adj[v] & within):
            return v
    return None


def _nonadjacent_twins_in(adj: tuple[int, ...], within: int) -> tuple[int, int] | None:
    """Least pair u < v of ``within`` with ``adj[u] & within == adj[v] & within``;
    equal rows make u and v nonadjacent, as no row holds its own vertex."""
    groups = _equal_row_groups(adj, within)
    return (groups[0][0], groups[0][1]) if groups else None


def find_nontrivial_homogeneous_set(g: Graph) -> HomogeneousSet | None:
    """First nontrivial homogeneous set in pair-lexicographic order, or None.

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
                comp, anti, _ = _sides(g.adj, full & ~x, x)
                return HomogeneousSet(_mask_to_tuple(x), _mask_to_tuple(comp),
                                      _mask_to_tuple(anti))
    return None


def is_simplicial(g: Graph, v: int) -> bool:
    """True iff the neighborhood of v is a clique (isolated vertices count)."""
    return _is_clique_mask(g.adj, g.adj[v])


def are_twins(g: Graph, u: int, v: int) -> bool:
    """True iff u and v agree on all neighbors outside the pair itself."""
    if u == v:
        raise InputError("twin check needs two distinct vertices")
    strip = ~(1 << u | 1 << v)
    return g.adj[u] & strip == g.adj[v] & strip


def find_adjacent_simplicial_twins(g: Graph) -> tuple[int, int] | None:
    """Least pair u < v of adjacent twins that are simplicial, or None.

    Adjacent twins share their closed row, which is then a clique exactly
    when both are simplicial; so the least group of equal closed rows that
    is a clique gives the pair.
    """
    closed = [row | 1 << v for v, row in enumerate(g.adj)]
    for vs in _equal_row_groups(closed, g.full_mask):
        if _is_clique_mask(g.adj, g.adj[vs[0]]):
            return vs[0], vs[1]
    return None


def find_nonadjacent_twins(g: Graph) -> tuple[int, int] | None:
    """Least pair u < v of nonadjacent twins, or None."""
    return _nonadjacent_twins_in(g.adj, g.full_mask)


def find_simplicial_vertex(g: Graph) -> int | None:
    """Least simplicial vertex, or None."""
    return _simplicial_in(g.adj, g.full_mask)
