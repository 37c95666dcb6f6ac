"""Exhaustive enumeration of small graphs up to isomorphism.

Graphs on n vertices are generated by extending each (n-1)-vertex
representative with a new last vertex attached along a neighbourhood mask.
Each candidate gets its canonical form (``graph.invariant_key``), and the
first candidate seen with each form is kept.  Results are cached per n and
returned sorted by their graph6 string, which makes downstream reports
reproducible.

Masks in one orbit of the parent's automorphism group give isomorphic
candidates (McKay, Isomorph-free exhaustive generation, 1998), so each
parent is extended only by the least mask of each orbit.  This keeps the
same representatives: the first candidate of a class, in (parent order,
ascending mask) order, has an orbit-least mask, since any smaller mask in
its orbit would give an isomorphic candidate that comes earlier.
"""

from __future__ import annotations

from .graph import Graph, _automorphism_generators, _vertex_count, invariant_key
from .graphio import to_graph6

# Known counts of graphs up to isomorphism for n = 0..8, used as a self-check
# (and by tests).  The enumeration stops at the last frozen count, so every
# size it builds is checked; n = 9 alone would take 274,668 classes.
GRAPH_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)
MAX_CENSUS_N = len(GRAPH_COUNTS) - 1

_cache: dict[int, tuple[Graph, ...]] = {}


def enumerate_graphs(n: int) -> tuple[Graph, ...]:
    """All graphs on exactly n vertices, one per isomorphism class."""
    if _vertex_count(n, MAX_CENSUS_N) in _cache:
        return _cache[n]
    if n == 0:
        reps: list[Graph] = [Graph(0)]
    else:
        firsts: dict[tuple[int, ...], Graph] = {}
        for parent in enumerate_graphs(n - 1):
            rows = parent.adj
            for mask in _extension_masks(parent):
                cand_rows = tuple(
                    rows[u] | ((mask >> u & 1) << (n - 1)) for u in range(n - 1)
                ) + (mask,)
                cand = Graph.from_rows(cand_rows)
                firsts.setdefault(invariant_key(cand), cand)
        reps = list(firsts.values())
    reps.sort(key=to_graph6)
    out = tuple(reps)
    if len(out) != GRAPH_COUNTS[n]:
        raise AssertionError(
            f"enumeration produced {len(out)} classes for n={n}, "
            f"expected {GRAPH_COUNTS[n]}"
        )
    _cache[n] = out
    return out


def _extension_masks(parent: Graph) -> list[int] | range:
    """The least neighbourhood mask in each orbit of Aut(parent), ascending.

    Every mask is marked once, by a walk over its orbit under the
    generators; a generator maps masks through a table of all their images.
    """
    k = parent.n
    gens = _automorphism_generators(parent)
    if not gens:
        return range(1 << k)
    tables = []
    for gamma in gens:
        table = [0]
        for v in range(k):
            bit = 1 << gamma[v]
            table += [image | bit for image in table]
        tables.append(table)
    marked = bytearray(1 << k)
    least = []
    for mask in range(1 << k):
        if marked[mask]:
            continue
        least.append(mask)
        marked[mask] = 1
        orbit = [mask]
        for m in orbit:
            for table in tables:
                image = table[m]
                if not marked[image]:
                    marked[image] = 1
                    orbit.append(image)
    return least
