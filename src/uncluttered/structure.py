"""Candelabra, candled decompositions, and line graphs of triangle-free roots.

A candelabrum is a graph partitioned into nonempty cliques Y_1..Y_k and
nonempty stable sets Z_1..Z_k where distinct Y's are anticomplete, distinct
Z's are complete, and Y_i sees exactly Z_i among the Z's.  The base is the
union of the Z's.  A graph is candled when some induced candelabrum has its
base complete to, and the rest of the candelabrum anticomplete to, everything
else.

For line graphs the only roots this package ever needs are triangle-free.
Their line graphs are exactly the graphs with no induced claw and no induced
diamond, and on those the Krausz cliques K(u,v) = {u, v} + (N(u) & N(v))
partition the edges with every vertex in at most two of them.  Recognition
builds that root directly (Krausz 1943; Roussopoulos 1973) and keeps it only
if it is triangle-free and verify_root maps g onto its line graph, so every
root returned proves its own claim.  The test suite checks that the roots
appear exactly on the claw- and diamond-free graphs.

Candelabrum and candled checks work on vertex masks of the host graph with
the mask kernels of graph.py (clique, stable, complete, anticomplete, the
component sweep and the complete/anticomplete/mixed split), so a body is
checked in g's own labels, never induced and relabeled.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InputError
from .graph import (
    MAX_VERTICES,
    Graph,
    _as_mask,
    _component_masks,
    _is_anticomplete_mask,
    _is_clique_mask,
    _is_complete_mask,
    _is_stable_mask,
    _mask_to_tuple,
    _sides,
    is_bipartite,
)
from .modular import _closure_mask

# -- triangle-free and line graphs -----------------------------------------


def is_triangle_free(g: Graph):
    """None if g has no triangle, else the lexicographically least one."""
    for u in range(g.n):
        mu = g.adj[u] >> (u + 1) << (u + 1)
        mv = mu
        while mv:
            lowv = mv & -mv
            v = lowv.bit_length() - 1
            common = mu & g.adj[v] >> (v + 1) << (v + 1)
            if common:
                w = (common & -common).bit_length() - 1
                return (u, v, w)
            mv ^= lowv
    return None


def line_graph(h: Graph) -> Graph:
    """Graph on the edges of h, adjacent when they share an endpoint."""
    edges = h.edges()
    if not edges:
        raise InputError("line graph of an edgeless graph is undefined here")
    m = len(edges)
    if m > MAX_VERTICES:
        raise InputError(f"line graph would have {m} vertices, above {MAX_VERTICES}")
    rows = [0] * m
    for i in range(m):
        a, b = edges[i]
        for j in range(i + 1, m):
            c, d = edges[j]
            if a in (c, d) or b in (c, d):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph.from_rows(tuple(rows))


class RootGraph(NamedTuple):
    """A root whose line graph is the host, with the witnessing bijection.

    ``edge_map[w]`` is the root edge (a, b) with a < b that host vertex w
    plays.  Produced only with triangle-free roots here.
    """
    root: Graph
    edge_map: tuple[tuple[int, int], ...]


def verify_root(g: Graph, rg: RootGraph) -> bool:
    """Recheck that rg.edge_map is an isomorphism from g to line_graph(root).

    Works directly off shared endpoints instead of building the line graph,
    so it is safe on edgeless and empty hosts too.
    """
    if len(rg.edge_map) != g.n:
        return False
    root = rg.root
    seen = set()
    for a, b in rg.edge_map:
        if not (0 <= a < b < root.n) or not root.has_edge(a, b):
            return False
        if (a, b) in seen:
            return False
        seen.add((a, b))
    if root.edge_count() != g.n:
        return False
    for u in range(g.n):
        a, b = rg.edge_map[u]
        for v in range(u + 1, g.n):
            c, d = rg.edge_map[v]
            shares = a in (c, d) or b in (c, d)
            if shares != g.has_edge(u, v):
                return False
    return True


def recognize_line_graph_triangle_free(g: Graph) -> RootGraph | None:
    """Root reconstruction for line graphs of triangle-free graphs.

    Returns None iff g is not the line graph of any triangle-free graph.
    Builds one Krausz clique K(u,v) per edge, deduplicates, hangs a pendant
    root vertex on every once-covered host vertex, and gives every isolated
    host vertex a private root edge.  The root is kept only if every host
    vertex lies in at most two cliques, no two host vertices share a root
    edge, the root is triangle-free and verify_root accepts it.
    """
    cliques: list[int] = []
    seen: set[int] = set()
    for u in range(g.n):
        m = g.adj[u] >> (u + 1) << (u + 1)
        while m:
            low = m & -m
            v = low.bit_length() - 1
            mask = (1 << u) | low | (g.adj[u] & g.adj[v])
            if mask not in seen:
                seen.add(mask)
                cliques.append(mask)
            m ^= low
    cliques.sort(key=_mask_to_tuple)
    cover: list[list[int]] = [[] for _ in range(g.n)]
    for idx, mask in enumerate(cliques):
        for w in _mask_to_tuple(mask):
            cover[w].append(idx)
            if len(cover[w]) > 2:
                return None
    # Root vertices: one per clique, then pendants and isolated-edge ends.
    # A root may exceed the host's 64-vertex cap (a path on 64 vertices has
    # a 65-vertex root), so its rows are built here and wrapped directly.
    next_vertex = len(cliques)
    edge_map: list[tuple[int, int]] = []
    for w in range(g.n):
        cs = cover[w]
        if len(cs) == 2:
            e = (cs[0], cs[1])
        elif len(cs) == 1:
            e = (cs[0], next_vertex)
            next_vertex += 1
        else:
            e = (next_vertex, next_vertex + 1)
            next_vertex += 2
        edge_map.append(e)
    rows = [0] * next_vertex
    for a, b in edge_map:
        if rows[a] >> b & 1:
            return None
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    rg = RootGraph(Graph.from_rows(tuple(rows)), tuple(edge_map))
    if is_triangle_free(rg.root) is not None or not verify_root(g, rg):
        return None
    return rg


def is_line_graph_of_bipartite(g: Graph) -> bool:
    """True iff g is the line graph of some bipartite graph.

    Bipartite roots are triangle-free, and triangle-free roots are unique
    per component up to isomorphism, so testing the reconstructed root for
    bipartiteness decides the question.
    """
    rg = recognize_line_graph_triangle_free(g)
    return rg is not None and is_bipartite(rg.root)


# -- candelabra -------------------------------------------------------------


class CandelabrumStructure(NamedTuple):
    """A validated candelabrum partition: parallel clique and stable parts."""
    clique_parts: tuple[tuple[int, ...], ...]
    stable_parts: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.clique_parts)

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(sorted(v for part in self.stable_parts for v in part))

    @property
    def vertex_set(self) -> tuple[int, ...]:
        both = [v for part in self.clique_parts for v in part]
        both += [v for part in self.stable_parts for v in part]
        return tuple(sorted(both))


def check_candelabrum(g: Graph, clique_parts, stable_parts) -> bool:
    """Validate the candelabrum conditions for a well-formed partition of V(g).

    Raises InputError when the parts are not disjoint nonempty sets covering
    all of g with equally many parts on each side; returns False when the
    partition is well-formed but some adjacency condition fails.
    """
    ys = [tuple(sorted(p)) for p in clique_parts]
    zs = [tuple(sorted(p)) for p in stable_parts]
    if len(ys) != len(zs) or not ys:
        raise InputError("candelabrum needs equally many parts, at least one")
    if any(not p for p in ys) or any(not p for p in zs):
        raise InputError("candelabrum parts must be nonempty")
    all_vs = [v for p in ys + zs for v in p]
    if len(set(all_vs)) != len(all_vs) or set(all_vs) != set(range(g.n)):
        raise InputError("candelabrum parts must partition the vertex set")
    ymasks = [sum(1 << v for v in p) for p in ys]
    zmasks = [sum(1 << v for v in p) for p in zs]
    return _candelabrum_holds(g.adj, ymasks, zmasks)


def _candelabrum_holds(adj: tuple[int, ...], ymasks: list[int],
                       zmasks: list[int]) -> bool:
    """The candelabrum adjacency conditions on disjoint nonempty part masks."""
    k = len(ymasks)
    for i in range(k):
        ym, zm = ymasks[i], zmasks[i]
        if not (_is_clique_mask(adj, ym) and _is_stable_mask(adj, zm)
                and _is_complete_mask(adj, ym, zm)):
            return False
        for j in range(i + 1, k):
            if not (_is_anticomplete_mask(adj, ym, ymasks[j])
                    and _is_complete_mask(adj, zm, zmasks[j])
                    and _is_anticomplete_mask(adj, ym, zmasks[j])
                    and _is_anticomplete_mask(adj, ymasks[j], zm)):
                return False
    return True


def _candelabrum_on(g: Graph, body: int, base: int) -> CandelabrumStructure | None:
    """The candelabrum induced on the body mask with this base mask, if any,
    with its parts in g's own labels."""
    adj = g.adj
    non_base = body & ~base
    if not base or not non_base:
        return None
    ymasks = _component_masks(adj, non_base)
    zmasks = [0] * len(ymasks)
    m = base
    while m:
        low = m & -m
        row = adj[low.bit_length() - 1]
        hits = [i for i, ym in enumerate(ymasks) if row & ym]
        if len(hits) != 1:
            return None
        zmasks[hits[0]] |= low
        m ^= low
    if not all(zmasks) or not _candelabrum_holds(adj, ymasks, zmasks):
        return None
    return CandelabrumStructure(tuple(_mask_to_tuple(ym) for ym in ymasks),
                                tuple(_mask_to_tuple(zm) for zm in zmasks))


def recognize_candelabrum_with_base(g: Graph, base) -> CandelabrumStructure | None:
    """The unique candelabrum structure on g with the given base, if any.

    Given the base, everything is forced: the clique parts must be the
    components of the non-base side, and each base vertex must attach to
    exactly one of them.
    """
    return _candelabrum_on(g, g.full_mask, _as_mask(g, base))


def recognize_candelabrum(g: Graph) -> CandelabrumStructure | None:
    """Some candelabrum structure on all of g, or None if none exists.

    Candidate bases are forced up to a small list.  With one part, the
    cliques are exactly the universal vertices (or all but one vertex of a
    complete graph).  With more parts, any non-base vertex v determines its
    whole part as the vertices sharing its closed neighborhood, and the base
    follows from any neighbor outside that part.
    """
    if g.n < 2:
        return None
    full = g.full_mask
    candidates: list[int] = []
    universal = 0
    for v in range(g.n):
        if g.adj[v] | 1 << v == full:
            universal |= 1 << v
    if universal and universal != full:
        candidates.append(full & ~universal)
    if universal == full:
        candidates.append(1 << (g.n - 1))
    for v in range(g.n):
        closed = g.adj[v] | 1 << v
        part = 0
        m = closed
        while m:
            low = m & -m
            if g.adj[low.bit_length() - 1] | low == closed:
                part |= low
            m ^= low
        z_local = closed & ~part
        if not z_local:
            continue
        zv = (z_local & -z_local).bit_length() - 1
        candidates.append(z_local | (g.adj[zv] & ~closed))
    tried = set()
    for base_mask in candidates:
        if base_mask in tried:
            continue
        tried.add(base_mask)
        st = _candelabrum_on(g, full, base_mask)
        if st is not None:
            return st
    return None


# -- candled decompositions -------------------------------------------------


class CandledDecomposition(NamedTuple):
    """An induced candelabrum plus the rest of the graph.

    The candelabrum's base is complete to the rest and the remaining
    candelabrum vertices are anticomplete to it; rest may be empty.
    """
    candelabrum: CandelabrumStructure
    rest: tuple[int, ...]


def _candled_with_rest(g: Graph, rest_mask: int) -> CandledDecomposition | None:
    """Try one rest set; everything else about the decomposition is forced."""
    body = g.full_mask & ~rest_mask
    if not body:
        return None
    if rest_mask == 0:
        st = recognize_candelabrum(g)
        return CandledDecomposition(st, ()) if st is not None else None
    # Base vertices must be complete to the rest, all other candelabrum
    # vertices anticomplete to it; that splits the body with no choices left.
    base, _, mixed = _sides(g.adj, body, rest_mask)
    if mixed:
        return None
    st = _candelabrum_on(g, body, base)
    if st is None:
        return None
    return CandledDecomposition(st, _mask_to_tuple(rest_mask))


def detect_candled(g: Graph) -> CandledDecomposition | None:
    """Find a candled decomposition of g, or None.

    The candidate rest sets are the empty set, singletons and closures of
    vertex pairs (smallest homogeneous sets containing them).  A rest of all
    but one vertex is never tried: a candelabrum needs a nonempty base and a
    nonempty non-base, so one vertex cannot carry it.  The list is not
    complete: it misses candled splits whose rest is a larger module, and on
    some uncluttered graphs (the named regressions, such as ``IT}w@o|nw``)
    every other case fails as well, so classify raises TheoremViolationError
    there.
    """
    candidates: list[int] = [0]
    candidates += [1 << v for v in range(g.n)]
    for u in range(g.n):
        for v in range(u + 1, g.n):
            candidates.append(_closure_mask(g, 1 << u | 1 << v))
    tried = set()
    for rest_mask in candidates:
        if rest_mask in tried:
            continue
        tried.add(rest_mask)
        dec = _candled_with_rest(g, rest_mask)
        if dec is not None:
            return dec
    return None


def verify_candled(g: Graph, dec: CandledDecomposition) -> bool:
    """Recheck a candled decomposition from scratch against g.

    Malformed shapes (unequal part counts, empty or overlapping parts,
    vertices out of range, parts and rest not covering g) give False.
    """
    st = dec.candelabrum
    k = len(st.clique_parts)
    parts = (*st.clique_parts, *st.stable_parts)
    if (k == 0 or len(parts) != 2 * k or not all(parts)
            or sorted((*st.vertex_set, *dec.rest)) != list(range(g.n))):
        return False
    ymasks = [sum(1 << v for v in p) for p in st.clique_parts]
    zmasks = [sum(1 << v for v in p) for p in st.stable_parts]
    rest = sum(1 << v for v in dec.rest)
    adj = g.adj
    return (_candelabrum_holds(adj, ymasks, zmasks)
            and _is_complete_mask(adj, sum(zmasks), rest)
            and _is_anticomplete_mask(adj, sum(ymasks), rest))
