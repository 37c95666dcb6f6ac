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
partition the edges with every vertex in at most two of them.  One
function, _line_root, walks each vertex's cliques K(w,v) over a vertex
mask, numbers the distinct ones in the order first met, which on a line
graph is their lexicographic order (Krausz 1943; Roussopoulos 1973), and
builds and checks the root whose vertices they are in one pass.
Membership runs it on each part, the recognizer on all of g, and the
colourer on a vertex mask of g or of its complement.  Each root vertex
holds an incidence mask of its edges, and an edge's row is the OR of its
two endpoints' masks: line_graph builds rows so, and verify_root, the
certificate check, compares each host row with the masks of the edges
before it.

A candelabrum is forced by any one clique-part vertex, and a candled split
by its rest, so recognition builds one split per closed-twin class and
detection one per candidate rest; each forced split is kept only if
verify_candled accepts it, comparing each part vertex's row with the row its
part predicts.  Splits are built on vertex masks of the host graph with the
component sweep and the complete/anticomplete/mixed split of graph.py, so a
body stays in g's own labels, never induced and relabeled.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InputError
from .graph import (
    MAX_VERTICES,
    Graph,
    _component_masks,
    _mask_to_tuple,
    _row_classes,
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
    """Graph on the edges of h, adjacent when they share an endpoint.

    Each root vertex gets an incidence mask of the edges at it, so edge w sees
    every edge that shares an endpoint with it in one OR of two masks.
    """
    edges = h.edges()
    if not edges:
        raise InputError("line graph of an edgeless graph is undefined here")
    m = len(edges)
    if m > MAX_VERTICES:
        raise InputError(f"line graph would have {m} vertices, above {MAX_VERTICES}")
    at = [0] * h.n
    for w, (a, b) in enumerate(edges):
        at[a] |= 1 << w
        at[b] |= 1 << w
    return Graph.from_rows(tuple([(at[a] | at[b]) & ~(1 << w)
                                  for w, (a, b) in enumerate(edges)]))


class RootGraph(NamedTuple):
    """A root whose line graph is the host, with the witnessing bijection.

    ``edge_map[w]`` is the root edge (a, b) with a < b that host vertex w
    plays.  Produced only with triangle-free roots here.
    """
    root: Graph
    edge_map: tuple[tuple[int, int], ...]


def verify_root(g: Graph, rg: RootGraph) -> bool:
    """Recheck that rg.edge_map is an isomorphism from g to line_graph(root).

    The map must hold g.n distinct root edges, each a pair of int vertices,
    and the root exactly g.n edges; then the line-graph rows of the mapped
    edges must be g's rows.  Malformed shapes (rg not a RootGraph, a root
    that is not a Graph, a map or an entry that is not a sequence of the
    right length) give False.  Works on edgeless and empty hosts too.

    One loop builds the root vertices' incidence masks and checks host
    vertex w before adding it: the edges before w at either end of its edge
    must be exactly g's neighbours of w below w, and no edge before w may
    have both ends.  Both sides are symmetric, so lower triangles suffice.
    """
    if not isinstance(rg, RootGraph):
        return False
    root, edge_map = rg
    if not (isinstance(root, Graph) and isinstance(edge_map, (tuple, list))
            and len(edge_map) == g.n):
        return False
    rows, n, adj = root.adj, root.n, g.adj
    at = [0] * n
    low = 1
    try:
        for w, (a, b) in enumerate(edge_map):
            if not (type(a) is type(b) is int and 0 <= a < b < n and rows[a] >> b & 1):
                return False
            ia, ib = at[a], at[b]
            if ia & ib or ia | ib != adj[w] & low - 1:
                return False
            at[a] = ia | low
            at[b] = ib | low
            low <<= 1
    except (TypeError, ValueError):  # an entry that is not a pair
        return False
    return root.edge_count() == g.n


def _is_triangle_free_root(g: Graph, rg: RootGraph) -> bool:
    """rg proves that g is the line graph of a triangle-free graph: once
    verify_root accepts, the map holds every root edge, so the root is
    triangle-free exactly when no mapped edge's ends share a neighbour."""
    if not verify_root(g, rg):
        return False
    rows = rg.root.adj
    for a, b in rg.edge_map:
        if rows[a] & rows[b]:
            return False
    return True


def _line_root(rows: tuple[int, ...] | list[int],
               part: int) -> tuple[list[int], list[tuple[int, int]]] | None:
    """(root rows, edge map) of the triangle-free root whose line graph
    ``part`` induces, or None; rows are read within ``part``, and the edge
    map follows ``part`` in ascending order.

    The Krausz walk visits the vertices of ``part`` in ascending order.
    Each vertex w takes the clique K(w,v) = {w, v} + (N(w) & N(v)) of its
    least neighbour v, then that of its least neighbour outside the first,
    and any neighbour outside both is a third clique: None.  Each distinct
    clique mask is numbered when first met (on a line graph, in
    lexicographic order), and w records the numbers of its at most two
    cliques in the order met.  The part passes when
      (1) each mask is claimed by exactly its members, so it is a clique,
          and N(v) is covered by v's two;
      (2) no two vertices claim the same two cliques, so v's two cliques
          meet only in v;
      (3) no three cliques pairwise meet, so no edge joins v's two
          cliques: its ends would share a third, meeting both.
    Then every N(v) is at most two anticomplete cliques, so the part is
    claw- and diamond-free.  Conversely, in a claw- and diamond-free part
    the masks are the maximal cliques, and all three hold.  A vertex claims
    only masks holding it, so (1) is one count; given (1), (2) and (3) are
    the multi-edges and triangles of the root, found as each vertex adds
    its edge.  The root's vertices are the cliques, then a pendant for each
    vertex in one clique and two for each isolated vertex, in the order
    met; a pendant edge closes neither a multi-edge nor a triangle.  A root
    may exceed the 64-vertex cap (a 64-vertex path's root has 65), so its
    rows are allocated once, at their final count: growing them in place
    raised a long run's peak RSS.
    """
    number: dict[int, int] = {}
    cover: list[tuple[int, ...]] = []
    m = part
    while m:
        low_w = m & -m
        m ^= low_w
        row = rows[low_w.bit_length() - 1] & part
        if not row:
            cover.append(())
            continue
        low = row & -row
        first = row & rows[low.bit_length() - 1] | low | low_w
        rest = row & ~first
        if not rest:
            cover.append((number.setdefault(first, len(number)),))
            continue
        low = rest & -rest
        second = row & rows[low.bit_length() - 1] | low | low_w
        if rest & ~second:
            return None
        cover.append((number.setdefault(first, len(number)),
                      number.setdefault(second, len(number))))
    claims = sum(map(len, cover))
    if sum(map(int.bit_count, number)) != claims:
        return None
    next_vertex = len(number)
    root = [0] * (next_vertex + 2 * len(cover) - claims)
    edge_map: list[tuple[int, int]] = []
    for ends in cover:
        if len(ends) == 2:
            a, b = ends
            if root[b] & (root[a] | 1 << a):
                return None
        elif ends:
            a, b = ends[0], next_vertex
            next_vertex += 1
        else:
            a, b = next_vertex, next_vertex + 1
            next_vertex += 2
        root[a] |= 1 << b
        root[b] |= 1 << a
        edge_map.append((a, b))
    return root, edge_map


def recognize_line_graph_triangle_free(g: Graph) -> RootGraph | None:
    """Root reconstruction for line graphs of triangle-free graphs.

    Returns None iff g is not the line graph of any triangle-free graph;
    otherwise the root of its Krausz cliques (_line_root), with
    ``edge_map[w]`` the root edge that host vertex w plays.
    """
    found = _line_root(g.adj, g.full_mask)
    if found is None:
        return None
    root, edge_map = found
    return RootGraph(Graph.from_rows(root), tuple(edge_map))


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
        return tuple(sorted(v for part in (*self.clique_parts, *self.stable_parts)
                            for v in part))


def _candelabrum_on(g: Graph, body: int, base: int) -> CandelabrumStructure:
    """The split of the body mask that this base mask forces, in g's own
    labels: the Y's are the components of body - base, and each Z_i is the
    base vertices that the least vertex of Y_i sees, one row per Y_i.
    Unchecked: verify_candled checks every row of Y_i against this Z_i."""
    ymasks = _component_masks(g.adj, body & ~base)
    return CandelabrumStructure(
        tuple(map(_mask_to_tuple, ymasks)),
        tuple(_mask_to_tuple(base & g.adj[(ym & -ym).bit_length() - 1]) for ym in ymasks))


def recognize_candelabrum(g: Graph) -> CandelabrumStructure | None:
    """Some candelabrum structure on all of g, or None if none exists.

    Any clique-part vertex y forces the split: its clique part is its
    closed-twin class, its stable part the rest of its closed neighborhood
    (or the top vertex of the class when that rest is empty, which covers
    one part and complete graphs), and the base that stable part plus the
    outside neighbors of its least vertex.  Each closed-twin class is tried
    once, by least vertex: _candelabrum_on builds the split, and it is kept
    only if verify_candled accepts it.
    """
    adj, full = g.adj, g.full_mask
    closed_rows = [row | 1 << v for v, row in enumerate(adj)]
    for part in _row_classes(closed_rows, full):
        closed = closed_rows[part.bit_length() - 1]
        stable = closed & ~part or 1 << (part.bit_length() - 1)
        z = (stable & -stable).bit_length() - 1
        st = _candelabrum_on(g, full, stable | (adj[z] & ~closed))
        if verify_candled(g, CandledDecomposition(st, ())):
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
    """Try one rest set, which forces the rest of the split: the base is the
    body vertices complete to it (the empty rest goes to
    recognize_candelabrum).  Kept only if verify_candled accepts it."""
    if rest_mask == 0:
        st = recognize_candelabrum(g)
        return CandledDecomposition(st, ()) if st is not None else None
    body = g.full_mask & ~rest_mask
    dec = CandledDecomposition(_candelabrum_on(g, body, _sides(g.adj, body, rest_mask)[0]),
                               _mask_to_tuple(rest_mask))
    return dec if verify_candled(g, dec) else None


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
    n = g.n
    pairs = [_closure_mask(g, 1 << u | 1 << v) for u in range(n) for v in range(u + 1, n)]
    for rest_mask in dict.fromkeys([0, *(1 << v for v in range(n)), *pairs]):
        dec = _candled_with_rest(g, rest_mask)
        if dec is not None:
            return dec
    return None


def verify_candled(g: Graph, dec: CandledDecomposition) -> bool:
    """Recheck a candled decomposition from scratch against g.

    Malformed shapes (a field that is not the named tuple, tuple or list it
    should be, unequal part counts, empty or overlapping parts, vertices
    that are not ints in range, parts and rest not covering g) give False.
    Then, with Y and Z the unions of the clique and stable parts and R the
    rest, each y in Y_i must see exactly (Y_i - y) | Z_i, and each z in Z_i
    exactly (Z - Z_i) | R outside Y.  Rows are symmetric, so these two row
    equalities are exactly the candelabrum and candled conditions.
    """
    st = dec.candelabrum if isinstance(dec, CandledDecomposition) else None
    if not (isinstance(st, CandelabrumStructure)
            and all(isinstance(seq, (tuple, list)) for seq in (*st, dec.rest))):
        return False
    k = len(st.clique_parts)
    parts = (*st.clique_parts, *st.stable_parts)
    if (k == 0 or len(parts) != 2 * k
            or not all(isinstance(p, (tuple, list)) and p for p in parts)):
        return False
    vs = (*(v for p in parts for v in p), *dec.rest)
    if not all(type(v) is int for v in vs) or sorted(vs) != list(range(g.n)):
        return False
    ymasks = [sum(1 << v for v in p) for p in st.clique_parts]
    zmasks = [sum(1 << v for v in p) for p in st.stable_parts]
    adj = g.adj
    ys, zs, rest = sum(ymasks), sum(zmasks), sum(1 << v for v in dec.rest)
    for i in range(k):
        for y in st.clique_parts[i]:
            if adj[y] != (ymasks[i] ^ 1 << y) | zmasks[i]:
                return False
        for z in st.stable_parts[i]:
            if adj[z] & ~ys != (zs ^ zmasks[i]) | rest:
                return False
    return True
