"""The named small patterns and induced-subgraph search.

A graph is "uncluttered" when it has no induced fork (a P4 plus an extra leaf
on the path's second vertex) and no induced antifork (the fork's complement).
This module builds those and the other fixed patterns the structure theory
keeps reaching for, finds induced embeddings of arbitrary small patterns, and
decides unclutteredness.

The fork and the antifork are both connected and co-connected, so every
one of them lies inside a part of g that is connected and co-connected:
split g into components, those into anticomponents, and so on down.
Membership runs one bitset fork search and one bitset antifork search, both
polynomial in n, on each such part with at least five vertices, reading the
part's rows in whichever of g and its complement has fewer edges within the
part: the class is closed under complementation, because a fork of the
complement is an antifork of g.  So neither search walks a dense part, and
no complement of g is built.  The searches skip every vertex whose
neighbourhood has no room for the pattern: a fork's centre needs three
pairwise nonadjacent neighbours, and an antifork's diamond spine x~y needs
an induced path of length two inside N(x).  Line graphs are claw-free, and
line graphs of triangle-free graphs are also diamond-free (Beineke 1970),
so on those shapes the skips leave little to search.

Only a non-member pays for the ascending scan over 5-vertex subsets, and
only in the parts whose searches hit; the least of their first witnesses
is the lexicographically least witness of g, because the parts are
disjoint.  The scan needs no pattern tables: a 5-vertex graph is a fork
exactly when its degrees are {3,2,1,1,1} and an antifork exactly when they
are {1,2,3,3,3}, and the least embedding is read off the fork's roles
(centre, inner leaf, tail, two outer leaves), in the complement rows for an
antifork.
"""

from __future__ import annotations

from itertools import combinations

from .errors import InputError
from .graph import Graph, _component_masks, _is_clique_mask, _mask_to_tuple

PATTERN_NAMES = ("fork", "antifork", "claw", "anticlaw", "diamond",
                 "bull", "net", "antinet", "P4", "triangle")

_EDGES = {
    "fork": (5, [(0, 1), (1, 2), (2, 3), (1, 4)]),
    "claw": (4, [(0, 1), (0, 2), (0, 3)]),
    "diamond": (4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
    "bull": (5, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 4)]),
    "net": (6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)]),
    "P4": (4, [(0, 1), (1, 2), (2, 3)]),
    "triangle": (3, [(0, 1), (0, 2), (1, 2)]),
}
_COMPLEMENTS = {"antifork": "fork", "anticlaw": "claw", "antinet": "net"}


def pattern(name: str) -> Graph:
    """Canonical copy of a named pattern graph."""
    if name in _EDGES:
        n, edges = _EDGES[name]
        return Graph(n, edges)
    if name in _COMPLEMENTS:
        return pattern(_COMPLEMENTS[name]).complement()
    raise InputError(f"unknown pattern name {name!r}")


class PatternWitness:
    """An induced embedding of a small pattern into a host graph.

    ``embedding[i]`` is the host vertex playing pattern vertex i.  The host
    is not stored; ``holds_in(host)`` rechecks the defining property.
    """

    __slots__ = ("pattern_name", "pattern", "embedding")

    def __init__(self, pattern_name: str | None, pattern_graph: Graph,
                 embedding: tuple[int, ...]):
        if len(embedding) != pattern_graph.n:
            raise InputError("embedding length does not match pattern size")
        if len(set(embedding)) != len(embedding):
            raise InputError("embedding is not injective")
        self.pattern_name = pattern_name
        self.pattern = pattern_graph
        self.embedding = tuple(embedding)

    def holds_in(self, host: Graph) -> bool:
        """True iff the embedding induces the pattern exactly (edges and non-edges)."""
        emb = self.embedding
        p = self.pattern
        for a in range(p.n):
            if not 0 <= emb[a] < host.n:
                return False
            for b in range(a + 1, p.n):
                if host.has_edge(emb[a], emb[b]) != p.has_edge(a, b):
                    return False
        return True

    def __repr__(self):
        name = self.pattern_name or "pattern"
        return f"PatternWitness({name}, embedding={self.embedding})"


def find_induced(pattern_graph: Graph, host: Graph,
                 name: str | None = None) -> PatternWitness | None:
    """Lexicographically least induced embedding of the pattern, or None.

    Assigns pattern vertices 0,1,... in order, trying host vertices in
    ascending order, so the first complete assignment found is the least one.
    """
    if pattern_graph.n > host.n:
        return None
    pdeg = [pattern_graph.degree(i) for i in range(pattern_graph.n)]
    image = [0] * pattern_graph.n
    if _place(pattern_graph, host, pdeg, image, 0, 0):
        return PatternWitness(name, pattern_graph, tuple(image))
    return None


def _place(p: Graph, host: Graph, pdeg: list[int], image: list[int],
           i: int, used: int) -> bool:
    """Extend image[:i], whose host vertices are the bits of used, to a full
    induced embedding of p; True (with image filled) iff one exists."""
    if i == p.n:
        return True
    for v in range(host.n):
        if used >> v & 1 or host.degree(v) < pdeg[i]:
            continue
        ok = True
        for j in range(i):
            if host.has_edge(v, image[j]) != p.has_edge(i, j):
                ok = False
                break
        if ok:
            image[i] = v
            if _place(p, host, pdeg, image, i + 1, used | 1 << v):
                return True
    return False


def has_induced(g: Graph, name: str) -> bool:
    """True iff the named pattern embeds in g as an induced subgraph."""
    return find_induced(pattern(name), g, name) is not None


def _has_fork(adj: tuple[int, ...]) -> bool:
    """True iff the graph with these adjacency rows has an induced fork.

    A fork is a centre b with an inner leaf c, a tail d on c, and two outer
    leaves.  For c in N(b), the outer leaves must come from A = N(b) - N[c];
    for d in N(c) - N[b] they must also miss d, so a fork exists iff some
    A - N(d) holds two nonadjacent vertices.

    A centre b is skipped when N(b) is the union of the two cliques
    N(b) & N[u] and N(b) - N[u], u the least vertex of N(b): any three
    vertices of N(b) then have two in one clique, so b is no claw's centre.
    """
    for b, nb in enumerate(adj):
        if not nb:
            continue
        low_u = nb & -nb
        near = nb & adj[low_u.bit_length() - 1] | low_u
        if _is_clique_mask(adj, near) and _is_clique_mask(adj, nb & ~near):
            continue
        cs = nb
        while cs:
            low_c = cs & -cs
            cs ^= low_c
            rc = adj[low_c.bit_length() - 1]
            outer = nb & ~rc & ~low_c
            if not outer & (outer - 1) or _is_clique_mask(adj, outer):
                continue
            tails = rc & ~nb & ~(1 << b)
            while tails:
                low_d = tails & -tails
                tails ^= low_d
                s = outer & ~adj[low_d.bit_length() - 1]
                if s & (s - 1) and not _is_clique_mask(adj, s):
                    return True
    return False


def _is_cluster_mask(adj: tuple[int, ...], mask: int) -> bool:
    """True iff the vertices of mask induce a disjoint union of cliques:
    every vertex's closed neighbourhood within mask is its own class."""
    left = mask
    while left:
        low = left & -left
        cls = (adj[low.bit_length() - 1] | low) & mask
        m = cls ^ low
        while m:
            low = m & -m
            if (adj[low.bit_length() - 1] | low) & mask != cls:
                return False
            m ^= low
        left &= ~cls
    return True


def _has_antifork(adj: tuple[int, ...]) -> bool:
    """True iff the graph with these adjacency rows has an induced antifork.

    An antifork is a diamond plus a pendant: an edge x~y, two nonadjacent
    common neighbours d and c of x and y, and a vertex b adjacent to d alone.
    For d in C = N(x) & N(y) the tips c come from C - N[d], and b from
    N(d) - (N(x) | N(y)); an antifork exists iff some such b misses some c.

    An x is skipped when N(x) induces a disjoint union of cliques: each
    spine x~y needs the induced path c-y-d inside N(x).
    """
    for x, nx in enumerate(adj):
        if _is_cluster_mask(adj, nx):
            continue
        ys = nx >> x + 1 << x + 1
        while ys:
            low_y = ys & -ys
            ys ^= low_y
            ny = adj[low_y.bit_length() - 1]
            common = nx & ny
            if not common & (common - 1):
                continue
            outside = ~(nx | ny)
            ds = common
            while ds:
                low_d = ds & -ds
                ds ^= low_d
                nd = adj[low_d.bit_length() - 1]
                tips = common & ~nd & ~low_d
                if not tips:
                    continue
                pendants = nd & outside
                # b misses c iff c misses b, so walk the smaller of the two
                if tips.bit_count() < pendants.bit_count():
                    walk, other = tips, pendants
                else:
                    walk, other = pendants, tips
                while walk:
                    low = walk & -walk
                    walk ^= low
                    if other & ~adj[low.bit_length() - 1]:
                        return True
    return False


# A 5-vertex graph is a fork exactly when its sorted degrees are (1,1,1,2,3),
# and an antifork, the fork's complement, exactly when they are (1,2,3,3,3).
_SIGNATURES = {(1, 1, 1, 2, 3): "fork", (1, 2, 3, 3, 3): "antifork"}


def _fork_embedding(sub: tuple[int, ...], rows: list[int]) -> tuple[int, ...]:
    """Least embedding of the fork into the 5 vertices sub, whose rows within
    the subset induce one: (smaller outer leaf, centre, inner leaf, tail,
    larger outer leaf).  Swapping the outer leaves is the fork's only
    automorphism, so no other order is smaller."""
    by_degree = {r.bit_count(): (v, r) for v, r in zip(sub, rows)}
    b, rb = by_degree[3]
    c, rc = by_degree[2]
    d = (rc & ~(1 << b)).bit_length() - 1
    outer = rb & ~(1 << c)
    return ((outer & -outer).bit_length() - 1, b, c, d, outer.bit_length() - 1)


def _parts(rows: tuple[int, ...], within: int, full: int, flip: int = 0,
           top: bool = True) -> list[int]:
    """The parts of ``within`` that are connected and co-connected and have
    at least five vertices, found by splitting into components, then each
    into anticomponents, and so on down.

    Each split sweeps with ``flip`` (0 for components, ``full`` for
    anticomponents); a piece of one split is connected in that sense, so
    below the top only the other sense is left to try.  A part that does
    not split comes back as the sweep's own list.
    """
    pieces = _component_masks(rows, within, flip)
    if len(pieces) == 1:
        return _parts(rows, within, full, flip ^ full, False) if top else pieces
    out = []
    for piece in pieces:
        if piece.bit_count() >= 5:
            out += _parts(rows, piece, full, flip ^ full, False)
    return out


def _least_witness(adj: tuple[int, ...], part: int) -> tuple:
    """(subset, name, rows) for the first 5-subset of the vertices of
    ``part``, in lexicographic order, that induces a fork or an antifork,
    with the fork's rows within the subset (the complement's for an
    antifork).  The caller has found that the part holds one."""
    vs = _mask_to_tuple(part)
    after = {v: vs[i + 1:] for i, v in enumerate(vs)}
    for a, b, c, d in combinations(vs, 4):
        m4 = 1 << a | 1 << b | 1 << c | 1 << d
        e4 = ((adj[a] & m4).bit_count() + (adj[b] & m4).bit_count()
              + (adj[c] & m4).bit_count() + (adj[d] & m4).bit_count()) // 2
        for e in after[d]:
            # a fork has 4 edges and an antifork 6; skip the rest unsorted
            if e4 + (adj[e] & m4).bit_count() not in (4, 6):
                continue
            sub = (a, b, c, d, e)
            m = m4 | 1 << e
            rows = [adj[v] & m for v in sub]
            name = _SIGNATURES.get(tuple(sorted([r.bit_count() for r in rows])))
            if name is not None:
                if name == "antifork":
                    rows = [m & ~r & ~(1 << v) for v, r in zip(sub, rows)]
                return sub, name, rows


def is_uncluttered(g: Graph) -> PatternWitness | None:
    """None iff g has no induced fork or antifork; otherwise a witness.

    The fork and the antifork are connected and co-connected, so each one
    lies inside a part of g that is connected and co-connected: split g
    into components, those into anticomponents, and so on down.  Membership
    is one fork search and one antifork search on each part with at least
    five vertices.  A part with k vertices is searched on the rows of g
    within it, or on the complement's rows within it when it has more than
    k(k-1)/4 edges; since a fork of the complement is an antifork of g, the
    two decide the same question, and no complement of g is built.  Both
    searches skip the vertices whose neighbourhoods cannot hold a claw or
    an induced path of length two, which a fork's centre and an antifork's
    spine need.  Only a
    non-member pays for the witness scan, and only in the parts that hold a
    fork or antifork: the witness comes from the first 5-subset, in
    ascending order, whose sorted in-subset degrees are a fork's or an
    antifork's, least over those parts, so it is deterministic; the
    embedding is read off the fork's roles (in the complement within the
    subset for an antifork) and is the least one.
    """
    if g.n < 5:
        return None
    adj = g.adj
    full = g.full_mask
    best = None
    for part in _parts(adj, full, full):
        if part == full:
            rows = adj
        else:
            rows = [r & part if part >> v & 1 else 0 for v, r in enumerate(adj)]
        k = part.bit_count()
        if 2 * sum(r.bit_count() for r in rows) > k * (k - 1):
            rows = [part & ~r & ~(1 << v) if part >> v & 1 else 0
                    for v, r in enumerate(rows)]
        if _has_fork(rows) or _has_antifork(rows):
            found = _least_witness(adj, part)
            if best is None or found[0] < best[0]:
                best = found
    if best is None:
        return None
    sub, name, rows = best
    return PatternWitness(name, pattern(name), _fork_embedding(sub, rows))
