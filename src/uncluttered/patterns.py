"""The named small patterns and induced-subgraph search.

A graph is "uncluttered" when it has no induced fork (a P4 plus an extra leaf
on the path's second vertex) and no induced antifork (the fork's complement).
This module builds those and the other fixed patterns the structure theory
keeps reaching for, finds the least induced embedding of an arbitrary small
pattern as a plain tuple, and decides unclutteredness.  A non-member's
witness is a ``PatternWitness``: the name "fork" or "antifork" plus an
embedding, which ``holds_in`` rechecks against the host.

The fork and the antifork are both connected and co-connected, so every
one of them lies inside a part of g that is connected and co-connected:
split g into components, those into anticomponents, and so on down.
Membership works on each such part with at least five vertices, reading the
part's rows in whichever of g and its complement has fewer edges within the
part: the class is closed under complementation, because a fork of the
complement is an antifork of g.  So nothing walks a dense part, and no
complement of g is built.  A part whose every neighbourhood is a disjoint
union of at most two cliques is a member at once, since a fork's centre
sees three pairwise nonadjacent vertices and each end of an antifork's
diamond spine sees an induced path of length two.  Those parts are the
claw- and diamond-free ones, exactly the line graphs of triangle-free
graphs (Beineke 1970; Harary and Holzmann 1974), so the Krausz walk that
recovers their roots decides them in O(n) (structure._line_root).  A part
the walk rejects gets one bitset fork search and one bitset antifork search
over all of its vertices, both polynomial in n.  One function decides a
part so (_holds_fork_or_antifork), and decompose calls it too, on the
nodes of a decomposition tree that reach the candled probes, as does the
coloring recursion, on these same parts.

Only a non-member pays for the witness scan, and only in the parts whose
searches hit; the least of their first witnesses is the lexicographically
least witness of g, because the parts are disjoint.  The scan walks a
part's 4-subsets in ascending order and never loops over a fifth vertex:
a 64-entry table, indexed by the 4-set's six pair bits, lists the edge
patterns to the four with which a fifth vertex completes a fork or an
antifork, so the candidates above the fourth vertex are one mask and its
least bit is the least fifth vertex.  The 5-subsets are thus met in
lexicographic order.  A 5-vertex graph is a fork exactly when its degrees
are {3,2,1,1,1} and an antifork exactly when they are {1,2,3,3,3}, which
names the one found, and the least embedding is read off the fork's roles
(centre, inner leaf, tail, two outer leaves), in the complement rows for an
antifork.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .errors import InputError
from .graph import Graph, _complement_rows, _component_masks, _is_clique_mask, _mask_to_tuple
from .structure import _line_root

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
_PATTERNS = {name: Graph(n, edges) for name, (n, edges) in _EDGES.items()}
_PATTERNS |= {name: _PATTERNS[of].complement() for name, of in _COMPLEMENTS.items()}


def pattern(name: str) -> Graph:
    """The named pattern graph: one shared immutable Graph per name, built
    at import."""
    g = _PATTERNS.get(name) if isinstance(name, str) else None
    if g is None:
        raise InputError(f"unknown pattern name {name!r}")
    return g


class PatternWitness(NamedTuple):
    """An induced embedding of a named pattern into a host graph.

    ``embedding[i]`` is the host vertex playing vertex i of
    ``pattern(pattern_name)``.  The host is not stored; ``holds_in(host)``
    rechecks the defining property.
    """

    pattern_name: str
    embedding: tuple[int, ...]

    @property
    def pattern(self) -> Graph:
        return pattern(self.pattern_name)

    def holds_in(self, host: Graph) -> bool:
        """True iff the name is a known pattern's and the embedding is a
        tuple of distinct vertices of host, as ints and not bools, that
        induce the pattern exactly (edges and non-edges)."""
        p = _PATTERNS.get(self.pattern_name) if isinstance(self.pattern_name, str) else None
        emb = self.embedding
        if not (p is not None and isinstance(emb, tuple)
                and all(type(v) is int and 0 <= v < host.n for v in emb)
                and len(emb) == len(set(emb)) == p.n):
            return False
        rows = host.adj
        return all(rows[emb[a]] >> emb[b] & 1 == p.adj[a] >> b & 1
                   for a, b in combinations(range(p.n), 2))


def find_induced(pattern_graph: Graph, host: Graph) -> tuple[int, ...] | None:
    """Lexicographically least induced embedding of the pattern, or None.

    Assigns pattern vertices 0,1,... in order, trying host vertices in
    ascending order, so the first complete assignment found is the least one.
    """
    if pattern_graph.n > host.n:
        return None
    pdeg = [pattern_graph.degree(i) for i in range(pattern_graph.n)]
    image = [0] * pattern_graph.n
    if _place(pattern_graph, host, pdeg, image, 0, 0):
        return tuple(image)
    return None


def _place(p: Graph, host: Graph, pdeg: list[int], image: list[int],
           i: int, used: int) -> bool:
    """Extend image[:i], whose host vertices are the bits of used, to a full
    induced embedding of p; True (with image filled) iff one exists."""
    if i == p.n:
        return True
    prow = p.adj[i]
    for v, row in enumerate(host.adj):
        if used >> v & 1 or row.bit_count() < pdeg[i]:
            continue
        for j in range(i):
            if row >> image[j] & 1 != prow >> j & 1:
                break
        else:
            image[i] = v
            if _place(p, host, pdeg, image, i + 1, used | 1 << v):
                return True
    return False


def has_induced(g: Graph, name: str) -> bool:
    """True iff the named pattern embeds in g as an induced subgraph."""
    return find_induced(pattern(name), g) is not None


def _has_fork(rows: tuple[int, ...] | list[int], centres: int) -> bool:
    """True iff the graph with these adjacency rows has an induced fork
    whose centre is in the mask ``centres``.

    A fork is a centre b with an inner leaf c, a tail d on c, and two outer
    leaves.  For c in N(b), the outer leaves must come from A = N(b) - N[c];
    for d in N(c) - N[b] they must also miss d, so a fork exists iff some
    A - N(d) holds two nonadjacent vertices.
    """
    while centres:
        low_b = centres & -centres
        centres ^= low_b
        nb = rows[low_b.bit_length() - 1]
        cs = nb
        while cs:
            low_c = cs & -cs
            cs ^= low_c
            rc = rows[low_c.bit_length() - 1]
            outer = nb & ~rc & ~low_c
            if not outer & (outer - 1) or _is_clique_mask(rows, outer):
                continue
            tails = rc & ~nb & ~low_b
            while tails:
                low_d = tails & -tails
                tails ^= low_d
                s = outer & ~rows[low_d.bit_length() - 1]
                if s & (s - 1) and not _is_clique_mask(rows, s):
                    return True
    return False


def _has_antifork(rows: tuple[int, ...] | list[int], spines: int) -> bool:
    """True iff the graph with these adjacency rows has an induced antifork
    whose diamond spine has both ends in the mask ``spines``.

    An antifork is a diamond plus a pendant: an edge x~y, two nonadjacent
    common neighbours d and c of x and y, and a vertex b adjacent to d alone.
    For d in C = N(x) & N(y) the tips c come from C - N[d], and b from
    N(d) - (N(x) | N(y)); an antifork exists iff some such b misses some c.
    """
    xs = spines
    while xs:
        low_x = xs & -xs
        xs ^= low_x
        x = low_x.bit_length() - 1
        nx = rows[x]
        ys = nx & spines >> x + 1 << x + 1
        while ys:
            low_y = ys & -ys
            ys ^= low_y
            ny = rows[low_y.bit_length() - 1]
            common = nx & ny
            if not common & (common - 1):
                continue
            outside = ~(nx | ny)
            ds = common
            while ds:
                low_d = ds & -ds
                ds ^= low_d
                nd = rows[low_d.bit_length() - 1]
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
                    if other & ~rows[low.bit_length() - 1]:
                        return True
    return False


# A 5-vertex graph is a fork exactly when its sorted degrees are (1,1,1,2,3),
# and an antifork, the fork's complement, exactly when they are (1,2,3,3,3).
_SIGNATURES = {(1, 1, 1, 2, 3): "fork", (1, 2, 3, 3, 3): "antifork"}


# _FIFTH[code] lists the patterns p of a fifth vertex e's edges to four
# vertices a < b < c < d under which the five induce a fork or an antifork.
# Bits 0..5 of the code are the pairs ab, ac, bc, ad, bd, cd of the 4-set;
# bit i of p says whether e sees the i-th of a, b, c, d.  8 of the 64 codes
# have no pattern, and none has more than four.
_FIFTH = (
    (), (13, 14), (11, 14), (9,), (11, 13), (10,), (12,), (11, 13, 14),
    (7, 14), (5,), (3,), (2, 4, 8), (), (1, 2, 7, 11), (1, 4, 7, 13), (6,),
    (7, 13), (6,), (), (1, 2, 7, 11), (3,), (1, 4, 8), (2, 4, 7, 14), (5,),
    (12,), (7, 13, 14), (1, 8, 11, 13), (10,), (2, 8, 11, 14), (9,), (), (4, 8),
    (7, 11), (), (6,), (1, 4, 7, 13), (5,), (2, 4, 7, 14), (1, 2, 8), (3,),
    (10,), (1, 8, 11, 13), (7, 11, 14), (12,), (4, 8, 13, 14), (), (9,), (2, 8),
    (9,), (2, 8, 11, 14), (4, 8, 13, 14), (), (7, 11, 13), (12,), (10,), (1, 8),
    (1, 2, 4), (3,), (5,), (2, 4), (6,), (1, 4), (1, 2), (),
)


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


def _holds_fork_or_antifork(adj: tuple[int, ...], part: int) -> bool:
    """True iff the connected, co-connected ``part`` of the graph with rows
    ``adj`` induces a fork or an antifork.

    Reads the part's rows in g, or in the complement when the part has more
    than k(k-1)/4 edges for its k vertices.  A part that is the line graph
    of a triangle-free root (_line_root) holds neither; any other is decided
    by one fork and one antifork search.
    """
    if part == (1 << len(adj)) - 1:
        rows = adj
    else:
        rows = [r & part if part >> v & 1 else 0 for v, r in enumerate(adj)]
    k = part.bit_count()
    if 2 * sum(map(int.bit_count, rows)) > k * (k - 1):
        rows = _complement_rows(adj, part)
    if _line_root(rows, part) is not None:
        return False
    return _has_fork(rows, part) or _has_antifork(rows, part)


def _least_witness(adj: tuple[int, ...], part: int) -> tuple:
    """(subset, name, rows) for the first 5-subset of the vertices of
    ``part``, in lexicographic order, that induces a fork or an antifork,
    with the fork's rows within the subset (the complement's for an
    antifork).  The caller has found that the part holds one.

    Walks the 4-subsets a < b < c < d in lexicographic order and never
    loops over the fifth vertex: ``_FIFTH`` lists the edge patterns to
    (a, b, c, d) that complete them, so the candidates for e are one mask
    of the part's vertices above d, and its least bit is the least e.
    """
    vs = _mask_to_tuple(part)
    k = len(vs)
    # h <= k - 3 leaves room for d and e above c
    for i, j, h in combinations(range(k - 2), 3):
        a, b, c = vs[i], vs[j], vs[h]
        ra, rb, rc = adj[a], adj[b], adj[c]
        abc = ra >> b & 1 | (ra >> c & 1) << 1 | (rb >> c & 1) << 2
        for d in vs[h + 1:k - 1]:
            fifths = _FIFTH[abc | (ra >> d & 1) << 3 | (rb >> d & 1) << 4
                            | (rc >> d & 1) << 5]
            if not fifths:
                continue
            rd = adj[d]
            es = 0
            for p in fifths:
                es |= ((ra if p & 1 else ~ra) & (rb if p & 2 else ~rb)
                       & (rc if p & 4 else ~rc) & (rd if p & 8 else ~rd))
            es &= part >> d + 1 << d + 1
            if es:
                low = es & -es
                sub = (a, b, c, d, low.bit_length() - 1)
                m = 1 << a | 1 << b | 1 << c | 1 << d | low
                rows = [adj[v] & m for v in sub]
                name = _SIGNATURES[tuple(sorted([r.bit_count() for r in rows]))]
                if name == "antifork":
                    rows = [m & ~r & ~(1 << v) for v, r in zip(sub, rows)]
                return sub, name, rows


def is_uncluttered(g: Graph) -> PatternWitness | None:
    """None iff g has no induced fork or antifork; otherwise a witness.

    Each connected, co-connected part with at least five vertices (see the
    module docstring) is decided by _holds_fork_or_antifork.  The witness
    is the least 5-subset, over the parts that hold one, that induces a
    fork or an antifork (_least_witness), with the least embedding read off
    the fork's roles, so it is deterministic.
    """
    if g.n < 5:
        return None
    adj = g.adj
    full = g.full_mask
    best = None
    for part in _parts(adj, full, full):
        if _holds_fork_or_antifork(adj, part):
            found = _least_witness(adj, part)
            if best is None or found[0] < best[0]:
                best = found
    if best is None:
        return None
    sub, name, rows = best
    return PatternWitness(name, _fork_embedding(sub, rows))
