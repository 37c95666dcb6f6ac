"""The named small patterns and induced-subgraph search.

A graph is "uncluttered" when it has no induced fork (a P4 plus an extra leaf
on the path's second vertex) and no induced antifork (the fork's complement).
This module builds those and the other fixed patterns the structure theory
keeps reaching for, finds induced embeddings of arbitrary small patterns, and
decides unclutteredness.

Membership is decided by a bitset search for forks in g and in its
complement (an antifork of g is a fork of the complement), polynomial in n.
Only a graph that holds a fork or an antifork pays for the ascending scan
over 5-vertex subsets, which picks the lexicographically least witness.
"""

from __future__ import annotations

from itertools import combinations, permutations

from .errors import InputError
from .graph import Graph, _is_clique_mask

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
    k = pattern_graph.n
    if k > host.n:
        return None
    pdeg = [pattern_graph.degree(i) for i in range(k)]
    image = [0] * k
    used = 0

    def place(i: int) -> bool:
        nonlocal used
        if i == k:
            return True
        for v in range(host.n):
            if used >> v & 1 or host.degree(v) < pdeg[i]:
                continue
            ok = True
            for j in range(i):
                if host.has_edge(v, image[j]) != pattern_graph.has_edge(i, j):
                    ok = False
                    break
            if ok:
                image[i] = v
                used |= 1 << v
                if place(i + 1):
                    return True
                used &= ~(1 << v)
        return False

    if place(0):
        return PatternWitness(name, pattern_graph, tuple(image))
    return None


# -- subset-code scanning --------------------------------------------------
#
# For a k-subset taken in ascending order, the induced subgraph is summarized
# as an integer with one bit per vertex pair, pairs in lexicographic order.
# Membership of that code in a precomputed set of all labeled codes of a
# pattern decides "this subset induces the pattern" with no inner search.

_PAIRS = {k: tuple(combinations(range(k), 2)) for k in (3, 4, 5, 6)}


def _subset_code(g: Graph, sub: tuple[int, ...]) -> int:
    code = 0
    for bit, (a, b) in enumerate(_PAIRS[len(sub)]):
        if g.adj[sub[a]] >> sub[b] & 1:
            code |= 1 << bit
    return code


def _labeled_codes(p: Graph) -> dict[int, tuple[int, ...]]:
    """Map every labeled code of the pattern to its least placement.

    The placement tuple says which subset position plays each pattern vertex,
    so a witness embedding can be read off a matching subset directly.
    """
    k = p.n
    out: dict[int, tuple[int, ...]] = {}
    for perm in permutations(range(k)):
        # perm maps pattern vertex -> subset position; positions (a, b) are
        # adjacent in the labeled copy iff their preimages are adjacent.
        inv = [0] * k
        for pv, pos in enumerate(perm):
            inv[pos] = pv
        code = 0
        for bit, (a, b) in enumerate(_PAIRS[k]):
            if p.has_edge(inv[a], inv[b]):
                code |= 1 << bit
        if code not in out:
            out[code] = perm
    return out


_CODES_CACHE: dict[str, dict[int, tuple[int, ...]]] = {}


def _codes(name: str) -> dict[int, tuple[int, ...]]:
    if name not in _CODES_CACHE:
        _CODES_CACHE[name] = _labeled_codes(pattern(name))
    return _CODES_CACHE[name]


def has_induced(g: Graph, name: str) -> bool:
    """True iff the named pattern embeds in g as an induced subgraph."""
    p = pattern(name)
    table = _codes(name)
    for sub in combinations(range(g.n), p.n):
        if _subset_code(g, sub) in table:
            return True
    return False


def _has_fork(adj: tuple[int, ...]) -> bool:
    """True iff the graph with these adjacency rows has an induced fork.

    A fork is a centre b with an inner leaf c, a tail d on c, and two outer
    leaves.  For c in N(b), the outer leaves must come from A = N(b) - N[c];
    for d in N(c) - N[b] they must also miss d, so a fork exists iff some
    A - N(d) holds two nonadjacent vertices.
    """
    for b, nb in enumerate(adj):
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


def is_uncluttered(g: Graph) -> PatternWitness | None:
    """None iff g has no induced fork or antifork; otherwise a witness.

    The witness is the one an ascending scan over 5-subsets meets first,
    checking fork before antifork within each subset, so it is the
    lexicographically least and deterministic.  That scan runs only after
    the bitset search has found a fork or an antifork.
    """
    if g.n < 5 or not (_has_fork(g.adj) or _has_fork(g.complement().adj)):
        return None
    fork_codes = _codes("fork")
    antifork_codes = _codes("antifork")
    for sub in combinations(range(g.n), 5):
        code = _subset_code(g, sub)
        perm = fork_codes.get(code)
        if perm is not None:
            emb = tuple(sub[perm[i]] for i in range(5))
            return PatternWitness("fork", pattern("fork"), emb)
        perm = antifork_codes.get(code)
        if perm is not None:
            emb = tuple(sub[perm[i]] for i in range(5))
            return PatternWitness("antifork", pattern("antifork"), emb)
    return None
