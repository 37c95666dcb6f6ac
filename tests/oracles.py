"""Independent reference implementations and random builders for the tests.

Everything here is written straight from the definitions and shares no logic
with the package internals beyond the Graph container.  When a package
function and an oracle disagree, the oracle wins and the package is wrong.
"""

from itertools import combinations, permutations

from uncluttered import CandelabrumStructure, CandledDecomposition, Graph, RootGraph
from uncluttered.graph import invariant_key


def naive_find_induced(pattern_g, host):
    """First ordered tuple (lexicographic) inducing the pattern, or None.

    Plain scan over all ordered vertex tuples with no pruning beyond the
    obvious early exit on the first mismatched pair.
    """
    k = pattern_g.n
    if k > host.n:
        return None
    pairs = []
    for i in range(k):
        for j in range(i + 1, k):
            pairs.append((i, j, pattern_g.has_edge(i, j)))
    pairs.sort(key=lambda t: not t[2])  # required edges first: fails fastest
    rows = host.adj
    for tup in permutations(range(host.n), k):
        for i, j, want in pairs:
            if (rows[tup[i]] >> tup[j] & 1) != want:
                break
        else:
            return tup
    return None


def naive_has_induced(pattern_g, host):
    return naive_find_induced(pattern_g, host) is not None


FORK_EDGES = ((0, 1), (1, 2), (2, 3), (1, 4))


def _least_ordered_embedding(g, sub, fork):
    """Least ordering of sub that induces the fork (or, if not fork, the
    antifork) with pattern vertex i played by the i-th entry."""
    for tup in permutations(sub):
        if all(g.has_edge(tup[i], tup[j]) == (((i, j) in FORK_EDGES) == fork)
               for i, j in combinations(range(5), 2)):
            return tup
    return None


def subset_scan_uncluttered(g):
    """The first fork or antifork met scanning 5-subsets in ascending order.

    Returns ("fork" | "antifork", embedding) with the fork tried before the
    antifork inside each subset and the least ordering of the subset that
    induces it, or None when g has neither.  The edge count (4 for the fork,
    6 for the antifork) and the degree multiset (3,2,1,1,1 and its
    complement 1,2,3,3,3) are isomorphism invariants, so they only skip
    subsets that cannot match; the permutation search decides the rest.
    """
    adj, n = g.adj, g.n
    for a in range(n):
        for b in range(a + 1, n):
            m2 = 1 << a | 1 << b
            e2 = adj[a] >> b & 1
            for c in range(b + 1, n):
                m3 = m2 | 1 << c
                e3 = e2 + (adj[c] & m3).bit_count()
                for d in range(c + 1, n):
                    m4 = m3 | 1 << d
                    e4 = e3 + (adj[d] & m4).bit_count()
                    for e in range(d + 1, n):
                        edges = e4 + (adj[e] & m4).bit_count()
                        if edges != 4 and edges != 6:
                            continue
                        sub = (a, b, c, d, e)
                        m5 = m4 | 1 << e
                        degrees = sorted((adj[v] & m5).bit_count() for v in sub)
                        for name, fork, want in (("fork", True, [1, 1, 1, 2, 3]),
                                                 ("antifork", False, [1, 2, 3, 3, 3])):
                            if degrees == want:
                                emb = _least_ordered_embedding(g, sub, fork)
                                if emb is not None:
                                    return name, emb
    return None


def crowded_mask(rows, part):
    """The vertices of ``part`` whose neighbourhood is not a disjoint union
    of at most two cliques, in one walk over each N(v).

    With u the least vertex of N(v), N(v) is such a union exactly when each
    of its vertices has, within N(v), the closed neighbourhood of its own
    side: N(v) & N[u], or the rest of N(v).  That holds for u by
    definition, and for every N(v) of at most two vertices.  A fork's
    centre is a claw's centre, with three pairwise nonadjacent neighbours,
    and each end of an antifork's diamond spine x~y sees the other end's
    two nonadjacent common neighbours, so every one of them is crowded.
    The tests check this mask against the claw centres and diamond spines
    found by brute force, then use it as the reference for the Krausz walk
    and as a narrower anchor mask for the fork and antifork kernels.
    """
    crowded = 0
    m = part
    while m:
        low_v = m & -m
        m ^= low_v
        nv = rows[low_v.bit_length() - 1]
        rest = nv & (nv - 1)
        if not rest & (rest - 1):
            continue
        low = nv & -nv
        near = nv & rows[low.bit_length() - 1] | low
        far = nv ^ near
        w = rest
        while w:
            low = w & -w
            w ^= low
            if rows[low.bit_length() - 1] & nv | low != (near if low & near else far):
                crowded |= low_v
                break
    return crowded


def _pairwise_adjacent(g, vs):
    return all(g.has_edge(a, b) for a, b in combinations(vs, 2))


def _dominates(g, vs):
    return all(any(g.has_edge(v, w) for w in vs) for v in range(g.n) if v not in vs)


def every_triangle_dominating(g):
    """Every triangle dominates g, by scanning all 3-subsets."""
    return not any(_pairwise_adjacent(g, sub) and not _dominates(g, sub)
                   for sub in combinations(range(g.n), 3))


def no_dominating_clique(g):
    """No nonempty clique dominates g, by scanning every vertex subset."""
    return not any(_pairwise_adjacent(g, sub) and _dominates(g, sub)
                   for size in range(1, g.n + 1)
                   for sub in combinations(range(g.n), size))


def naive_isomorphic(g, h):
    """True iff some permutation of g's vertices maps its edges onto h's."""
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    edges = g.edges()
    return any(all(h.has_edge(p[u], p[v]) for u, v in edges)
               for p in permutations(range(g.n)))


def naive_components(g, vs):
    """Components of g induced on the vertices vs, each a sorted tuple,
    ordered by smallest member, by pairwise merging of labels."""
    label = {v: v for v in vs}
    for u, v in combinations(sorted(vs), 2):
        if g.has_edge(u, v) and label[u] != label[v]:
            old, new = max(label[u], label[v]), min(label[u], label[v])
            label = {w: new if c == old else c for w, c in label.items()}
    parts = {}
    for v in sorted(vs):
        parts.setdefault(label[v], []).append(v)
    return [tuple(p) for _, p in sorted(parts.items())]


def naive_triangle_free(g):
    return all(not (g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c))
               for a, b, c in combinations(range(g.n), 3))


def sorted_krausz_root(g):
    """The triangle-free root of g, with its Krausz cliques numbered in the
    sorted order of their vertex tuples and each host vertex's two root
    vertices in ascending order, or None when g is no such line graph.

    Each vertex w takes the cliques {w, v} + (N(w) & N(v)), v its least
    neighbour outside those already taken, and a third one rejects g.  A
    vertex in one clique gets a new pendant root vertex, an isolated vertex
    two, in vertex order.  The root is kept only if its edges are distinct,
    no edge closes a triangle, and two host vertices are adjacent exactly
    when their root edges share an end.
    """
    nbrs = [set(g.neighbors(w)) for w in range(g.n)]
    cover = []
    for w in range(g.n):
        mine = []
        left = set(nbrs[w])
        while left:
            if len(mine) == 2:
                return None
            v = min(left)
            clique = frozenset({w, v} | (nbrs[w] & nbrs[v]))
            mine.append(clique)
            left -= clique
        cover.append(mine)
    cliques = sorted({c for mine in cover for c in mine}, key=sorted)
    number = {c: i for i, c in enumerate(cliques)}
    next_vertex = len(cliques)
    edge_map = []
    for mine in cover:
        ends = sorted(number[c] for c in mine)
        while len(ends) < 2:
            ends.append(next_vertex)
            next_vertex += 1
        edge_map.append(tuple(ends))
    if len(set(edge_map)) != g.n:
        return None
    rows = [0] * next_vertex
    for a, b in edge_map:
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    if any(rows[a] & rows[b] for a, b in edge_map):
        return None
    for w, x in combinations(range(g.n), 2):
        if g.has_edge(w, x) != bool(set(edge_map[w]) & set(edge_map[x])):
            return None
    return RootGraph(Graph.from_rows(tuple(rows)), tuple(edge_map))


def _single_edge_extensions(g):
    """Every graph obtained from g by adding one edge, growing 0..2 vertices."""
    out = []
    base = list(g.edges())
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.has_edge(u, v):
                out.append(Graph(g.n, base + [(u, v)]))
    for u in range(g.n):
        out.append(Graph(g.n + 1, base + [(u, g.n)]))
    out.append(Graph(g.n + 2, base + [(g.n, g.n + 1)]))
    return out


def triangle_free_rootless_by_edges(max_edges):
    """Triangle-free graphs without isolated vertices, keyed by edge count.

    Returns {m: [graphs with exactly m edges, up to isomorphism]} for
    1 <= m <= max_edges, built by single-edge augmentation and deduplicated
    by canonical form.  Isolated vertices never appear because each added
    edge covers the vertices it introduces.
    """
    levels = {1: [Graph(2, [(0, 1)])]}
    for m in range(2, max_edges + 1):
        firsts = {}
        for g in levels[m - 1]:
            for h in _single_edge_extensions(g):
                if naive_triangle_free(h):
                    firsts.setdefault(invariant_key(h), h)
        levels[m] = list(firsts.values())
    return levels


def oracle_candelabrum_parts(g, base):
    """(clique_parts, stable_parts) of g as a candelabrum with this base, or
    None, decided from the definition.

    The parts are forced: the clique parts must be the connected components
    of the non-base (each a clique), and each stable part must be exactly the
    base vertices seeing its clique part.
    """
    base = set(base)
    if not base or base == set(range(g.n)):
        return None
    outside = [v for v in range(g.n) if v not in base]
    # components of g restricted to the non-base
    comps = []
    seen = set()
    for s in outside:
        if s in seen:
            continue
        comp, stack = {s}, [s]
        while stack:
            v = stack.pop()
            for u in g.neighbors(v):
                if u not in base and u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        comps.append(sorted(comp))
    if not comps:
        return None
    zs = []
    for comp in comps:
        if any(not g.has_edge(a, b) for a, b in combinations(comp, 2)):
            return None
        attached = {b for b in base if any(g.has_edge(b, v) for v in comp)}
        if not attached:
            return None
        if any(not g.has_edge(b, v) for b in attached for v in comp):
            return None
        zs.append(attached)
    covered = set()
    for z in zs:
        if covered & z:
            return None
        covered |= z
    if covered != base:
        return None
    for z in zs:
        if any(g.has_edge(a, b) for a, b in combinations(sorted(z), 2)):
            return None
    for i, zi in enumerate(zs):
        for j in range(i + 1, len(zs)):
            if any(not g.has_edge(a, b) for a in zi for b in zs[j]):
                return None
            if any(g.has_edge(a, b) for a in comps[i] for b in zs[j]):
                return None
            if any(g.has_edge(a, b) for a in comps[j] for b in zi):
                return None
    return (tuple(tuple(c) for c in comps), tuple(tuple(sorted(z)) for z in zs))


def oracle_candelabrum_with_base(g, base):
    """Decide from the definition whether g is a candelabrum with this base."""
    return oracle_candelabrum_parts(g, base) is not None


def oracle_is_candelabrum(g):
    """Exponential scan over every candidate base subset."""
    return any(oracle_candelabrum_with_base(g, [v for v in range(g.n) if mask >> v & 1])
               for mask in range(1, 1 << g.n))


def exhaustive_candled(g):
    """Some candled decomposition of g, trying every rest set, or None.

    Outside a nonempty rest R, every vertex must be complete to R (a base
    vertex) or anticomplete to it (a clique-part vertex), so R fixes the
    base; with R empty every base is tried.  The body must then be a
    candelabrum with that base.  Exponential in n: small graphs only.
    """
    n = g.n
    for rest_mask in range(1 << n):
        rest = [v for v in range(n) if rest_mask >> v & 1]
        body = [v for v in range(n) if not rest_mask >> v & 1]
        if rest:
            base = [v for v in body if all(g.has_edge(v, r) for r in rest)]
            candles = [v for v in body if not any(g.has_edge(v, r) for r in rest)]
            if len(base) + len(candles) != len(body):
                continue
            bases = [base]
        else:
            bases = [[v for v in body if mask >> v & 1] for mask in range(1, 1 << n)]
        sub = g.induced(body)
        for base in bases:
            parts = oracle_candelabrum_parts(sub, [body.index(v) for v in base])
            if parts is not None:
                ys, zs = (tuple(tuple(body[i] for i in p) for p in side) for side in parts)
                return CandledDecomposition(CandelabrumStructure(ys, zs), tuple(rest))
    return None


def oracle_verify_candled(g, dec):
    """Decide from the definition, pair of parts by pair of parts, whether a
    well-shaped dec (parts and rest partition g) is a candled decomposition:
    each Y_i a clique complete to Z_i, each Z_i stable, distinct Y's
    anticomplete, distinct Z's complete, Y_i anticomplete to Z_j for j != i,
    the base complete to the rest and the Y's anticomplete to it."""
    ys, zs = dec.candelabrum.clique_parts, dec.candelabrum.stable_parts

    def complete(a, b):
        return all(g.has_edge(u, v) for u in a for v in b)

    def anticomplete(a, b):
        return not any(g.has_edge(u, v) for u in a for v in b)

    if not all(g.has_edge(u, v) for y in ys for u, v in combinations(y, 2)):
        return False
    if not all(anticomplete(z, z) for z in zs):
        return False
    for i, (yi, zi) in enumerate(zip(ys, zs)):
        if not complete(yi, zi):
            return False
        for j in range(i + 1, len(ys)):
            if not (anticomplete(yi, ys[j]) and complete(zi, zs[j])
                    and anticomplete(yi, zs[j]) and anticomplete(ys[j], zi)):
                return False
    base = [v for z in zs for v in z]
    candles = [v for y in ys for v in y]
    return complete(base, dec.rest) and anticomplete(candles, dec.rest)


def naive_matching_number(g):
    """Most pairwise disjoint edges of g, by trying edge sets largest first."""
    edges = g.edges()
    for r in range(g.n // 2, 0, -1):
        for sub in combinations(edges, r):
            if len({v for e in sub for v in e}) == 2 * r:
                return r
    return 0


def naive_graph6(g):
    """graph6 written from the format description (McKay, graph6 and sparse6
    graph formats): N(n) is the byte n + 63 for n <= 62, else 126 and the 18
    bits of n, six per byte, each plus 63; then the bits x(u,v) for
    ``v in range(1, n)``, ``u in range(v)``, six per byte MSB-first, the last
    group padded with zeros, each group plus 63."""
    n = g.n
    if n <= 62:
        out = [n + 63]
    else:
        out = [126, (n >> 12) % 64 + 63, (n >> 6) % 64 + 63, n % 64 + 63]
    bits = [1 if g.has_edge(u, v) else 0 for v in range(1, n) for u in range(v)]
    while len(bits) % 6:
        bits.append(0)
    for i in range(0, len(bits), 6):
        value = 0
        for b in bits[i:i + 6]:
            value = 2 * value + b
        out.append(value + 63)
    return "".join(chr(c) for c in out)


def random_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def random_connected_triangle_free(rng, n):
    """Random spanning tree plus random extra edges that close no triangle."""
    edges = []
    adj = [0] * n
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        a, b = order[rng.randrange(i)], order[i]
        edges.append((a, b))
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    for _ in range(3 * rng.randrange(n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b or adj[a] >> b & 1 or adj[a] & adj[b]:
            continue
        edges.append((a, b))
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return Graph(n, edges)


def random_candelabrum(rng, max_k=4, max_part=2):
    """A candelabrum built from its definition, labels shuffled.

    Returns (graph, clique_parts, stable_parts).
    """
    k = rng.randint(1, max_k)
    y_sizes = [rng.randint(1, max_part) for _ in range(k)]
    z_sizes = [rng.randint(1, max_part) for _ in range(k)]
    n = sum(y_sizes) + sum(z_sizes)
    labels = list(range(n))
    rng.shuffle(labels)
    it = iter(labels)
    ys = [tuple(sorted(next(it) for _ in range(s))) for s in y_sizes]
    zs = [tuple(sorted(next(it) for _ in range(s))) for s in z_sizes]
    edges = []
    for i in range(k):
        edges += [(a, b) for ai, a in enumerate(ys[i]) for b in ys[i][ai + 1:]]
        edges += [(a, b) for a in ys[i] for b in zs[i]]
        for j in range(i + 1, k):
            edges += [(a, b) for a in zs[i] for b in zs[j]]
    return Graph(n, edges), tuple(ys), tuple(zs)


def compose_candled(rest_graph, cand_graph, base):
    """Join every rest vertex to the base of the candelabrum, nothing else.

    The candelabrum keeps its labels; the rest is shifted above it.
    """
    shift = cand_graph.n
    edges = list(cand_graph.edges())
    edges += [(shift + a, shift + b) for a, b in rest_graph.edges()]
    edges += [(b, shift + a) for b in base for a in range(rest_graph.n)]
    return Graph(shift + rest_graph.n, edges)


def automorphism_group(g):
    """Every automorphism of g, as a tuple whose entry v is the image of v.

    Degree-preserving backtracking: vertex i may go to any unused vertex of
    its degree whose adjacency to the images of vertices 0..i-1 matches its
    own adjacency to those vertices.
    """
    n = g.n
    deg = [g.degree(v) for v in range(n)]
    image = []
    out = []

    def extend():
        i = len(image)
        if i == n:
            out.append(tuple(image))
            return
        for w in range(n):
            if (w not in image and deg[w] == deg[i]
                    and all(g.has_edge(i, j) == g.has_edge(w, image[j])
                            for j in range(i))):
                image.append(w)
                extend()
                image.pop()

    extend()
    return out
