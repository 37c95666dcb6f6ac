from itertools import combinations

import pytest

import uncluttered as U
from uncluttered import Graph, InputError
import uncluttered.patterns as P
from uncluttered.graph import _mask_to_tuple
from uncluttered.patterns import _has_antifork, _has_fork
from uncluttered.structure import _line_root

from oracles import (
    compose_candled,
    crowded_mask,
    naive_has_induced,
    random_candelabrum,
    random_connected_triangle_free,
    random_graph,
    subset_scan_uncluttered,
)

EXPECTED_EDGES = {
    "fork": [(0, 1), (1, 2), (1, 4), (2, 3)],
    "claw": [(0, 1), (0, 2), (0, 3)],
    "P4": [(0, 1), (1, 2), (2, 3)],
    "diamond": [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)],
    "bull": [(0, 1), (1, 2), (1, 4), (2, 3), (2, 4)],
    "net": [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5)],
    "triangle": [(0, 1), (0, 2), (1, 2)],
}


def test_the_ten_names_are_fixed():
    assert U.PATTERN_NAMES == ("fork", "antifork", "claw", "anticlaw", "diamond",
                               "bull", "net", "antinet", "P4", "triangle")
    with pytest.raises(InputError):
        U.pattern("pentagon")


def test_primal_pattern_edge_sets():
    for name, edges in EXPECTED_EDGES.items():
        assert U.pattern(name).edges() == edges, name


def test_complement_pairs():
    assert U.are_isomorphic(U.pattern("fork").complement(), U.pattern("antifork"))
    assert U.are_isomorphic(U.pattern("claw").complement(), U.pattern("anticlaw"))
    assert U.are_isomorphic(U.pattern("net").complement(), U.pattern("antinet"))
    assert U.are_isomorphic(U.pattern("bull").complement(), U.pattern("bull"))
    assert U.are_isomorphic(U.pattern("P4").complement(), U.pattern("P4"))
    assert U.pattern("anticlaw") == U.pattern("claw").complement()


def test_find_induced_returns_the_least_embedding():
    host = U.pattern("fork")
    assert U.find_induced(U.pattern("fork"), host) == (0, 1, 2, 3, 4)
    assert U.find_induced(U.pattern("P4"), U.path_graph(6)) == (0, 1, 2, 3)


def test_find_induced_on_known_hosts():
    c5 = U.cycle_graph(5)
    assert U.find_induced(U.pattern("claw"), c5) is None
    assert U.find_induced(U.pattern("P4"), c5) == (0, 1, 2, 3)
    assert U.find_induced(U.pattern("triangle"), c5) is None
    assert U.find_induced(U.pattern("fork"), c5) is None
    assert U.find_induced(U.pattern("diamond"), U.complete_graph(4)) is None
    house = Graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4)])
    assert U.find_induced(U.pattern("P4"), house) == (0, 1, 3, 4)


def test_witness_validation_rejects_wrong_embeddings():
    host = Graph(6, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5)])
    w = U.PatternWitness("fork", U.find_induced(U.pattern("fork"), host))
    assert w == ("fork", (0, 1, 2, 3, 4)) and w.pattern == U.pattern("fork")
    assert w.holds_in(host)
    # so do the swapped outer leaves, and leaf 4 with its tail 5 as inner leaf and tail
    assert U.PatternWitness("fork", (4, 1, 2, 3, 0)).holds_in(host)
    assert U.PatternWitness("fork", (0, 1, 4, 5, 2)).holds_in(host)
    assert not U.PatternWitness("antifork", w.embedding).holds_in(host)
    for emb in ((0, 1, 2, 3), (0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 3),
                (0, 1, 2, 3, 5), (0, 1, 2, 3, 6), (-1, 1, 2, 3, 4),
                (False, True, 2, 3, 4), (0.0, 1, 2, 3, 4)):
        assert not U.PatternWitness("fork", emb).holds_in(host), emb
    # malformed witnesses are not witnesses: False, not an exception
    assert not U.PatternWitness("fork", 5).holds_in(host)
    assert not U.PatternWitness("fork", None).holds_in(host)
    assert not U.PatternWitness("nope", (0, 1)).holds_in(host)
    assert not U.PatternWitness(["fork"], w.embedding).holds_in(host)


def test_has_induced_matches_the_naive_search(rng):
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 8), rng.choice((0.25, 0.5, 0.75)))
        for name in U.PATTERN_NAMES:
            assert U.has_induced(g, name) == naive_has_induced(U.pattern(name), g), name


def test_uncluttered_examples():
    assert U.is_uncluttered(U.cycle_graph(5)) is None
    assert U.is_uncluttered(U.complete_graph(6)) is None
    assert U.is_uncluttered(U.edgeless_graph(6)) is None
    w = U.is_uncluttered(U.pattern("fork"))
    assert w.pattern_name == "fork" and w.embedding == (0, 1, 2, 3, 4)
    w = U.is_uncluttered(U.pattern("antifork"))
    assert w.pattern_name == "antifork"
    # paths stay uncluttered at any length: their induced subgraphs are
    # linear forests, which have no degree-three vertex and no triangle
    assert U.is_uncluttered(U.path_graph(8)) is None
    # a spider with two legs of length two contains a fork
    spider = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5)])
    w = U.is_uncluttered(spider)
    assert w is not None and w.pattern_name == "fork" and w.holds_in(spider)


def test_uncluttered_is_complement_closed(census):
    for n, reps in census.items():
        for g in reps:
            a = U.is_uncluttered(g)
            b = U.is_uncluttered(g.complement())
            assert (a is None) == (b is None)
            if a is not None:
                assert {a.pattern_name, b.pattern_name} <= {"fork", "antifork"}
                assert a.holds_in(g)
                assert b.holds_in(g.complement())


def _agrees_with_subset_scan(g):
    w = U.is_uncluttered(g)
    got = None if w is None else (w.pattern_name, w.embedding)
    assert got == subset_scan_uncluttered(g), U.to_graph6(g)
    return w is None


def _kernels_agree_with_has_induced(g):
    """Each kernel alone decides its pattern on g, over the crowded
    vertices and over every vertex; the fork search on the complement
    decides the antifork."""
    fork = U.has_induced(g, "fork")
    antifork = U.has_induced(g, "antifork")
    gc = g.complement()
    for mask in (crowded_mask(g.adj, g.full_mask), g.full_mask):
        assert _has_fork(g.adj, mask) == fork, U.to_graph6(g)
        assert _has_antifork(g.adj, mask) == antifork, U.to_graph6(g)
    for mask in (crowded_mask(gc.adj, gc.full_mask), gc.full_mask):
        assert _has_fork(gc.adj, mask) == antifork, U.to_graph6(g)


def test_uncluttered_agrees_with_subset_scan_on_every_labelled_five_vertex_graph():
    """Every labelled graph on five vertices, so every assignment of the
    fork's and the antifork's roles to vertex labels is met."""
    pairs = list(combinations(range(5), 2))
    forks = antiforks = 0
    for mask in range(1 << len(pairs)):
        g = Graph(5, [e for i, e in enumerate(pairs) if mask >> i & 1])
        _kernels_agree_with_has_induced(g)
        if not _agrees_with_subset_scan(g):
            name = U.is_uncluttered(g).pattern_name
            forks += name == "fork"
            antiforks += name == "antifork"
    # 5!/2 labelled copies of each, the fork's only automorphism being the
    # swap of its two outer leaves
    assert forks == antiforks == 60


def test_fifth_vertex_table_from_the_pattern_graphs():
    """_FIFTH rebuilt from its definition: for each code of pairs among
    a, b, c, d (bits ab, ac, bc, ad, bd, cd) and each pattern of a fifth
    vertex's edges to them, the five vertices induce a fork or an
    antifork exactly when the table lists the pattern."""
    four_pairs = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    fork, antifork = U.pattern("fork"), U.pattern("antifork")
    table = []
    for code in range(64):
        pairs = [e for i, e in enumerate(four_pairs) if code >> i & 1]
        table.append(tuple(
            p for p in range(16)
            if any(naive_has_induced(q, Graph(5, pairs + [(i, 4) for i in range(4) if p >> i & 1]))
                   for q in (fork, antifork))))
    assert P._FIFTH == tuple(table)
    assert sum(map(bool, table)) == 56 and max(map(len, table)) == 4


def test_uncluttered_agrees_with_subset_scan_on_random_graphs(rng):
    members = 0
    for _ in range(400):
        n = rng.randint(5, 12)
        p = rng.choice((0.15, 0.3, 0.5, 0.7, 0.85))
        members += _agrees_with_subset_scan(random_graph(rng, n, p))
    assert 0 < members < 400


def test_uncluttered_agrees_with_subset_scan_on_the_census(census):
    for n in range(5, 8):
        for g in census[n]:
            _agrees_with_subset_scan(g)
            # a false positive of the bitset search would only cost a scan,
            # so check it on its own as well
            _kernels_agree_with_has_induced(g)


def _line_graph_member(rng, m):
    """Line graph of m edges of a random triangle-free graph."""
    while True:
        root = random_connected_triangle_free(rng, rng.randint(m // 2, m))
        if root.edge_count() >= m:
            return U.line_graph(Graph(root.n, rng.sample(root.edges(), m)))


def _plus_one_vertex(rng, g):
    """g with one more vertex on a random neighbourhood, labels shuffled."""
    n = g.n + 1
    edges = g.edges() + [(v, g.n) for v in range(g.n) if rng.random() < 0.3]
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[a], perm[b]) for a, b in edges])


def test_uncluttered_agrees_with_subset_scan_on_large_members(rng):
    """Members built by line graph, complement and candled composition, and
    near-members one vertex away from them, with up to 64 vertices."""
    members = [_line_graph_member(rng, m) for m in (16, 24, 40, 64)]
    for rest_n in (16, 24, 32):
        cand, _, zs = random_candelabrum(rng, max_k=3, max_part=3)
        rest = _line_graph_member(rng, rest_n)
        members.append(compose_candled(rest, cand, [v for z in zs for v in z]))
    members += [g.complement() for g in members]
    near = 0
    for g in members:
        assert g.n <= 64
        assert _agrees_with_subset_scan(g)
        if g.n < 64:
            near += not _agrees_with_subset_scan(_plus_one_vertex(rng, g))
    assert near >= len(members) // 2


def _late_witness_near_member(rng, n):
    """The line graph of a connected triangle-free root with n - 1 edges,
    plus a pendant on a vertex x, labelled by descending BFS distance from
    x.  The line graph is a member, so every witness holds the pendant and
    x, whose label is the top one: the least witness comes late in the
    scan."""
    while True:
        root = random_connected_triangle_free(rng, rng.randint(n // 3, n // 2))
        if root.edge_count() >= n - 1:
            break
    # each edge taken from the end that a BFS of the root leaves first:
    # every prefix of these edges is connected
    edges, seen, queue = [], {0}, [0]
    for i, u in enumerate(queue):
        edges += [(u, w) for w in root.neighbors(u) if w not in queue[:i]]
        queue += [w for w in root.neighbors(u) if w not in seen]
        seen.update(root.neighbors(u))
    line = U.line_graph(Graph(root.n, edges[:n - 1]))
    x = rng.randrange(line.n)
    g = Graph(n, line.edges() + [(x, n - 1)])
    dist, queue = {x: 0}, [x]
    for u in queue:
        for w in g.neighbors(u):
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    label = {v: i for i, v in enumerate(sorted(range(n), key=lambda v: (-dist[v], v)))}
    return Graph(n, [(label[a], label[b]) for a, b in g.edges()])


def test_uncluttered_agrees_with_subset_scan_on_late_witnesses(rng):
    """Near-members whose every witness holds the top label, so the scan
    passes many 5-subsets before the least one; up to 24 vertices, where
    the oracle is affordable."""
    near = 0
    for _ in range(10):
        g = _late_witness_near_member(rng, rng.randint(20, 24))
        assert g.is_connected()
        if not _agrees_with_subset_scan(g):
            near += 1
            assert max(U.is_uncluttered(g).embedding) == g.n - 1, U.to_graph6(g)
    assert near >= 7, near


def _connected_line_member(rng, max_n):
    """Line graph of a connected random triangle-free root, connected and
    co-connected, with at most max_n vertices."""
    while True:
        line = U.line_graph(random_connected_triangle_free(rng, rng.randint(8, 14)))
        if 24 <= line.n <= max_n and line.is_anticonnected():
            return line


def test_membership_searches_only_the_sparser_side(rng, monkeypatch):
    """The Krausz walk with its three checks runs once on each connected,
    co-connected part with at least five vertices, on the part's rows in
    whichever of g and its complement has fewer edges within the part.  The
    fork search and then the antifork search run once on each part the
    walk rejects, on the walk's own rows and over the whole part, never
    after a walk that accepts, and no complement of g is built.  A line
    graph, its complement and a k = 1 candled member, Z joined to K_Y plus
    L(H), whose one part is L(H), pass on the walk alone; a small sparse
    member beside the complement of a line graph is sparse as a whole, but
    its dense part is walked on the complement's rows.  The last member has
    claw centres, so the walk rejects it and the searches run on it."""
    line = _line_graph_member(rng, 40)
    assert line.n >= 32
    cand, _, zs = random_candelabrum(rng, max_k=3, max_part=3)
    candled = compose_candled(_line_graph_member(rng, 32), cand,
                              [v for z in zs for v in z])
    cand1, _, zs1 = random_candelabrum(rng, max_k=1, max_part=4)
    lh = _connected_line_member(rng, 64 - cand1.n)
    candled1 = compose_candled(lh, cand1, zs1[0])
    lh_part = ((1 << lh.n) - 1) << cand1.n
    small = _line_graph_member(rng, 11)
    beside = _shuffled(rng, U.disjoint_union(small, _connected_line_member(rng, 28).complement()))
    assert 4 * beside.edge_count() <= beside.n * (beside.n - 1)
    walks = []  # (part, rows, accepted) of each walk
    searched = []  # (walk index, kernel) of each search
    complements = []
    complement = Graph.complement

    def recording_walk(rows, part):
        k = part.bit_count()
        assert 2 * sum(r.bit_count() for r in rows) <= k * (k - 1)
        walk = _line_root(rows, part)
        walks.append((part, list(rows), walk is not None))
        return walk

    def recording(name, search):
        def wrapped(rows, mask):
            part, last_rows, accepted = walks[-1]
            assert list(rows) == last_rows and mask == part and not accepted
            searched.append((len(walks) - 1, name))
            return search(rows, mask)
        return wrapped

    def counted_complement(self):
        complements.append(self.n)
        return complement(self)

    # a 4-cycle with a pendant on two adjacent vertices, both claw centres
    clawed = Graph(6, [(0, 4), (0, 5), (1, 4), (1, 5), (2, 4), (3, 5)])
    co_line = line.complement()
    inputs = [line, co_line, candled, candled1, beside, clawed]
    monkeypatch.setattr(P, "_line_root", recording_walk)
    monkeypatch.setattr(P, "_has_fork", recording("fork", _has_fork))
    monkeypatch.setattr(P, "_has_antifork", recording("antifork", _has_antifork))
    monkeypatch.setattr(Graph, "complement", counted_complement)
    sparse = searches = 0
    for g in inputs:
        walks.clear()
        searched.clear()
        assert U.is_uncluttered(g) is None and walks
        assert searched == [(i, name) for i, w in enumerate(walks) if not w[2]
                            for name in ("fork", "antifork")]
        if g is line or g is co_line or g is candled1:
            assert searched == []
        if g is clawed:
            assert searched
        searches += len(searched)
        parts = [part for part, _, _ in walks]
        covered = 0
        for part, rows, _ in walks:
            assert not covered & part
            covered |= part
            h = g.induced(_mask_to_tuple(part))
            assert h.n >= 5 and h.is_connected() and h.is_anticonnected()
            dense = 4 * h.edge_count() > h.n * (h.n - 1)
            assert rows == [(part & ~r & ~(1 << v) if dense else r & part)
                            if part >> v & 1 else 0 for v, r in enumerate(g.adj)]
            if g is beside and h.n > small.n:
                assert dense
        sparse += 4 * g.edge_count() <= g.n * (g.n - 1)
        if g is candled1:
            assert parts == [lh_part]
    assert complements == []
    assert 0 < sparse < len(inputs)
    assert searches


def test_uncluttered_agrees_with_subset_scan_on_mixed_density_compositions(rng):
    """Unions and joins of a sparse line graph, the complement of another
    and sometimes a very sparse or very dense random graph, labels
    shuffled, and near-members one vertex away from them: the parts differ
    in density from each other and from g."""
    members = near = 0
    for _ in range(60):
        pieces = [_line_graph_member(rng, rng.randint(5, 8)),
                  _line_graph_member(rng, rng.randint(5, 8)).complement()]
        if rng.random() < 0.5:
            pieces.append(_piece(rng, rng.randint(5, 7)))
        rng.shuffle(pieces)
        g = pieces[0]
        for h in pieces[1:]:
            g = (U.disjoint_union if rng.random() < 0.5 else U.complete_join)(g, h)
        g = _shuffled(rng, g)
        members += _agrees_with_subset_scan(g)
        near += not _agrees_with_subset_scan(_plus_one_vertex(rng, g))
    assert 10 <= members <= 50 and near >= 30, (members, near)


def test_kernels_agree_with_has_induced_on_relabelled_census(census, rng):
    """The crowded mask (oracles.crowded_mask) reads each neighbourhood from
    its least vertex, so each census graph with six or seven vertices, and
    its complement, is checked under three relabellings, over the crowded
    vertices and over every vertex."""
    for n in (6, 7):
        for g in census[n]:
            for h in (g, g.complement()):
                fork = U.has_induced(h, "fork")
                antifork = U.has_induced(h, "antifork")
                for _ in range(3):
                    s = _shuffled(rng, h)
                    for mask in (crowded_mask(s.adj, s.full_mask), s.full_mask):
                        assert _has_fork(s.adj, mask) == fork, U.to_graph6(s)
                        assert _has_antifork(s.adj, mask) == antifork, U.to_graph6(s)


def test_kernels_decide_a_part_on_either_side(rng):
    """The kernels' call shape in is_uncluttered: rows masked to a part,
    read on g's side or complemented within the part, with the whole part
    as the anchor mask.  On seeded random graphs with 5..16 vertices and
    random parts, each kernel equals has_induced on g.induced(part); on the
    complement's side the fork search finds the part's antiforks and the
    antifork search its forks."""
    seen = {(fork, antifork): 0 for fork in (False, True) for antifork in (False, True)}
    for _ in range(400):
        g = random_graph(rng, rng.randint(5, 16), rng.random())
        part = g.full_mask if rng.random() < 0.25 else rng.getrandbits(g.n)
        h = g.induced(_mask_to_tuple(part))
        fork, antifork = U.has_induced(h, "fork"), U.has_induced(h, "antifork")
        rows = [r & part if part >> v & 1 else 0 for v, r in enumerate(g.adj)]
        co_rows = [part & ~r & ~(1 << v) if part >> v & 1 else 0
                   for v, r in enumerate(rows)]
        got = (_has_fork(rows, part), _has_antifork(rows, part),
               _has_fork(co_rows, part), _has_antifork(co_rows, part))
        assert got == (fork, antifork, antifork, fork), (U.to_graph6(g), part)
        seen[fork, antifork] += 1
    assert min(seen.values()) >= 20, seen


def _claw_centres(g):
    return {v for v in range(g.n)
            if any(not (g.has_edge(a, b) or g.has_edge(a, c) or g.has_edge(b, c))
                   for a, b, c in combinations(_mask_to_tuple(g.adj[v]), 3))}


def _diamond_spines(g):
    return {(u, v) for u, v in g.edges()
            if any(not g.has_edge(a, b)
                   for a, b in combinations(_mask_to_tuple(g.adj[u] & g.adj[v]), 2))}


def test_crowded_marks_every_claw_centre_and_diamond_spine(census):
    """A neighbourhood that is not a disjoint union of at most two cliques
    holds three pairwise nonadjacent vertices or an induced path of length
    two, so the crowded vertices are exactly the claw centres and the ends
    of the diamond spines."""
    for n in (6, 7):
        for g in census[n]:
            for h in (g, g.complement()):
                want = _claw_centres(h)
                for u, v in _diamond_spines(h):
                    want |= {u, v}
                assert crowded_mask(h.adj, h.full_mask) == sum(1 << v for v in want), \
                    U.to_graph6(h)


def test_crowded_is_empty_on_line_graphs_of_triangle_free_roots(rng):
    """Every neighbourhood in such a line graph is two anticomplete cliques,
    the other edges at each end of the root edge; so the Krausz walk
    accepts it, and its complement, whose denser rows membership reads
    complemented, and neither is searched."""
    for m in (5, 8, 16, 24, 40, 64):
        for _ in range(5):
            g = _shuffled(rng, _line_graph_member(rng, m))
            c = g.complement()
            rows = [c.full_mask & ~r & ~(1 << v) for v, r in enumerate(c.adj)]
            for h, h_rows in ((g, g.adj), (c, rows)):
                assert crowded_mask(h_rows, h.full_mask) == 0, U.to_graph6(h)
                assert _line_root(h_rows, h.full_mask) is not None, U.to_graph6(h)


def _walk_agrees_with_crowded(g, part):
    """The walk's verdict on g's rows within part, checked against the
    reference crowded mask (oracles.crowded_mask) on the same rows; the
    walk on g's unmasked rows is the same walk."""
    rows = [r & part if part >> v & 1 else 0 for v, r in enumerate(g.adj)]
    accepted = _line_root(rows, part) is not None
    assert _line_root(g.adj, part) == _line_root(rows, part)
    assert accepted == (crowded_mask(rows, part) == 0), (U.to_graph6(g), part)
    return accepted


def test_krausz_walk_accepts_exactly_the_uncrowded_parts(census, rng):
    """The Krausz walk with its three checks accepts a part exactly when the
    reference crowded mask holds no vertex of it: on the census up to seven
    vertices and its complements, on seeded random graphs over random
    parts, and on shuffled line graphs of triangle-free roots with up to 64
    vertices, each also with one pair toggled."""
    assert not _walk_agrees_with_crowded(U.pattern("diamond"), 15)
    assert not _walk_agrees_with_crowded(U.pattern("claw"), 15)
    assert _walk_agrees_with_crowded(U.complete_graph(4), 15)
    seen = {True: 0, False: 0}
    for n in range(8):
        for g in census[n]:
            for h in (g, g.complement()):
                seen[_walk_agrees_with_crowded(h, h.full_mask)] += 1
    for _ in range(1500):
        g = random_graph(rng, rng.randint(5, 16), rng.random())
        part = rng.getrandbits(g.n) if rng.random() < 0.5 else g.full_mask
        seen[_walk_agrees_with_crowded(g, part)] += 1
    toggled = {True: 0, False: 0}
    for m in range(5, 65):
        g = _shuffled(rng, _line_graph_member(rng, m))
        assert _walk_agrees_with_crowded(g, g.full_mask)
        for _ in range(2):
            u, v = sorted(rng.sample(range(g.n), 2))
            h = Graph(g.n, set(g.edges()) ^ {(u, v)})
            toggled[_walk_agrees_with_crowded(h, h.full_mask)] += 1
    assert min(seen.values()) >= 900 and min(toggled.values()) >= 5, (seen, toggled)


def test_kernel_skips_keep_a_pattern_one_vertex_past_them(rng):
    """A fork whose centre b, the only claw centre, has a neighbourhood of
    two cliques plus one vertex; and an antifork whose spine x~y, the only
    diamond spine, has N(x) a disjoint union of cliques but for one induced
    path c-y-d.  Under every sampled relabelling, whichever neighbour is
    least, the crowded mask marks b alone, or x and y alone, and the
    kernel over that mask finds the pattern."""
    b, c, c2, l1, l12, l2, d = range(7)
    fork = Graph(7, [(b, c), (b, c2), (b, l1), (b, l12), (b, l2),
                     (c, c2), (l1, l12), (c, d)])
    assert _claw_centres(fork) == {b}
    x, y, c, d, pendant, p, q, r = range(8)
    antifork = Graph(8, [(x, y), (x, c), (x, d), (y, c), (y, d), (d, pendant),
                         (x, p), (x, q), (p, q), (x, r)])
    assert _diamond_spines(antifork) == {(x, y)}
    for g, anchors, search in ((fork, (b,), _has_fork), (antifork, (x, y), _has_antifork)):
        for _ in range(200):
            perm = list(range(g.n))
            rng.shuffle(perm)
            s = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
            crowded = crowded_mask(s.adj, s.full_mask)
            assert crowded == sum(1 << perm[v] for v in anchors), U.to_graph6(s)
            assert search(s.adj, crowded), U.to_graph6(s)


def _shuffled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[a], perm[b]) for a, b in g.edges()])


def _piece(rng, n):
    """A random graph on n vertices; from five vertices up it is drawn
    connected and co-connected, and half the time holding a fork or an
    antifork."""
    want = n >= 5 and rng.random() < 0.5
    while True:
        g = random_graph(rng, n, rng.choice((0.3, 0.5, 0.7)))
        if n < 5 or (g.is_connected() and g.is_anticonnected()
                     and (not want or subset_scan_uncluttered(g))):
            return g


def _composed(rng, n, depth=0):
    """A disjoint union or complete join of 2-4 pieces on n vertices in all,
    a piece itself composed while depth < 2, or a random graph."""
    k = rng.randint(2, min(4, n))
    while True:
        sizes = [rng.choice((1, 2, 3, 5, 6, 7)) for _ in range(k)]
        if sum(sizes) == n:
            break
    pieces = [_composed(rng, s, depth + 1) if depth < 2 and s >= 4 and rng.random() < 0.3
              else _piece(rng, s)
              for s in sizes]
    combine = U.disjoint_union if rng.random() < 0.5 else U.complete_join
    g = pieces[0]
    for h in pieces[1:]:
        g = combine(g, h)
    return g


def test_least_witness_across_parts_agrees_with_subset_scan(rng):
    """Nested unions and joins with shuffled labels, so that the least
    witness often lies in a part after the one holding the least vertex,
    and several parts often hold witnesses."""
    members = several = later = 0
    for _ in range(400):
        g = _shuffled(rng, _composed(rng, rng.randint(10, 12)))
        members += _agrees_with_subset_scan(g)
        w = U.is_uncluttered(g)
        if w is None:
            continue
        parts = P._parts(g.adj, g.full_mask, g.full_mask)
        several += sum(bool(subset_scan_uncluttered(g.induced(_mask_to_tuple(part))))
                       for part in parts) > 1
        first = min(parts, key=lambda part: part & -part)
        later += not first >> w.embedding[0] & 1
    assert 0 < members < 400
    assert several >= 20 and later >= 5, (several, later)


def test_least_witness_past_a_large_part():
    """A fork on the last five labels behind a clique or an edgeless graph on
    all the others: only the fork's part is scanned."""
    fork = U.pattern("fork")
    for n in (24, 40, 64):
        for rest in (U.complete_graph(n - 5), U.edgeless_graph(n - 5)):
            g = U.disjoint_union(rest, fork)
            w = U.is_uncluttered(g)
            assert (w.pattern_name, w.embedding) == ("fork", tuple(range(n - 5, n)))
            if n == 24:
                assert _agrees_with_subset_scan(g) is False
