import copy
import hashlib
import itertools
import pickle

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import uncluttered as U
from uncluttered import Graph, InputError
from uncluttered.graph import (
    MAX_VERTICES, _component_masks, _is_clique_mask, _mask_to_tuple, _refine,
    invariant_key)

from oracles import naive_components, naive_isomorphic, random_graph


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    nbits = n * (n - 1) // 2
    bits = draw(st.integers(min_value=0, max_value=(1 << nbits) - 1)) if nbits else 0
    edges = []
    k = 0
    for v in range(n):
        for u in range(v):
            if bits >> k & 1:
                edges.append((u, v))
            k += 1
    return Graph(n, edges)


def test_construction_basics():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.degree(1) == 2
    assert g.neighbors(1) == (0, 2)
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.edge_count() == 3
    assert list(g.vertices()) == [0, 1, 2, 3]


def test_construction_rejects_bad_input():
    with pytest.raises(InputError):
        Graph(2, [(0, 0)])
    with pytest.raises(InputError):
        Graph(2, [(0, 2)])
    with pytest.raises(InputError):
        Graph(2, [(-1, 0)])
    with pytest.raises(InputError):
        Graph(-1)
    with pytest.raises(InputError):
        Graph(MAX_VERTICES + 1)
    for n in (True, False, 2.0, "3", None):
        with pytest.raises(InputError, match="must be an int"):
            Graph(n)
    # duplicate edges collapse rather than erroring
    assert Graph(2, [(0, 1), (1, 0)]).edge_count() == 1


def test_construction_rejects_malformed_edges():
    for edge in ((0, 1.0), (0, "1"), (0, True), (False, 1), (0, None)):
        with pytest.raises(InputError, match="endpoint must be an int"):
            Graph(3, [edge])
    for edge in ((0, 1, 2), (0,), 5, None):
        with pytest.raises(InputError, match="not a pair"):
            Graph(3, [edge])
    # any pair of ints will do, not only a tuple
    assert Graph(3, [[0, 1], iter((1, 2))]) == U.path_graph(3)


def test_graphs_are_immutable():
    g = U.path_graph(3)
    with pytest.raises(AttributeError):
        g.n = 5


def test_graphs_and_trees_survive_pickle_and_copy(uncluttered_census):
    # a candled graph with a nonempty rest puts every payload type in a tree
    members = [U.from_graph6("G?bF]{")] + list(uncluttered_census[6])
    trees = [U.decomposition_tree(g) for g in members]
    assert {t.certificate.case for t in trees} >= {"CANDLED", "LINEGRAPH_TF", "DISCONNECTED"}
    for x in [Graph(0), U.path_graph(5), U.complete_graph(64)] + trees:
        for twin in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert twin == x
    g = copy.deepcopy(U.cycle_graph(5))
    assert type(g) is Graph and g.adj == U.cycle_graph(5).adj
    with pytest.raises(AttributeError):
        g.n = 4


def test_equality_and_hash():
    a = U.path_graph(3)
    b = Graph(3, [(1, 2), (0, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != U.complete_graph(3)
    assert len({a, b, U.complete_graph(3)}) == 2


def test_standard_constructors():
    assert U.edgeless_graph(5).edge_count() == 0
    assert U.complete_graph(5).edge_count() == 10
    assert U.path_graph(5).edge_count() == 4
    assert U.cycle_graph(5).edge_count() == 5
    assert U.path_graph(1).edge_count() == 0
    with pytest.raises(InputError):
        U.cycle_graph(2)


def test_disjoint_union_and_join():
    u = U.disjoint_union(U.path_graph(2), U.path_graph(3))
    assert u.n == 5 and u.edge_count() == 3
    assert not u.is_connected()
    j = U.complete_join(U.edgeless_graph(2), U.edgeless_graph(3))
    assert j.edge_count() == 6
    assert j == Graph(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
    assert U.disjoint_union(Graph(40), Graph(24)).n == 64
    for combine in (U.disjoint_union, U.complete_join):
        with pytest.raises(InputError, match="64-vertex cap"):
            combine(Graph(40), Graph(40))


def test_components_and_connectivity():
    g = Graph(5, [(0, 3), (1, 2)])
    assert g.components() == [(0, 3), (1, 2), (4,)]
    assert not g.is_connected()
    assert g.complement().is_connected()
    assert U.complete_graph(3).anticomponents() == [(0,), (1,), (2,)]
    assert Graph(0).components() == []
    assert Graph(0).is_connected() and Graph(0).is_anticonnected()


def test_component_sweep_agrees_with_pairwise_merging(rng):
    """Both walks of the sweep (the frontier's rows, or the rest's rows
    against the frontier), with and without the complementing flip, on
    random vertex subsets."""
    for _ in range(300):
        n = rng.randint(1, 40)
        g = random_graph(rng, n, rng.choice((0.05, 0.1, 0.3, 0.7, 0.9)))
        within = rng.getrandbits(n) if rng.random() < 0.7 else g.full_mask
        vs = _mask_to_tuple(within)
        for flip, h in ((0, g), (g.full_mask, g.complement())):
            got = [_mask_to_tuple(m) for m in _component_masks(g.adj, within, flip)]
            assert got == naive_components(h, vs), (U.to_graph6(g), within, flip)


def test_components_match_complement_anticomponents(census):
    """The two partition views agree on every census graph."""
    for n, reps in census.items():
        for g in reps:
            assert g.components() == g.complement().anticomponents()
            assert g.is_connected() == g.complement().is_anticonnected()


@settings(max_examples=150, derandomize=True, deadline=None)
@given(graphs(max_n=8))
def test_complement_is_an_involution(g):
    assert g.complement().complement() == g


@settings(max_examples=150, derandomize=True, deadline=None)
@given(graphs(max_n=8), st.data())
def test_induced_subgraph_composes(g, data):
    s = sorted(data.draw(st.sets(st.sampled_from(range(g.n)))) if g.n else [])
    t_rel = sorted(data.draw(st.sets(st.sampled_from(range(len(s)))))) if s else []
    t = [s[i] for i in t_rel]
    assert g.induced(s).induced(t_rel) == g.induced(t)


def test_induced_relabels_in_sorted_order():
    g = U.path_graph(4)
    assert g.induced([0, 1, 3]) == Graph(3, [(0, 1)])
    assert g.induced([]) == Graph(0)
    assert g.induced([0, 0]) == g.induced([0])
    with pytest.raises(InputError):
        g.induced([4])


def _naive_induced(g, vs):
    keep = sorted(set(vs))
    return Graph(len(keep), [(i, j) for i, a in enumerate(keep)
                             for j, b in enumerate(keep) if i < j and g.has_edge(a, b)])


def test_induced_agrees_with_a_pairwise_copy(rng):
    """Run-by-run copying against a pair-by-pair oracle on random graphs up
    to 64 vertices, for unsorted and repeated lists, the empty and the full
    set; the full set gives back the graph itself."""
    for _ in range(200):
        n = rng.randint(0, MAX_VERTICES)
        g = random_graph(rng, n, rng.random())
        k = rng.randint(0, n)
        vs = rng.sample(range(n), k) + [rng.randrange(n) for _ in range(rng.randint(0, 3)) if n]
        rng.shuffle(vs)
        assert g.induced(vs) == _naive_induced(g, vs)
        assert g.induced([]) == Graph(0)
        everything = list(range(n)) * 2
        rng.shuffle(everything)
        assert g.induced(everything) is g
        if n:
            with pytest.raises(InputError):
                g.induced(vs + [n])
            with pytest.raises(InputError):
                g.induced(list(range(n)) + [-1])
    # only ints name vertices: a bool is refused even where set() would
    # merge it with an equal int
    g = U.path_graph(4)
    for vs in ([True, 2], [1, True], [False], [1.0, 2], ["a"], [None]):
        with pytest.raises(InputError, match="not an int"):
            g.induced(vs)


def test_clique_and_stable_predicates():
    g = U.pattern("diamond")
    assert _is_clique_mask(g.adj, 0b0111)
    assert not _is_clique_mask(g.adj, 0b1111)
    assert _is_clique_mask(g.adj, 0)
    for mask in range(1 << g.n):
        pairs = list(itertools.combinations(_mask_to_tuple(mask), 2))
        assert _is_clique_mask(g.adj, mask) == all(g.has_edge(u, v) for u, v in pairs)


def test_bipartiteness():
    assert U.is_bipartite(U.cycle_graph(4))
    assert not U.is_bipartite(U.cycle_graph(5))
    assert U.is_bipartite(U.path_graph(7))
    assert U.is_bipartite(U.edgeless_graph(3))
    assert not U.is_bipartite(U.disjoint_union(U.path_graph(2), U.cycle_graph(3)))


def _relabel(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_isomorphism_accepts_relabelings(rng):
    for _ in range(40):
        n = rng.randint(0, 8)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.4])
        assert U.are_isomorphic(g, _relabel(rng, g))


def test_isomorphism_rejects_same_degree_sequence_pairs():
    c6 = U.cycle_graph(6)
    two_triangles = U.disjoint_union(U.cycle_graph(3), U.cycle_graph(3))
    assert not U.are_isomorphic(c6, two_triangles)
    assert not U.are_isomorphic(U.path_graph(4), U.pattern("claw"))


def _complete_multipartite(sizes):
    g = U.edgeless_graph(0)
    for size in sizes:
        g = U.complete_join(g, U.edgeless_graph(size))
    return g


def _twin_heavy(rng, n):
    """A complete multipartite graph, K_{a,b}, a cocktail party or a star
    on n vertices."""
    kind = rng.randrange(4)
    if kind == 0:
        sizes = []
        while sum(sizes) < n:
            sizes.append(rng.randint(1, n - sum(sizes)))
        return _complete_multipartite(sizes)
    if kind == 1:
        a = rng.randint(1, n - 1)
        return _complete_multipartite([a, n - a])
    if kind == 2:
        # 2^k k! automorphisms, of which twins explain 2^k.
        return _complete_multipartite([2] * (n // 2))
    return Graph(n, [(0, v) for v in range(1, n)])


def _edge_switch(rng, g, tries=20):
    """g with edges ab, cd swapped for ac, bd (same degree sequence), or g
    itself when no random try finds such a pair."""
    edges = g.edges()
    for _ in range(tries):
        if len(edges) < 2:
            break
        (a, b), (c, d) = rng.sample(edges, 2)
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) == 4 and not g.has_edge(a, c) and not g.has_edge(b, d):
            rest = [e for e in edges if e not in ((a, b), (c, d), (b, a), (d, c))]
            return Graph(g.n, rest + [(a, c), (b, d)])
    return g


def test_invariant_key_is_relabeling_invariant(rng):
    for _ in range(40):
        n = rng.randint(1, 8)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.5])
        assert invariant_key(g) == invariant_key(_relabel(rng, g))
    for _ in range(60):
        n = rng.randint(2, 16)
        g = _twin_heavy(rng, n)
        if rng.random() < 0.5:
            g = g.complement()
        assert invariant_key(g) == invariant_key(_relabel(rng, g))
    for n in (9, 12, 16):
        for p in (0.2, 0.5):
            g = random_graph(rng, n, p)
            assert invariant_key(g) == invariant_key(_relabel(rng, g))
    # 2-regular graphs whose one refined cell holds several orbits, so the
    # search must branch on more than the first vertex of the cell.
    for sizes in ((3, 4), (3, 5), (4, 5), (3, 3, 4), (3, 4, 5)):
        g = U.edgeless_graph(0)
        for k in sizes:
            g = U.disjoint_union(g, U.cycle_graph(k))
        for h in (g, g.complement()):
            keys = {invariant_key(_relabel(rng, h)) for _ in range(6)}
            assert keys == {invariant_key(h)}, sizes


def test_invariant_key_agrees_with_naive_isomorphism(rng):
    c6 = U.cycle_graph(6)
    two_triangles = U.disjoint_union(U.cycle_graph(3), U.cycle_graph(3))
    assert invariant_key(c6) != invariant_key(two_triangles)
    seen = {True: 0, False: 0}
    for _ in range(150):
        n = rng.randint(0, 7)
        g = random_graph(rng, n, rng.choice((0.3, 0.5, 0.7)))
        h = rng.choice((_edge_switch(rng, g), random_graph(rng, n, 0.5),
                        _relabel(rng, _edge_switch(rng, g)), _relabel(rng, g)))
        same = naive_isomorphic(g, h)
        assert (invariant_key(g) == invariant_key(h)) == same, (g, h)
        seen[same] += 1
    assert min(seen.values()) >= 20, seen


def test_census_keys_are_pairwise_distinct(census):
    keys = [invariant_key(g) for n in range(1, 8) for g in census[n]]
    assert len(keys) == 1252 and len(set(keys)) == len(keys)


# SHA-256 of invariant_key over the census representatives with n <= 7 and
# their complements, each key as its comma-separated rows on one line, taken
# before the search was pruned by automorphisms.
CENSUS_KEY_SHA256 = "b502cc71d940693a0ca1cba8ea7a09e16e2e2ce7c1832cbe0cf1562eddfd8344"


def test_census_keys_are_frozen(census):
    lines = [",".join(map(str, invariant_key(h)))
             for n in range(8) for g in census[n] for h in (g, g.complement())]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CENSUS_KEY_SHA256


def _copies(g, k):
    h = Graph(0)
    for _ in range(k):
        h = U.disjoint_union(h, g)
    return h


def _cube(d):
    return Graph(1 << d, [(u, u | 1 << i) for u in range(1 << d) for i in range(d)
                          if not u >> i & 1])


def _cayley_z4_squared(steps):
    """The Cayley graph of Z4 x Z4 with this symmetric set of steps."""
    return Graph(16, [(u, v) for u in range(16) for v in range(u + 1, 16)
                      if ((v // 4 - u // 4) % 4, (v - u) % 4) in steps])


def test_keys_of_symmetric_graphs_where_refinement_does_nothing(rng):
    """Regular graphs with large automorphism groups: refinement leaves one
    cell, so only the automorphisms the search finds keep it small."""
    rook = _cayley_z4_squared({(1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (0, 3)})
    shrikhande = _cayley_z4_squared({(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)})
    graphs = {
        "C64": U.cycle_graph(64),
        "8K2": _copies(U.complete_graph(2), 8),
        "L(K8)": U.line_graph(U.complete_graph(8)),
        "Q5": _cube(5),
        "12C5": _copies(U.cycle_graph(5), 12),
        "Petersen": U.line_graph(U.complete_graph(5)).complement(),
        "Shrikhande": shrikhande,
        "4x4 rook": rook,
        "cocktail party": _complete_multipartite([2] * 32),
    }
    keys = {}
    for name, g in graphs.items():
        assert _refine(g.adj, [g.full_mask], [g.full_mask]) == [g.full_mask], name
        h = _relabel(rng, g)
        keys[name] = invariant_key(g)
        assert invariant_key(h) == keys[name], name
        assert U.are_isomorphic(g, h), name
    # both are srg(16, 6, 2, 2), and 2-regular C64 and 2 C32 share a degree
    # sequence too
    assert keys["Shrikhande"] != keys["4x4 rook"]
    assert not U.are_isomorphic(shrikhande, _relabel(rng, rook))
    two_c32 = _relabel(rng, _copies(U.cycle_graph(32), 2))
    assert invariant_key(two_c32) != keys["C64"]
    assert not U.are_isomorphic(graphs["C64"], two_c32)
