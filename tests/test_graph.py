import copy
import pickle

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import uncluttered as U
from uncluttered import Graph, InputError
from uncluttered.graph import MAX_VERTICES, invariant_key


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
    # duplicate edges collapse rather than erroring
    assert Graph(2, [(0, 1), (1, 0)]).edge_count() == 1


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


def test_clique_and_stable_predicates():
    g = U.pattern("diamond")
    assert U.is_clique(g, [0, 1, 2])
    assert not U.is_clique(g, [0, 1, 2, 3])
    assert U.is_stable(g, [0, 3])
    assert U.is_clique(g, [])
    assert U.is_stable(g, [2])


def test_between_predicates_require_disjoint_sides():
    g = U.cycle_graph(4)
    assert U.is_complete_between(g, [0], [1, 3])
    assert U.is_anticomplete_between(g, [0], [2])
    assert not U.is_complete_between(g, [0], [2])
    with pytest.raises(InputError):
        U.is_complete_between(g, [0, 1], [1])
    with pytest.raises(InputError):
        U.is_anticomplete_between(g, [2], [2, 3])


def test_dominating_sets():
    g = U.cycle_graph(5)
    assert U.is_dominating(g, [0, 2])
    assert not U.is_dominating(g, [0])
    assert U.is_dominating(g, range(5))
    assert not U.is_dominating(U.edgeless_graph(2), [0])


def test_bipartiteness():
    assert U.is_bipartite(U.cycle_graph(4))
    assert not U.is_bipartite(U.cycle_graph(5))
    assert U.is_bipartite(U.path_graph(7))
    assert U.is_bipartite(U.edgeless_graph(3))
    assert not U.is_bipartite(U.disjoint_union(U.path_graph(2), U.cycle_graph(3)))


def test_isomorphism_accepts_relabelings(rng):
    for _ in range(40):
        n = rng.randint(0, 8)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.4])
        perm = list(range(n))
        rng.shuffle(perm)
        h = Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert U.are_isomorphic(g, h)


def test_isomorphism_rejects_same_degree_sequence_pairs():
    c6 = U.cycle_graph(6)
    two_triangles = U.disjoint_union(U.cycle_graph(3), U.cycle_graph(3))
    assert not U.are_isomorphic(c6, two_triangles)
    assert not U.are_isomorphic(U.path_graph(4), U.pattern("claw"))


def test_invariant_key_is_relabeling_invariant(rng):
    for _ in range(40):
        n = rng.randint(1, 8)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.5])
        perm = list(range(n))
        rng.shuffle(perm)
        h = Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert invariant_key(g) == invariant_key(h)
