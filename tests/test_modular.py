import uncluttered as U
from uncluttered import Graph
from uncluttered.graph import _mask_to_tuple
from uncluttered.modular import (
    _anti_simplicial_twins,
    _closure_mask,
    _nonadjacent_twins_in,
    _simplicial_in,
)

from oracles import exhaustive_candled, random_graph


def is_homogeneous(g, members):
    inside = set(members)
    for w in range(g.n):
        if w in inside:
            continue
        hits = sum(1 for v in inside if g.has_edge(w, v))
        if hits not in (0, len(inside)):
            return False
    return True


def closed_neighbourhood(g, v):
    return {w for w in range(g.n) if w == v or g.has_edge(v, w)}


def closure(g, u, v):
    """The smallest homogeneous set containing u and v, by the kernel that
    find_nontrivial_homogeneous_set and detect_candled use."""
    return _mask_to_tuple(_closure_mask(g, 1 << u | 1 << v))


def test_smallest_module_examples():
    p4 = U.path_graph(4)
    assert closure(p4, 0, 1) == (0, 1, 2, 3)
    assert closure(p4, 0, 3) == (0, 1, 2, 3)
    dia = U.pattern("diamond")
    assert closure(dia, 0, 3) == (0, 3)
    assert closure(U.complete_graph(4), 1, 2) == (1, 2)


def test_smallest_module_is_always_homogeneous(rng):
    for _ in range(80):
        n = rng.randint(2, 9)
        g = random_graph(rng, n, rng.choice((0.2, 0.5, 0.8)))
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        members = closure(g, u, v)
        assert u in members and v in members
        assert is_homogeneous(g, members)


def test_homogeneous_set_witness_fields():
    dia = U.pattern("diamond")
    hs = U.find_nontrivial_homogeneous_set(dia)
    assert hs == (0, 1, 3)
    assert is_homogeneous(dia, hs)


def test_prime_graphs_have_no_witness():
    for g in (U.path_graph(4), U.cycle_graph(5), U.pattern("bull"), Graph(1)):
        assert U.find_nontrivial_homogeneous_set(g) is None


def test_homogeneous_witness_is_sound_on_random_graphs(rng):
    found = 0
    for _ in range(120):
        g = random_graph(rng, rng.randint(2, 8), rng.choice((0.3, 0.6)))
        hs = U.find_nontrivial_homogeneous_set(g)
        if hs is None:
            continue
        found += 1
        assert 2 <= len(hs) < g.n and hs == tuple(sorted(set(hs)))
        assert is_homogeneous(g, hs)
    assert found > 30


def test_module_existence_is_complement_invariant(census):
    for n, reps in census.items():
        for g in reps:
            a = U.find_nontrivial_homogeneous_set(g)
            b = U.find_nontrivial_homogeneous_set(g.complement())
            assert (a is None) == (b is None), U.to_graph6(g)


def test_simplicial_and_antisimplicial():
    assert U.find_simplicial_vertex(U.path_graph(4)) == 0
    assert U.find_simplicial_vertex(Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])) == 0
    assert U.find_simplicial_vertex(Graph(4, [(0, 1), (0, 2), (0, 3)])) == 1
    assert U.find_simplicial_vertex(U.cycle_graph(5)) is None
    assert U.find_simplicial_vertex(U.complete_graph(3)) == 0
    assert U.find_simplicial_vertex(U.edgeless_graph(3)) == 0


def test_twin_detection():
    dia = U.pattern("diamond")
    assert U.find_nonadjacent_twins(dia) == (0, 3)
    assert U.find_adjacent_simplicial_twins(dia) is None
    assert U.find_adjacent_simplicial_twins(U.complete_graph(3)) == (0, 1)
    assert U.find_adjacent_simplicial_twins(U.cycle_graph(4)) is None
    assert U.find_nonadjacent_twins(U.path_graph(4)) is None
    assert U.find_nonadjacent_twins(U.cycle_graph(4)) is not None


def test_mask_kernels_match_the_finders_on_induced_subgraphs(census):
    """For every census graph up to n=6 and every vertex mask, the kernels
    answer in g's labels what the finders answer on g.induced(mask)."""
    for n in range(7):
        for g in census[n]:
            for mask in range(1 << n):
                keep = [v for v in range(n) if mask >> v & 1]
                sub = g.induced(keep)
                v = U.find_simplicial_vertex(sub)
                assert _simplicial_in(g.adj, mask) == (None if v is None else keep[v])
                tw = U.find_nonadjacent_twins(sub)
                expect = None if tw is None else (keep[tw[0]], keep[tw[1]])
                assert _nonadjacent_twins_in(g.adj, mask) == expect, U.to_graph6(g)


def test_adjacent_simplicial_twins_are_what_they_claim(rng):
    hits = 0
    for _ in range(150):
        g = random_graph(rng, rng.randint(2, 8), rng.choice((0.3, 0.7, 0.9)))
        tw = U.find_adjacent_simplicial_twins(g)
        if tw is None:
            continue
        hits += 1
        u, v = tw
        assert u < v and g.has_edge(u, v)
        nu, nv = closed_neighbourhood(g, u), closed_neighbourhood(g, v)
        assert nu == nv
        assert all(g.has_edge(a, b) for a in nu for b in nu if a < b)
    assert hits > 20


def test_anti_simplicial_twins_are_the_complements_simplicial_twins(census, rng):
    """Read off g's rows, the pair is the adjacent simplicial twins of g's
    complement, on the census up to seven vertices and on random graphs."""
    graphs = [g for n in range(8) for g in census[n]]
    graphs += [random_graph(rng, rng.randint(2, 14), rng.random()) for _ in range(300)]
    hits = 0
    for g in graphs:
        pair = _anti_simplicial_twins(g)
        assert pair == U.find_adjacent_simplicial_twins(g.complement()), U.to_graph6(g)
        hits += pair is not None
    assert 100 < hits < len(graphs) - 100


def test_prime_uncluttered_filter_implies_no_module(uncluttered_census):
    """Reachable connected cases with no twin exits have no module at all.

    Exhaustive over the census: uncluttered, connected both ways, no
    adjacent simplicial twins on either side, neither side candled.
    """
    checked = 0
    for n in range(2, 7):
        for g in uncluttered_census[n]:
            gc = g.complement()
            if not (g.is_connected() and gc.is_connected()):
                continue
            if U.find_adjacent_simplicial_twins(g) or U.find_adjacent_simplicial_twins(gc):
                continue
            if exhaustive_candled(g) or exhaustive_candled(gc):
                continue
            checked += 1
            assert U.find_nontrivial_homogeneous_set(g) is None, U.to_graph6(g)
    assert checked == 15
