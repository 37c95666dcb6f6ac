import hashlib
import itertools

import pytest

import uncluttered as U
from uncluttered import Graph, InputError, NotUnclutteredError

from oracles import random_graph

PETERSEN = "IheA@GUAo"


def mycielski(g):
    """Twin each vertex against an apex; raises chi by one, keeps omega at 2."""
    n = g.n
    edges = list(g.edges())
    for u, v in g.edges():
        edges.append((u, n + v))
        edges.append((v, n + u))
    for i in range(n):
        edges.append((n + i, 2 * n))
    return Graph(2 * n + 1, edges)


def naive_clique_size(g):
    best = 0
    for r in range(g.n, 0, -1):
        for sub in itertools.combinations(range(g.n), r):
            if U.is_clique(g, sub):
                return r
    return best


def naive_chromatic(g):
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        for assign in itertools.product(range(k), repeat=g.n):
            if all(assign[u] != assign[v] for u, v in g.edges()):
                return k
    raise AssertionError("unreachable")


def test_max_clique_is_a_maximum_clique(census):
    for n in range(7):
        for g in census[n]:
            q = U.max_clique(g)
            if n:
                assert U.is_clique(g, q)
            assert len(q) == naive_clique_size(g)
            assert U.max_clique(g) == q
    assert U.max_clique(Graph(0)) == ()
    assert U.clique_number(U.complete_graph(6)) == 6
    assert U.max_clique(U.pattern("diamond")) == (1, 2, 3)


def test_exact_chromatic_number_matches_brute_force(census):
    for n in range(6):
        for g in census[n]:
            assert U.chromatic_number_exact(g) == naive_chromatic(g), U.to_graph6(g)


def test_exact_chromatic_frozen_values():
    pet = U.from_graph6(PETERSEN)
    assert (pet.n, pet.edge_count()) == (10, 15)
    assert U.clique_number(pet) == 2
    assert U.chromatic_number_exact(pet) == 3
    assert U.clique_number(pet.complement()) == 4
    assert U.chromatic_number_exact(pet.complement()) == 5
    grotzsch = mycielski(U.cycle_graph(5))
    assert (grotzsch.n, grotzsch.edge_count()) == (11, 20)
    assert U.clique_number(grotzsch) == 2
    assert U.chromatic_number_exact(grotzsch) == 4
    assert U.chromatic_number_exact(Graph(0)) == 0
    assert U.chromatic_number_exact(Graph(16)) == 1


# SHA-256 of the comma-joined exact chromatic numbers of the census n = 1..7,
# in census order, taken before the search moved onto colour-class masks.
CENSUS_CHI_SHA256 = "76e1c797e696c2988f08feaae69f36a9c7d81b5402dcdfc93c017f62bd1699ac"


def test_exact_chromatic_census_values_are_frozen(census):
    line = ",".join(str(U.chromatic_number_exact(g))
                    for n in range(1, 8) for g in census[n])
    assert hashlib.sha256(line.encode()).hexdigest() == CENSUS_CHI_SHA256


def test_exact_chromatic_size_cap():
    with pytest.raises(InputError):
        U.chromatic_number_exact(Graph(17))


def test_proper_coloring_predicates():
    p3 = U.path_graph(3)
    assert U.is_proper_coloring(p3, (0, 1, 0))
    assert not U.is_proper_coloring(p3, (0, 0, 1))
    assert not U.is_proper_coloring(p3, (0, 1))
    ec = U.vizing_edge_color(p3)
    assert U.is_proper_edge_coloring(p3, ec.assignment)
    assert not U.is_proper_edge_coloring(p3, {(0, 1): 0, (1, 2): 0})
    assert not U.is_proper_edge_coloring(p3, {(0, 1): 0})
    assert not U.is_proper_edge_coloring(p3, {(0, 1): 0, (1, 2): 1, (0, 2): 2})


def test_edge_coloring_frozen_palettes():
    star = Graph(5, [(0, i) for i in range(1, 5)])
    cases = [
        (U.path_graph(4), 3),
        (U.cycle_graph(5), 3),
        (U.cycle_graph(6), 3),
        (star, 4),
        (U.complete_graph(4), 4),
        (U.from_graph6(PETERSEN), 4),
        (U.edgeless_graph(3), 0),
    ]
    for g, palette in cases:
        ec = U.vizing_edge_color(g)
        assert ec.num_colors == palette
        assert U.is_proper_edge_coloring(g, ec.assignment)


def test_edge_coloring_random_graphs(rng):
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 11), rng.random())
        ec = U.vizing_edge_color(g)
        assert U.is_proper_edge_coloring(g, ec.assignment)
        delta = max((g.degree(v) for v in range(g.n)), default=0)
        assert ec.num_colors <= delta + 1
        used = set(ec.assignment.values())
        assert used == set(range(len(used)))


def test_cover_coloring_frozen_values():
    cases = [
        (U.path_graph(3), (0, 1), 2, 1),
        (U.cycle_graph(5), (0, 0, 1, 2, 3), 4, 2),
        (U.cycle_graph(7), (0, 0, 1, 2, 3, 4, 5), 6, 3),
        (U.path_graph(5), (0, 1, 2, 3), 4, 2),
    ]
    for root, colors, num, omega in cases:
        c = U.cover_color_complement_line(root)
        assert c.colors == colors
        assert c.num_colors == num and c.omega_used == omega
        target = U.line_graph(root).complement()
        assert U.is_proper_coloring(target, c.colors)
        assert c.num_colors <= 2 * c.omega_used


def test_cover_coloring_random_roots(rng):
    from oracles import random_connected_triangle_free
    for _ in range(40):
        root = random_connected_triangle_free(rng, rng.randint(2, 9))
        c = U.cover_color_complement_line(root)
        target = U.line_graph(root).complement()
        assert U.is_proper_coloring(target, c.colors)
        assert c.num_colors <= 2 * c.omega_used
        assert c.omega_used == U.clique_number(target)


def test_cover_coloring_input_checks():
    with pytest.raises(InputError):
        U.cover_color_complement_line(U.edgeless_graph(2))
    with pytest.raises(InputError):
        U.cover_color_complement_line(U.complete_graph(3))


def test_color_uncluttered_known_graphs():
    c = U.color_uncluttered(U.cycle_graph(5))
    assert c.colors == (0, 1, 2, 0, 2)
    assert c.num_colors == 3 and c.omega_used == 2
    assert c.to_json_dict() == {"colors": [0, 1, 2, 0, 2],
                                "num_colors": 3, "omega": 2}
    assert U.color_uncluttered(Graph(0)).colors == ()
    assert U.color_uncluttered(Graph(0)).num_colors == 0
    c = U.color_uncluttered(U.complete_graph(5))
    assert sorted(c.colors) == [0, 1, 2, 3, 4]
    # the two ratio extremes of the whole theory
    for cycle, chi in ((5, 3), (7, 4)):
        g = U.line_graph(U.cycle_graph(cycle)).complement()
        c = U.color_uncluttered(g)
        assert U.is_proper_coloring(g, c.colors)
        assert c.num_colors <= 2 * c.omega_used
        assert U.chromatic_number_exact(g) == chi


def test_color_uncluttered_rejects_cluttered_input():
    with pytest.raises(NotUnclutteredError) as exc:
        U.color_uncluttered(U.pattern("fork"))
    assert exc.value.witness.pattern_name == "fork"
    with pytest.raises(NotUnclutteredError):
        U.color_uncluttered(U.pattern("antifork"))


def test_color_uncluttered_census_sweep(uncluttered_census):
    """Every uncluttered graph up to n=6: proper, contiguous palette, at most
    twice the true clique number, and the reported omega is the true one."""
    for n in range(7):
        for g in uncluttered_census[n]:
            c = U.color_uncluttered(g)
            assert U.is_proper_coloring(g, c.colors), U.to_graph6(g)
            used = set(c.colors)
            assert used == set(range(c.num_colors))
            omega = U.clique_number(g)
            assert c.omega_used == omega
            assert c.num_colors <= 2 * omega or n == 0
            assert U.color_uncluttered(g) == c


# SHA-256 of one "graph6 colors" line per uncluttered census graph, n <= 7,
# taken before the colorer moved onto vertex masks.
CENSUS_COLORS_SHA256 = "f24f5aa86bc46d7f1d1c3ef4d759c777e79e3d9f9535f7b9d18b8812c0128abd"


def test_color_uncluttered_census_colors_are_frozen(uncluttered_census):
    lines = [f"{U.to_graph6(g)} {','.join(map(str, U.color_uncluttered(g).colors))}"
             for n in range(8) for g in uncluttered_census[n]]
    assert len(lines) == 545
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == CENSUS_COLORS_SHA256
