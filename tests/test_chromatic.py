import hashlib
import io
import itertools
import random

import pytest

import uncluttered as U
from uncluttered import Graph, InputError, NotUnclutteredError

import uncluttered.chromatic as C
from uncluttered.chromatic import _compress, _cover_colors, _max_matching
from uncluttered.cli import main
from uncluttered.graph import _mask_to_tuple
from uncluttered.modular import _nonadjacent_twins_in, _simplicial_in
from uncluttered.patterns import _parts
from uncluttered.structure import _line_root

from oracles import (
    compose_candled,
    naive_matching_number,
    random_candelabrum,
    random_connected_triangle_free,
    random_graph,
)

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


def _pairwise_adjacent(g, vs):
    return all(g.has_edge(u, v) for u, v in itertools.combinations(vs, 2))


def naive_clique_size(g):
    best = 0
    for r in range(g.n, 0, -1):
        for sub in itertools.combinations(range(g.n), r):
            if _pairwise_adjacent(g, sub):
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
                assert _pairwise_adjacent(g, q)
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
    p4 = U.path_graph(4)
    assert U.is_proper_edge_coloring(p4, {(0, 1): 0, (1, 2): 1, (2, 3): 0})
    assert not U.is_proper_edge_coloring(p4, {(0, 1): 1, (1, 2): 0, (2, 3): 0})


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


# SHA-256 of one "sorted assignment, palette size" line per graph below,
# taken when the fan construction still kept a second, edge-keyed index.
VIZING_SHA256 = "40c8340149b5bd9c54b4d209d5e9938ecc7e4f89128ce6f1399a48db108e5edd"


def test_vizing_assignments_are_frozen(census, rng):
    """Every edge keeps its color on seeded random graphs with n <= 14,
    seeded triangle-free roots with up to 40 vertices, and the census n <= 6."""
    graphs = [random_graph(rng, rng.randint(1, 14), rng.random()) for _ in range(200)]
    graphs += [random_connected_triangle_free(rng, rng.randint(2, 40)) for _ in range(100)]
    graphs += [g for n in range(7) for g in census[n]]
    lines = []
    for g in graphs:
        ec = U.vizing_edge_color(g)
        assert U.is_proper_edge_coloring(g, ec.assignment)
        lines.append(f"{sorted(ec.assignment.items())} {ec.num_colors}")
    assert len(lines) == 509
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == VIZING_SHA256


# SHA-256 of the same lines for the graphs below, taken before the fan kept
# its colors in flat lists of width max degree + 1.
WIDE_VIZING_SHA256 = "a3f97a60ea8928bf118ed3c37ae6fd728f012c5ad17cd960756f4772d3a438b8"


def test_vizing_assignments_are_frozen_at_the_index_width():
    """The star K1,63, the 65-vertex root of the path on 64 vertices, a
    dense bipartite graph and K33 (both of max degree 32) keep every color,
    within max degree + 1 colors; K33 needs all of them."""
    p64 = U.path_graph(64)
    rng = random.Random(32)
    graphs = [
        Graph(64, [(0, i) for i in range(1, 64)]),
        Graph.from_rows(_line_root(p64.adj, p64.full_mask)[0]),
        Graph(64, [(a, b) for a in range(32) for b in range(32, 64)
                   if a == 0 or rng.random() < 0.75]),
        U.complete_graph(33),
    ]
    lines = []
    for g in graphs:
        ec = U.vizing_edge_color(g)
        delta = max(g.degree(v) for v in range(g.n))
        assert U.is_proper_edge_coloring(g, ec.assignment)
        assert ec.num_colors <= delta + 1
        lines.append(f"{sorted(ec.assignment.items())} {ec.num_colors}")
    assert [g.n for g in graphs] == [64, 65, 64, 33] and ec.num_colors == 33
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == WIDE_VIZING_SHA256


def test_cover_coloring_frozen_values():
    # the co-line leaf's raw colors and omega, read off the private kernels
    cases = [
        (U.path_graph(3), (0, 1), 2, 1),
        (U.cycle_graph(5), (0, 0, 1, 2, 3), 4, 2),
        (U.cycle_graph(7), (0, 0, 1, 2, 3, 4, 5), 6, 3),
        (U.path_graph(5), (0, 1, 2, 3), 4, 2),
    ]
    for root, colors, num, omega in cases:
        c = tuple(_compress(_cover_colors(root.adj, root.edges())))
        assert c == colors
        assert max(c) + 1 == num and _max_matching(root.adj) == omega
        assert U.is_proper_coloring(U.line_graph(root).complement(), c)
        assert num <= 2 * omega


def test_cover_coloring_random_roots(rng, monkeypatch):
    leaves = []  # one entry per co-line leaf the colourer reaches

    def counting(rows):
        leaves.append(rows)
        return _max_matching(rows)

    monkeypatch.setattr(C, "_max_matching", counting)
    for _ in range(40):
        root = random_connected_triangle_free(rng, rng.randint(2, 9))
        target = U.line_graph(root).complement()
        c = U.color_uncluttered(target)
        assert U.is_proper_coloring(target, c.colors)
        assert c.num_colors <= 2 * c.omega_used
        assert c.omega_used == U.clique_number(target)
    assert len(leaves) >= 10  # the others split before reaching the leaf
    # 64 vertices: omega is the maximum matching of K8,8
    k88 = Graph(16, [(a, b) for a in range(8) for b in range(8, 16)])
    target = U.line_graph(k88).complement()
    reached = len(leaves)
    c = U.color_uncluttered(target)
    assert len(leaves) == reached + 1
    assert target.n == 64 and c.omega_used == 8
    assert U.is_proper_coloring(target, c.colors) and c.num_colors <= 16


def _shuffled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[a], perm[b]) for a, b in g.edges()])


def test_max_matching_agrees_with_exhaustive_search(rng):
    """Odd cycles, the Petersen graph and two pentagons joined by a path,
    each under seeded relabellings so that the greedy start leaves
    augmenting paths through blossoms, then small triangle-free roots."""
    pentagons = Graph(12, [(i, (i + 1) % 5) for i in range(5)]
                      + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
                      + [(0, 10), (10, 11), (11, 5)])
    cases = [(U.cycle_graph(5), 2), (U.cycle_graph(7), 3),
             (U.from_graph6(PETERSEN), 5), (pentagons, 6)]
    for g, nu in cases:
        assert naive_matching_number(g) == nu
        for _ in range(30):
            h = _shuffled(rng, g)
            assert _max_matching(h.adj) == nu, U.to_graph6(h)
    roots = 0
    while roots < 150:
        root = random_connected_triangle_free(rng, rng.randint(2, 10))
        if root.edge_count() > 12:
            continue
        roots += 1
        assert _max_matching(root.adj) == naive_matching_number(root), U.to_graph6(root)
    assert _max_matching(()) == 0
    assert _max_matching(Graph(3).adj) == 0


def test_max_matching_is_the_clique_number_of_the_co_line_graph(rng):
    """A clique of the complement of L(H) is a set of disjoint edges of H."""
    roots = 0
    while roots < 40:
        root = random_connected_triangle_free(rng, rng.randint(4, 24))
        if root.edge_count() > 40:
            continue
        roots += 1
        target = U.line_graph(root).complement()
        assert _max_matching(root.adj) == U.clique_number(target), U.to_graph6(root)


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
    """Every uncluttered graph up to n=7: proper, contiguous palette, at most
    twice the true clique number, and the reported omega is the true one."""
    for n in range(8):
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


def _line_member(rng, m):
    """Line graph of m edges of a random triangle-free graph."""
    while True:
        root = random_connected_triangle_free(rng, rng.randint(m // 2 + 2, m + 1))
        if root.edge_count() >= m:
            return U.line_graph(Graph(root.n, rng.sample(root.edges(), m)))


def _member(rng, n_max):
    """A member with at most n_max vertices: a line graph, a co-line graph,
    a candled composition, or a union or join of two of these."""
    kind = rng.choice(("line", "co-line", "candled", "union", "join")
                      if n_max >= 12 else ("line", "co-line"))
    if kind == "line":
        return _line_member(rng, rng.randint(3, n_max))
    if kind == "co-line":
        return _line_member(rng, rng.randint(3, n_max)).complement()
    if kind == "candled":
        cand, _, zs = random_candelabrum(rng, max_k=3, max_part=3)
        rest = _line_member(rng, rng.randint(3, max(3, n_max - cand.n)))
        g = compose_candled(rest, cand, [v for z in zs for v in z])
        return g if g.n <= n_max else _member(rng, n_max)
    split = rng.randint(6, n_max - 6)
    left, right = _member(rng, split), _member(rng, n_max - split)
    return (U.disjoint_union if kind == "union" else U.complete_join)(left, right)


def _large_members(rng, count):
    out = []
    while len(out) < count:
        g = _member(rng, 40)
        if g.n >= 11:
            out.append(_shuffled(rng, g))
    return out


def test_color_uncluttered_omega_on_large_members(rng):
    """On seeded, relabelled members with 11-40 vertices, the omega read off
    the coloring recursion equals the exact clique number."""
    for g in _large_members(rng, 300):
        c = U.color_uncluttered(g)
        assert c.omega_used == U.clique_number(g), U.to_graph6(g)
        assert U.is_proper_coloring(g, c.colors)
        assert c.num_colors <= 2 * c.omega_used


def test_color_uncluttered_runs_no_clique_search(uncluttered_census, rng, monkeypatch):
    def refuse(g):
        raise AssertionError("clique search called")

    graphs = [g for n in range(8) for g in uncluttered_census[n]]
    graphs += _large_members(rng, 30)
    expected = [U.color_uncluttered(g) for g in graphs]
    monkeypatch.setattr(U.chromatic, "clique_number", refuse)
    monkeypatch.setattr(U.chromatic, "max_clique", refuse)
    assert [U.color_uncluttered(g) for g in graphs] == expected


def _color_outcome(g):
    """The coloring of g, or the witness color_uncluttered refuses it with."""
    try:
        return U.color_uncluttered(g)
    except NotUnclutteredError as exc:
        return exc.witness


def _near_members(rng, members):
    """Each member with one more vertex, joined to each vertex with
    probability 0.3; most hold a fork or an antifork."""
    return [Graph(g.n + 1, g.edges() + [(v, g.n) for v in range(g.n) if rng.random() < 0.3])
            for g in members]


def test_colorer_skips_only_sweeps_its_caller_has_proven(census, rng, monkeypatch):
    """Each part the colorer is told is a member holds no fork or antifork,
    and each part it is told is connected, or co-connected, is so; and
    dropping those facts, so that every part is swept twice and searched
    once it is connected and co-connected, gives the same colorings and
    witnesses on the census, on large members and on near-members."""
    graphs = [g for n in range(8) for g in census[n]]
    large = _large_members(rng, 30)
    graphs += large + _near_members(rng, large)
    expected = [_color_outcome(g) for g in graphs]
    assert sum(isinstance(out, U.PatternWitness) for out in expected) > 100
    color_on = C._color_on
    told = {True: 0, False: 0}
    proven = {True: 0, False: 0}

    def checking(g, within, cols, base, member, connected=False, anticonnected=False):
        h = g.induced(_mask_to_tuple(within))
        assert not member or U.is_uncluttered(h) is None
        assert not connected or h.is_connected()
        assert not anticonnected or h.is_anticonnected()
        told[member] += 1
        proven[connected] += 1
        proven[anticonnected] += 1
        return color_on(g, within, cols, base, member, connected, anticonnected)

    monkeypatch.setattr(C, "_color_on", checking)
    assert [_color_outcome(g) for g in graphs] == expected
    assert min(told.values()) > 100 and min(proven.values()) > 100, (told, proven)
    monkeypatch.setattr(C, "_color_on", lambda g, within, cols, base, *proven:
                        color_on(g, within, cols, base, False))
    assert [_color_outcome(g) for g in graphs] == expected


# The connected regression IT}w@o|nw on vertices 0..9, beside a fork.
REGRESSION_BESIDE_FORK = "NT}w@o|nw??@?@??_?_"


def test_colorer_refuses_a_fork_found_after_coloring_a_part(monkeypatch, capsys):
    """The colorer colors the regression, then meets the fork beside it and
    raises the least witness of the whole input; in the complement the hit
    lies inside an anticomponent.  The CLI prints the witness line that
    decompose prints."""
    g = U.from_graph6(REGRESSION_BESIDE_FORK)
    assert U.color_uncluttered(g.induced(range(10))).num_colors > 0
    with pytest.raises(NotUnclutteredError) as exc:
        U.color_uncluttered(g)
    assert exc.value.witness == U.PatternWitness("fork", (10, 11, 12, 13, 14))
    gc = g.complement()
    assert not gc.is_anticonnected()
    with pytest.raises(NotUnclutteredError) as exc:
        U.color_uncluttered(gc)
    assert exc.value.witness == U.is_uncluttered(gc)
    lines = {}
    for cmd in ("color", "decompose"):
        monkeypatch.setattr("sys.stdin", io.StringIO(REGRESSION_BESIDE_FORK + "\n"))
        assert main([cmd]) == 0
        lines[cmd] = capsys.readouterr().out
    assert lines["color"] == lines["decompose"] == (
        '{"graph6":"NT}w@o|nw??@?@??_?_","uncluttered":false,'
        '"witness":{"pattern":"fork","embedding":[10,11,12,13,14]}}\n')


def test_colorer_searches_each_membership_part_once(uncluttered_census, rng, monkeypatch):
    """On members, the public colorer runs the fork and antifork searches
    once on each part that membership decides (patterns._parts), and the
    audit's _color_member runs them on none."""
    graphs = [g for n in range(5, 8) for g in uncluttered_census[n]]
    graphs += _large_members(rng, 30)
    searched = []
    holds = C._holds_fork_or_antifork

    def recording(adj, part):
        searched.append(part)
        return holds(adj, part)

    monkeypatch.setattr(C, "_holds_fork_or_antifork", recording)
    for g in graphs:
        searched.clear()
        coloring = U.color_uncluttered(g)
        assert sorted(searched) == sorted(_parts(g.adj, g.full_mask, g.full_mask))
        searched.clear()
        assert C._color_member(g) == coloring and searched == []


def _tree_nodes(tree):
    yield tree
    for child in tree.children:
        yield from _tree_nodes(child)


def _candled_compositions(rng, pool, count):
    """Candelabra joined to a census member, relabelled and complemented
    half the time; the few that classify misses are left out."""
    out = []
    for _ in range(count):
        cand, _, zs = random_candelabrum(rng, max_k=4, max_part=3)
        g = _shuffled(rng, compose_candled(pool[rng.randrange(len(pool))], cand,
                                           [v for z in zs for v in z]))
        g = g.complement() if rng.random() < 0.5 else g
        try:
            out.append(U.decomposition_tree(g))
        except U.TheoremViolationError:
            pass
    return out


def test_color_on_has_a_rule_for_every_case(uncluttered_census, rng):
    """On every connected, co-connected decomposition tree node of the
    census members and of seeded candled compositions (the census has no
    such candled node), the node's case leaves the colorer one of its
    rules: the rule its docstring names for that case hits."""
    pool = [g for n in range(8) for g in uncluttered_census[n]]
    trees = [U.decomposition_tree(g) for g in pool]
    trees += _candled_compositions(rng, pool, 120)
    seen = {}
    for node in (node for tree in trees for node in _tree_nodes(tree)):
        h = node.graph
        if not (h.n > 1 and h.is_connected() and h.is_anticonnected()):
            continue
        case, payload = node.certificate
        full = h.full_mask
        if case == "SIMPLICIAL_TWINS":
            rule = "simplicial"
        elif case == "ANTI_SIMPLICIAL_TWINS":
            rule = "twins"
        elif case.endswith("LINEGRAPH_TF"):
            rule = "line"
        else:
            st = payload.candelabrum
            parts = st.stable_parts if case == "CANDLED" else st.clique_parts
            rule = "twins" if any(len(p) > 1 for p in parts) else "simplicial"
        if rule == "simplicial":
            assert _simplicial_in(h.adj, full) is not None, U.to_graph6(h)
        elif rule == "twins":
            assert _nonadjacent_twins_in(h.adj, full) is not None, U.to_graph6(h)
        else:
            co_rows = [full & ~r & ~(1 << v) for v, r in enumerate(h.adj)]
            assert (_line_root(h.adj, full) or _line_root(co_rows, full)) is not None
        seen[case, rule] = seen.get((case, rule), 0) + 1
    assert sorted(seen) == [
        ("ANTI_CANDLED", "simplicial"), ("ANTI_CANDLED", "twins"),
        ("ANTI_LINEGRAPH_TF", "line"), ("ANTI_SIMPLICIAL_TWINS", "twins"),
        ("CANDLED", "simplicial"), ("CANDLED", "twins"),
        ("LINEGRAPH_TF", "line"), ("SIMPLICIAL_TWINS", "simplicial")]
    assert min(seen.values()) >= 10, seen
