import hashlib
import itertools
import random

import pytest

import uncluttered as U
from uncluttered import Graph, InputError, structure
from uncluttered.graph import _mask_to_tuple, invariant_key
from uncluttered.modular import find_adjacent_simplicial_twins
from uncluttered.structure import (
    RootGraph,
    _candelabrum_on,
    _line_root,
    is_line_graph_of_bipartite,
)

from oracles import (
    compose_candled,
    exhaustive_candled,
    oracle_verify_candled,
    oracle_candelabrum_with_base,
    oracle_is_candelabrum,
    random_candelabrum,
    random_connected_triangle_free,
    random_graph,
    sorted_krausz_root,
    triangle_free_rootless_by_edges,
)


def test_triangle_witnesses():
    assert U.is_triangle_free(U.complete_graph(3)) == (0, 1, 2)
    assert U.is_triangle_free(U.pattern("diamond")) == (0, 1, 2)
    assert U.is_triangle_free(U.cycle_graph(5)) is None
    assert U.is_triangle_free(Graph(0)) is None


def test_line_graph_shapes():
    assert U.line_graph(U.path_graph(4)) == U.path_graph(3)
    assert U.line_graph(U.pattern("claw")) == U.complete_graph(3)
    assert U.are_isomorphic(U.line_graph(U.cycle_graph(5)), U.cycle_graph(5))
    assert U.line_graph(U.complete_graph(2)) == Graph(1)
    # vertices with no edge contribute nothing
    assert U.line_graph(Graph(3, [(0, 2)])) == Graph(1)
    with pytest.raises(InputError):
        U.line_graph(U.edgeless_graph(3))
    # K12 has 66 edges, over the 64-vertex cap
    assert U.line_graph(U.complete_graph(11)).n == 55
    with pytest.raises(InputError):
        U.line_graph(U.complete_graph(12))


def test_recognizer_on_known_hosts():
    rg = U.recognize_line_graph_triangle_free(U.path_graph(3))
    assert U.are_isomorphic(rg.root, U.path_graph(4))
    assert U.verify_root(U.path_graph(3), rg)

    # a triangle host forces the star root, never the triangle root
    rg = U.recognize_line_graph_triangle_free(U.complete_graph(3))
    assert U.are_isomorphic(rg.root, U.pattern("claw"))
    assert U.is_triangle_free(rg.root) is None

    rg = U.recognize_line_graph_triangle_free(U.cycle_graph(5))
    assert U.are_isomorphic(rg.root, U.cycle_graph(5))

    # isolated host vertices become disjoint root edges
    rg = U.recognize_line_graph_triangle_free(U.edgeless_graph(2))
    assert rg.root.n == 4 and rg.root.edges() == [(0, 1), (2, 3)]

    rg = U.recognize_line_graph_triangle_free(Graph(0))
    assert rg.root == Graph(0) and rg.edge_map == ()
    assert U.verify_root(Graph(0), rg)

    assert U.recognize_line_graph_triangle_free(U.pattern("claw")) is None
    assert U.recognize_line_graph_triangle_free(U.pattern("diamond")) is None


def test_verify_root_rejects_corruption():
    host = U.cycle_graph(5)
    rg = U.recognize_line_graph_triangle_free(host)
    assert U.verify_root(host, rg)
    em = list(rg.edge_map)
    em[0], em[1] = em[1], em[0]
    assert not U.verify_root(host, RootGraph(rg.root, tuple(em)))
    assert not U.verify_root(host, RootGraph(rg.root, rg.edge_map[:-1]))
    assert not U.verify_root(U.path_graph(5), rg)
    # two host vertices on one root edge: the line-graph rows alone would match
    p3 = U.path_graph(3)
    assert not U.verify_root(U.complete_graph(2), RootGraph(p3, ((0, 1), (0, 1))))
    assert U.verify_root(U.complete_graph(2), RootGraph(p3, ((0, 1), (1, 2))))
    # list entries are read like tuples, and a non-edge entry is refused
    assert U.verify_root(host, RootGraph(rg.root, tuple(map(list, rg.edge_map)))) is True
    assert U.verify_root(U.complete_graph(2), RootGraph(p3, ([0, 1], [0, 1]))) is False
    assert not U.verify_root(U.complete_graph(2), RootGraph(p3, ((0, 1), (0, 2))))
    assert not U.verify_root(U.complete_graph(2), RootGraph(p3, ((0, 1), (2, 1))))
    # malformed shapes give False: a 3-tuple edge, a None edge, an int edge
    # map, a root of None, no RootGraph at all
    for rg in (RootGraph(p3, ((0, 1, 2), (1, 2))), RootGraph(p3, (None, (1, 2))),
               RootGraph(p3, 2), RootGraph(None, ((0, 1), (1, 2))), None):
        assert U.verify_root(U.complete_graph(2), rg) is False


def test_recognizer_round_trips_random_roots(rng):
    for _ in range(25):
        root = random_connected_triangle_free(rng, rng.randint(2, 10))
        host = U.line_graph(root)
        rg = U.recognize_line_graph_triangle_free(host)
        assert rg is not None
        assert U.verify_root(host, rg)
        assert U.is_triangle_free(rg.root) is None
        assert U.are_isomorphic(U.line_graph(rg.root), host)


def _relabelled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[a], perm[b]) for a, b in g.edges()])


def test_recognizer_numbers_cliques_as_sorting_them_does(rng):
    """Relabelled line graphs of random triangle-free roots with up to 64
    vertices, a third of them with one vertex pair toggled and a third
    with an isolated vertex added, and their complements: numbering each
    Krausz clique when first met gives the root and edge map that numbering
    them in sorted order gives, and the same rejections.  The recognizer
    does not recheck its roots, so each one accepted is checked here:
    verify_root accepts it and it has no triangle."""
    accepted = 0
    for _ in range(2000):
        root = random_connected_triangle_free(rng, rng.randint(2, 24))
        edges = root.edges()
        m = rng.randint(1, min(64, len(edges)))
        g = _relabelled(rng, U.line_graph(Graph(root.n, rng.sample(edges, m))))
        kind = rng.randrange(3)
        if kind == 1 and g.n >= 2:
            u, v = rng.sample(range(g.n), 2)
            g = Graph(g.n, set(g.edges()) ^ {(min(u, v), max(u, v))})
        elif kind == 2 and g.n < 64:
            g = _relabelled(rng, Graph(g.n + 1, g.edges()))
        for h in (g, g.complement()):
            rg = U.recognize_line_graph_triangle_free(h)
            assert rg == sorted_krausz_root(h), U.to_graph6(h)
            if rg is not None:
                assert U.verify_root(h, rg), U.to_graph6(h)
                assert U.is_triangle_free(rg.root) is None, U.to_graph6(h)
                accepted += 1
    assert accepted >= 1000, accepted


def _masked_roots_agree(g, mask):
    """_line_root on g's rows, and on its complement's rows, within mask
    gives the root rows and edge map that the recognizer gives on
    g.induced(mask) and on that graph's complement; returns how many of
    the two were accepted."""
    h = g.induced(_mask_to_tuple(mask))
    co_rows = [mask & ~r & ~(1 << v) for v, r in enumerate(g.adj)]
    accepted = 0
    for rows, host in ((g.adj, h), (co_rows, h.complement())):
        rg = U.recognize_line_graph_triangle_free(host)
        found = _line_root(rows, mask)
        got = found and (tuple(found[0]), tuple(found[1]))
        assert got == (rg and (rg.root.adj, rg.edge_map)), (U.to_graph6(g), mask)
        accepted += found is not None
    return accepted


def test_masked_roots_match_the_recognizer_on_induced_subgraphs(rng):
    """The colourer reads a leaf's root off g's rows, or the complement's,
    within the leaf's mask: on seeded random graphs with 5..30 vertices
    and on shuffled line graphs of triangle-free roots and their
    complements with up to 64 vertices, some with one pair toggled, over
    random masks and the full one, the root and edge map are the
    recognizer's on the induced subgraph and on its complement."""
    accepted = tried = 0
    for _ in range(400):
        g = random_graph(rng, rng.randint(5, 30), rng.choice((0.05, 0.2, 0.5, 0.9)))
        for mask in (rng.getrandbits(g.n), g.full_mask):
            accepted += _masked_roots_agree(g, mask)
            tried += 2
    for m in range(5, 65):
        root = random_connected_triangle_free(rng, rng.randint(m // 2 + 1, m))
        edges = root.edges()
        g = _relabelled(rng, U.line_graph(Graph(root.n, rng.sample(edges, min(m, len(edges))))))
        u, v = sorted(rng.sample(range(g.n), 2))
        for h in (g, g.complement(), Graph(g.n, set(g.edges()) ^ {(u, v)})):
            for mask in (rng.getrandbits(h.n), h.full_mask):
                accepted += _masked_roots_agree(h, mask)
                tried += 2
    assert 500 <= accepted <= tried - 500, (accepted, tried)


def test_recognizer_matches_exhaustive_root_enumeration():
    """Decision agreement with brute-force root search, all hosts up to n=8.

    A host on n vertices is a line graph of a triangle-free root exactly when
    some triangle-free graph with n edges and no isolated vertices produces
    it; those roots are enumerable by edge count.
    """
    levels = triangle_free_rootless_by_edges(8)
    assert {m: len(v) for m, v in levels.items()} == {
        1: 1, 2: 2, 3: 4, 4: 9, 5: 19, 6: 45, 7: 105, 8: 267}
    for n in range(1, 9):
        line_keys = {invariant_key(U.line_graph(root)) for root in levels[n]}
        for host in U.enumerate_graphs(n):
            got = U.recognize_line_graph_triangle_free(host) is not None
            assert got == (invariant_key(host) in line_keys), U.to_graph6(host)


def test_recognizer_accepts_exactly_the_claw_and_diamond_free_census(census):
    for n in range(8):
        for g in census[n]:
            rg = U.recognize_line_graph_triangle_free(g)
            want = not (U.has_induced(g, "claw") or U.has_induced(g, "diamond"))
            assert (rg is not None) == want, U.to_graph6(g)
            if rg is not None:
                assert U.verify_root(g, rg)
                assert U.is_triangle_free(rg.root) is None


def test_census_structure_outputs_are_frozen(census):
    """SHA-256 of the line-graph root, the candelabrum and the candled
    decomposition found on every census graph with n <= 7 and its complement."""
    def parts(st):
        return None if st is None else (st.clique_parts, st.stable_parts)
    lines = []
    for n in range(8):
        for g in census[n]:
            for h in (g, g.complement()):
                rg = U.recognize_line_graph_triangle_free(h)
                dec = U.detect_candled(h)
                lines.append(f"{U.to_graph6(h)} {rg and (rg.root.adj, rg.edge_map)} "
                             f"{parts(U.recognize_candelabrum(h))} "
                             f"{dec and (parts(dec.candelabrum), dec.rest)}")
    assert len(lines) == 2506
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "9bb5ae1c7c9d8ab84da7161da9ce410d419686fd30ede1da148a941774778f9e")


def test_bipartite_root_refinement():
    assert is_line_graph_of_bipartite(U.complete_graph(3))
    assert is_line_graph_of_bipartite(U.cycle_graph(6))
    assert not is_line_graph_of_bipartite(U.cycle_graph(5))
    assert not is_line_graph_of_bipartite(U.pattern("diamond"))


def is_candelabrum(g, clique_parts, stable_parts):
    """verify_candled on the candelabrum with these parts and an empty rest."""
    st = U.CandelabrumStructure(clique_parts, stable_parts)
    return U.verify_candled(g, U.CandledDecomposition(st, ()))


def test_check_candelabrum_accepts_and_rejects():
    k2 = U.complete_graph(2)
    assert is_candelabrum(k2, ((0,),), ((1,),))
    assert not is_candelabrum(k2.complement(), ((0,),), ((1,),))
    p3 = U.path_graph(3)
    assert is_candelabrum(p3, ((1,),), ((0, 2),))
    assert not is_candelabrum(p3, ((0, 2),), ((1,),))
    two_pairs = Graph(6, [(0, 1), (2, 3), (1, 3), (1, 4), (3, 5), (4, 5)])
    assert is_candelabrum(two_pairs, ((0, 1), (2, 3)), ((4,), (5,))) is False


def test_recognize_candelabrum_examples():
    cs = U.recognize_candelabrum(U.complete_graph(2))
    assert cs.clique_parts == ((0,),) and cs.stable_parts == ((1,),)
    cs = U.recognize_candelabrum(U.path_graph(3))
    assert cs.clique_parts == ((1,),) and cs.stable_parts == ((0, 2),)
    cs = U.recognize_candelabrum(U.complete_graph(3))
    assert cs.k == 1 and cs.base == (2,)
    assert U.recognize_candelabrum(U.cycle_graph(4)) is None
    assert U.recognize_candelabrum(U.cycle_graph(5)) is None
    assert U.recognize_candelabrum(Graph(1)) is None

    # a clique with one pendant leaf per vertex: each leaf is a one-vertex
    # candle over its own clique vertex
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    edges += [(i, 5 + i) for i in range(5)]
    spiky = Graph(10, edges)
    cs = U.recognize_candelabrum(spiky)
    assert cs.k == 5 and cs.base == (0, 1, 2, 3, 4)
    assert is_candelabrum(spiky, cs.clique_parts, cs.stable_parts)


def test_recognize_candelabrum_matches_base_scan(census):
    """Exhaustive comparison against trying every base subset, n <= 6."""
    for n in range(2, 7):
        for g in census[n]:
            got = U.recognize_candelabrum(g)
            want = oracle_is_candelabrum(g)
            assert (got is not None) == want, U.to_graph6(g)
            if got is not None:
                assert is_candelabrum(g, got.clique_parts, got.stable_parts)


def test_recognize_with_base_agrees_with_definition(census, rng):
    for _ in range(250):
        n = rng.randint(2, 6)
        g = census[n][rng.randrange(len(census[n]))]
        mask = rng.randrange(1, 1 << n)
        base = [v for v in range(n) if mask >> v & 1]
        got = _candelabrum_on(g, g.full_mask, mask)
        want = oracle_candelabrum_with_base(g, base)
        assert is_candelabrum(g, *got) == want, (U.to_graph6(g), base)
        if want:
            assert got.base == tuple(base)


def test_random_candelabra_are_recognized_and_uncluttered(rng):
    for _ in range(120):
        g, ys, zs = random_candelabrum(rng)
        assert is_candelabrum(g, ys, zs)
        cs = U.recognize_candelabrum(g)
        assert cs is not None
        assert is_candelabrum(g, cs.clique_parts, cs.stable_parts)
        assert U.is_uncluttered(g) is None


def test_candelabra_in_the_census_are_uncluttered(census):
    for n in range(2, 8):
        for g in census[n]:
            if U.recognize_candelabrum(g) is not None:
                assert U.is_uncluttered(g) is None


def test_detect_candled_full_graph_case():
    g = U.from_graph6("GCXnf_")
    dec = U.detect_candled(g)
    assert dec is not None and dec.rest == ()
    assert dec.candelabrum.k == 2
    assert U.verify_candled(g, dec)


def test_detect_candled_with_proper_rest():
    g = U.from_graph6("G?bF]{")
    dec = U.detect_candled(g)
    assert dec is not None
    assert dec.rest == (0, 1, 4, 5)
    assert dec.candelabrum.base == (6, 7)
    assert dec.candelabrum.clique_parts == ((2,), (3,))
    assert U.verify_candled(g, dec)
    # the base must see all of the rest, the candles none of it
    assert all(g.has_edge(b, r) for b in dec.candelabrum.base for r in dec.rest)
    nonbase = [v for p in dec.candelabrum.clique_parts for v in p]
    assert not any(g.has_edge(v, r) for v in nonbase for r in dec.rest)


def test_verify_candled_rejects_corruption():
    g = U.from_graph6("G?bF]{")
    dec = U.detect_candled(g)
    cs = dec.candelabrum
    swapped = U.CandledDecomposition(
        U.CandelabrumStructure(cs.stable_parts, cs.clique_parts), dec.rest)
    assert not U.verify_candled(g, swapped)
    moved = U.CandledDecomposition(
        U.CandelabrumStructure(cs.clique_parts + ((dec.rest[0],),),
                               cs.stable_parts + ((dec.rest[1],),)),
        dec.rest[2:])
    assert not U.verify_candled(g, moved)
    assert not U.verify_candled(U.complete_graph(8), dec)
    ys, zs, rest = cs.clique_parts, cs.stable_parts, dec.rest
    malformed = [
        (ys, zs[:1], rest),                            # unequal part counts
        (ys + ((),), zs + ((),), rest),                # empty parts
        (((ys[0][0], zs[0][0]),) + ys[1:], zs, rest),  # overlapping parts
        (ys, zs, rest + (8,)),                         # vertex out of range
        (ys, zs, rest + (-1,)),
        (ys, zs, rest + (zs[0][0],)),                  # rest overlaps the body
        ((), (), tuple(range(8))),                     # no parts at all
        ((1,), (2,), ()),                              # parts that are ints
        (ys, zs, 5),                                   # a rest that is an int
        (ys, None, rest),                              # a field that is None
    ]
    # each gives False, not an exception
    for y, z, r in malformed:
        assert not U.verify_candled(g, U.CandledDecomposition(U.CandelabrumStructure(y, z), r))
    assert not U.verify_candled(g, dec._replace(candelabrum=None))
    assert not U.verify_candled(g, None)


def test_verify_candled_agrees_with_the_pairwise_definition(uncluttered_census):
    """On planted candled compositions, as built and with any one vertex
    pair toggled, verify_candled accepts exactly what the pairwise check of
    every candelabrum and candled condition accepts."""
    rng = random.Random(11)
    rests = [h for n in range(6) for h in uncluttered_census[n]]
    accepted = cases = 0
    for _ in range(150):
        cand, ys, zs = random_candelabrum(rng, max_k=3, max_part=2)
        rest = rests[rng.randrange(len(rests))]
        g = compose_candled(rest, cand, [v for z in zs for v in z])
        dec = U.CandledDecomposition(U.CandelabrumStructure(ys, zs),
                                     tuple(range(cand.n, g.n)))
        edges = set(g.edges())
        for pair in [None, *itertools.combinations(range(g.n), 2)]:
            h = Graph(g.n, edges ^ {pair}) if pair else g
            want = oracle_verify_candled(h, dec)
            assert U.verify_candled(h, dec) == want, (U.to_graph6(h), dec)
            accepted += want
            cases += 1
    assert 0 < accepted < cases


def test_candelabrum_on_matches_induce_and_relabel(census):
    """Building on a body in place gives what inducing it, building with the
    local base and mapping the parts back gives, for every body and base."""
    for n in range(1, 7):
        for g in census[n]:
            for body in range(1, 1 << n):
                vs = [v for v in range(n) if body >> v & 1]
                sub = g.induced(vs)
                base = body
                while True:
                    local = sum(1 << i for i, v in enumerate(vs) if base >> v & 1)
                    st = _candelabrum_on(sub, sub.full_mask, local)
                    want = U.CandelabrumStructure(
                        *(tuple(tuple(vs[i] for i in p) for p in side) for side in st))
                    assert _candelabrum_on(g, body, base) == want, (U.to_graph6(g), body, base)
                    if not base:
                        break
                    base = (base - 1) & body


def test_candled_finders_keep_only_what_verify_candled_accepts(census, monkeypatch):
    """The finders build splits and check none themselves: with a verifier
    that rejects everything, they find nothing."""
    graphs = [g for n in range(7) for g in census[n]]
    assert any(U.recognize_candelabrum(g) for g in graphs)
    monkeypatch.setattr(structure, "verify_candled", lambda g, dec: False)
    for g in graphs:
        assert U.detect_candled(g) is None, U.to_graph6(g)
        assert U.recognize_candelabrum(g) is None, U.to_graph6(g)


def test_exhaustive_mode_finds_planted_compositions(census, rng):
    """Small random candled plants are always found by the exhaustive
    oracle, and verify_candled accepts what it finds."""
    pool = [g for n in range(3) for g in census[n]]
    for _ in range(60):
        cand, ys, zs = random_candelabrum(rng, max_k=2, max_part=2)
        rest = pool[rng.randrange(len(pool))]
        if cand.n + rest.n > 10:
            continue
        g = compose_candled(rest, cand, [v for z in zs for v in z])
        dec = exhaustive_candled(g)
        assert dec is not None
        assert U.verify_candled(g, dec)


def test_production_detector_known_misses():
    """Five census graphs carry a candled structure the fast candidate list
    misses; all of them are unreachable for the classifier (each has twin or
    line-graph exits that fire first)."""
    for s, side in (("E?bg", "co"), ("E?bw", "g"), ("EEvW", "co"),
                    ("EEvw", "g"), ("F?AFg", "co")):
        g = U.from_graph6(s)
        h = g.complement() if side == "co" else g
        assert U.detect_candled(h) is None
        assert exhaustive_candled(h) is not None
        cert = U.classify(g)
        assert cert.case not in ("CANDLED", "ANTI_CANDLED", "NOT_UNCLUTTERED")
        assert U.verify_certificate(g, cert)


def test_production_detector_is_exact_where_the_classifier_needs_it():
    """On every graph that reaches the candled test (connected both ways, no
    twin exits, no line-graph exits), the fast detector agrees with the
    exhaustive one.  Below eight vertices no graph reaches it at all."""
    reachable = {n: [] for n in range(2, 9)}
    for n in range(2, 9):
        for g in U.enumerate_graphs(n):
            if U.is_uncluttered(g) is not None:
                continue
            gc = g.complement()
            if not (g.is_connected() and gc.is_connected()):
                continue
            if find_adjacent_simplicial_twins(g) or find_adjacent_simplicial_twins(gc):
                continue
            if (U.recognize_line_graph_triangle_free(g)
                    or U.recognize_line_graph_triangle_free(gc)):
                continue
            reachable[n].append(g)
    assert {n: len(v) for n, v in reachable.items()} == {
        2: 0, 3: 0, 4: 0, 5: 0, 6: 0, 7: 0, 8: 2}
    assert sorted(U.to_graph6(g) for g in reachable[8]) == ["G?bF]{", "GCXnf_"]
    for g in reachable[8]:
        for h in (g, g.complement()):
            fast = U.detect_candled(h)
            full = exhaustive_candled(h)
            assert (fast is None) == (full is None)
            if fast is not None:
                assert U.verify_candled(h, fast)
