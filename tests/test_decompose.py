import ast
import hashlib
import json
import random
from pathlib import Path

import pytest

import uncluttered as U
from uncluttered import Certificate, Graph
from uncluttered.decompose import certificate_json, tree_json

from oracles import compose_candled, random_candelabrum, random_connected_triangle_free

TRIANGLE_TAIL = Graph(5, [(0, 1), (0, 4), (1, 4), (1, 2), (2, 3)])
# SHA-256 of the certificate JSON of every census graph with n <= 7 and of
# its complement; it pins root numbering and part order byte for byte.
CENSUS_CERTIFICATES_SHA256 = (
    "e3a450aaba61f7d1800543ee82b222436df33193d91fc8efd931fc31f451e095")


def test_case_tuples_are_fixed():
    assert U.CASE_ORDER == (
        "DISCONNECTED",
        "ANTI_DISCONNECTED",
        "SIMPLICIAL_TWINS",
        "ANTI_SIMPLICIAL_TWINS",
        "LINEGRAPH_TF",
        "ANTI_LINEGRAPH_TF",
        "CANDLED",
        "ANTI_CANDLED",
    )
    assert U.ALL_CASES == ("NOT_UNCLUTTERED", "SMALL") + U.CASE_ORDER


def test_classify_small_and_split_cases():
    assert U.classify(Graph(0)) == Certificate("SMALL", None)
    assert U.classify(Graph(1)) == Certificate("SMALL", None)
    assert U.classify(Graph(2)) == Certificate("DISCONNECTED", ((0,), (1,)))
    assert U.classify(U.complete_graph(2)) == Certificate(
        "ANTI_DISCONNECTED", ((0,), (1,)))
    assert U.classify(U.complete_graph(3)) == Certificate(
        "ANTI_DISCONNECTED", ((0,), (1,), (2,)))
    assert U.classify(U.path_graph(3)) == Certificate(
        "ANTI_DISCONNECTED", ((0, 2), (1,)))
    assert U.classify(U.cycle_graph(4)) == Certificate(
        "ANTI_DISCONNECTED", ((0, 2), (1, 3)))


def test_classify_twins_cases():
    cert = U.classify(TRIANGLE_TAIL)
    assert cert.case == "SIMPLICIAL_TWINS" and cert.payload == (0, 4)
    cert = U.classify(TRIANGLE_TAIL.complement())
    assert cert.case == "ANTI_SIMPLICIAL_TWINS" and cert.payload == (0, 4)


def test_classify_line_graph_cases():
    for g, root_order in ((U.path_graph(4), 5), (U.cycle_graph(5), 5),
                          (U.pattern("bull"), 6)):
        cert = U.classify(g)
        assert cert.case == "LINEGRAPH_TF"
        assert cert.payload.root.n == root_order
        assert U.verify_certificate(g, cert)
    # a clique with a pendant leaf on every vertex roots at a starred star
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    edges += [(i, 5 + i) for i in range(5)]
    cert = U.classify(Graph(10, edges))
    assert cert.case == "LINEGRAPH_TF" and cert.payload.root.n == 11


def test_path_on_64_vertices_has_a_65_vertex_root():
    """The root of a host at the 64-vertex cap may itself exceed the cap."""
    g = U.path_graph(64)
    cert = U.classify(g)
    assert cert.case == "LINEGRAPH_TF" and cert.payload.root.n == 65
    assert cert.payload.root.edges() == sorted(
        [(i, i + 1) for i in range(62)] + [(0, 63), (62, 64)])
    assert U.verify_certificate(g, cert)
    assert certificate_json(cert)["payload"]["root_n"] == 65
    tree = U.decomposition_tree(g)
    assert tree.certificate == cert and tree.children == ()
    coloring = U.color_uncluttered(g)
    assert U.is_proper_coloring(g, coloring.colors)
    assert coloring.num_colors == 2 and coloring.omega_used == 2


def test_classify_candled_cases():
    g = U.from_graph6("G?bF]{")
    cert = U.classify(g)
    assert cert.case == "CANDLED"
    assert cert.payload.rest == (0, 1, 4, 5)
    assert cert.payload.candelabrum.base == (6, 7)
    cert = U.classify(U.from_graph6("GCXnf_"))
    assert cert.case == "CANDLED" and cert.payload.rest == ()
    # the complement orientation is checkable even though classify never
    # needs it below nine vertices (both candled graphs are candled both ways)
    anti = Certificate("ANTI_CANDLED", U.detect_candled(g))
    assert U.verify_certificate(g.complement(), anti)
    assert not U.verify_certificate(g, anti)


def test_classify_rejects_cluttered_graphs():
    cert = U.classify(U.pattern("fork"))
    assert cert.case == "NOT_UNCLUTTERED"
    assert cert.payload.pattern_name == "fork"
    assert cert.payload.embedding == (0, 1, 2, 3, 4)
    assert U.verify_certificate(U.pattern("fork"), cert)
    cert = U.classify(U.pattern("antifork"))
    assert cert.case == "NOT_UNCLUTTERED"
    assert cert.payload.pattern_name == "antifork"


def test_every_census_certificate_verifies(census):
    for n in range(8):
        for g in census[n]:
            cert = U.classify(g)
            assert U.verify_certificate(g, cert), U.to_graph6(g)
            if U.is_uncluttered(g) is None:
                assert cert.case != "NOT_UNCLUTTERED"
            else:
                assert cert.case == "NOT_UNCLUTTERED"


def test_census_certificates_are_frozen(census):
    lines = [f"{U.to_graph6(h)} "
             f"{json.dumps(certificate_json(U.classify(h)), separators=(',', ':'))}"
             for n in range(8) for g in census[n] for h in (g, g.complement())]
    assert len(lines) == 2506
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == CENSUS_CERTIFICATES_SHA256


def test_verify_rejects_cross_case_and_malformed():
    g = U.cycle_graph(5)
    cert = U.classify(g)
    assert not U.verify_certificate(g, Certificate("BOGUS", cert.payload))
    assert not U.verify_certificate(g, Certificate("SMALL", None))
    assert not U.verify_certificate(g, Certificate("DISCONNECTED", cert.payload))
    assert not U.verify_certificate(g, Certificate("LINEGRAPH_TF", None))
    assert not U.verify_certificate(g, Certificate("LINEGRAPH_TF", (1, 2)))
    assert not U.verify_certificate(Graph(2), Certificate("SMALL", None))


# A valid payload per case, on its host: in K2 beside a diamond, (0, 1) are
# adjacent simplicial twins, (2, 5) nonadjacent twins, and (3, 4) adjacent
# twins that are not simplicial.  C5 is its own line graph, and the path
# ``BW`` is a candelabrum with clique part (2,) and stable part (0, 1).
C5_ROOT = U.recognize_line_graph_triangle_free(U.cycle_graph(5))
BW_SPLIT = U.detect_candled(U.from_graph6("BW"))
VALID = {
    "SIMPLICIAL_TWINS": (Graph(6, [(0, 1), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5)]),
                         (0, 1)),
    "NOT_UNCLUTTERED": (U.pattern("fork"), U.PatternWitness("fork", (0, 1, 2, 3, 4))),
    "DISCONNECTED": (Graph(2), ((0,), (1,))),
    "LINEGRAPH_TF": (U.cycle_graph(5), C5_ROOT),
    "CANDLED": (U.from_graph6("BW"), BW_SPLIT),
}
BAD_PAYLOADS = {
    "bool-pair": ("SIMPLICIAL_TWINS", (False, True)),
    "float-pair": ("SIMPLICIAL_TWINS", (0.0, 1.0)),
    "reversed-pair": ("SIMPLICIAL_TWINS", (1, 0)),
    "repeated-pair": ("SIMPLICIAL_TWINS", (0, 0)),
    "negative-pair": ("SIMPLICIAL_TWINS", (-1, 3)),
    "pair-past-n": ("SIMPLICIAL_TWINS", (0, 6)),
    "nonadjacent-twins": ("SIMPLICIAL_TWINS", (2, 5)),
    "twins-not-simplicial": ("SIMPLICIAL_TWINS", (3, 4)),
    "four-entries": ("NOT_UNCLUTTERED", U.PatternWitness("fork", (0, 1, 2, 3))),
    "repeated-vertex": ("NOT_UNCLUTTERED", U.PatternWitness("fork", (0, 1, 2, 3, 3))),
    "vertex-past-n": ("NOT_UNCLUTTERED", U.PatternWitness("fork", (0, 1, 2, 3, 5))),
    "bool-entries": ("NOT_UNCLUTTERED", U.PatternWitness("fork", (False, True, 2, 3, 4))),
    "other-pattern": ("NOT_UNCLUTTERED", U.PatternWitness("antifork", (0, 1, 2, 3, 4))),
    "bool-parts": ("DISCONNECTED", ((False,), (True,))),
    "bool-root-edge": ("LINEGRAPH_TF", C5_ROOT._replace(
        edge_map=((False, True),) + C5_ROOT.edge_map[1:])),
    "bool-stable-part": ("CANDLED", BW_SPLIT._replace(candelabrum=BW_SPLIT.candelabrum._replace(
        stable_parts=((False, True),)))),
}


@pytest.mark.parametrize("case, payload", list(BAD_PAYLOADS.values()), ids=list(BAD_PAYLOADS))
def test_verify_rejects_bad_vertex_payloads(case, payload):
    g, good = VALID[case]
    assert U.verify_certificate(g, Certificate(case, good))
    assert not U.verify_certificate(g, Certificate(case, payload))


def test_verify_strips_one_anti_prefix_from_the_four_base_cases_only():
    # each payload below proves its unprefixed claim
    small = Graph(1)
    assert U.verify_certificate(small, Certificate("SMALL", None))
    assert not U.verify_certificate(small, Certificate("ANTI_SMALL", None))
    fork = U.pattern("fork")
    for g in (fork, fork.complement()):
        cert = U.classify(g)
        assert cert.case == "NOT_UNCLUTTERED" and U.verify_certificate(g, cert)
        anti = Certificate("ANTI_NOT_UNCLUTTERED", cert.payload)
        assert not U.verify_certificate(g, anti)
        assert not U.verify_certificate(g.complement(), anti)
    g = U.from_graph6("G?bF]{")
    cert = U.classify(g)
    assert cert.case == "CANDLED"
    assert U.verify_certificate(g.complement(), Certificate("ANTI_CANDLED", cert.payload))
    assert not U.verify_certificate(g, Certificate("ANTI_ANTI_CANDLED", cert.payload))
    assert not U.verify_certificate(g.complement(), Certificate("ANTI_BOGUS", cert.payload))
    assert not U.verify_certificate(g, Certificate("ANTI_BOGUS", cert.payload))


def _mutate(rng, g, cert):
    """One random corruption of a certificate; never a no-op by value."""
    case, p = cert.case, cert.payload
    if rng.random() < 0.2:
        return Certificate(rng.choice([c for c in U.ALL_CASES if c != case]), p)
    if case == "SMALL":
        return Certificate(case, 0)
    if case == "NOT_UNCLUTTERED":
        op = rng.randrange(3)
        if op == 0:
            other = "antifork" if p.pattern_name == "fork" else "fork"
            return Certificate(case, U.PatternWitness(other, p.embedding))
        emb = list(p.embedding)
        if op == 1:
            i, j = rng.sample((0, 2, 3), 2)
            emb[i], emb[j] = emb[j], emb[i]
        else:
            emb[rng.randrange(5)] = g.n + 1
            if len(set(emb)) < 5:
                emb[0] = g.n + 2
        return Certificate(case, U.PatternWitness(p.pattern_name, tuple(emb)))
    if case in ("DISCONNECTED", "ANTI_DISCONNECTED"):
        parts = list(p)
        op = rng.randrange(3)
        if op == 0:
            parts.pop(rng.randrange(len(parts)))
        elif op == 1:
            i = rng.randrange(len(parts))
            parts[i] = parts[i] + (g.n + 1,)
        else:
            parts.reverse()
        return Certificate(case, tuple(parts))
    if case in ("SIMPLICIAL_TWINS", "ANTI_SIMPLICIAL_TWINS"):
        u, v = p
        op = rng.randrange(3)
        if op == 0:
            return Certificate(case, (u, u))
        if op == 1:
            return Certificate(case, (u, g.n + 1))
        w = rng.choice([w for w in range(g.n) if w not in (u, v)])
        return Certificate(case, (min(u, w), max(u, w)))
    if case in ("LINEGRAPH_TF", "ANTI_LINEGRAPH_TF"):
        em = list(p.edge_map)
        op = rng.randrange(3)
        if op == 0 and len(em) >= 2:
            i, j = rng.sample(range(len(em)), 2)
            em[i], em[j] = em[j], em[i]
        elif op == 1 and em:
            em.pop()
        else:
            em.append((0, p.root.n))
        return Certificate(case, U.RootGraph(p.root, tuple(em)))
    st = p.candelabrum
    op = rng.randrange(3)
    if op == 0:
        bad = U.CandelabrumStructure(st.stable_parts, st.clique_parts)
        return Certificate(case, U.CandledDecomposition(bad, p.rest))
    if op == 1:
        bad = U.CandelabrumStructure(st.clique_parts + ((g.n + 1,),), st.stable_parts)
        return Certificate(case, U.CandledDecomposition(bad, p.rest))
    parts = list(st.clique_parts)
    parts[0] = parts[0] + parts[0][:1]
    bad = U.CandelabrumStructure(tuple(parts), st.stable_parts)
    return Certificate(case, U.CandledDecomposition(bad, p.rest))


def test_mutated_certificates_are_rejected(census):
    """Soundness fuzz: at least 99 percent of 1000 random certificate
    corruptions must fail verification.  The tiny allowance covers mutations
    that happen to land on a different but genuinely valid payload."""
    rng = random.Random(13579)
    pool = [g for n in range(3, 8) for g in census[n]]
    rejected = 0
    for _ in range(1000):
        g = pool[rng.randrange(len(pool))]
        cert = U.classify(g)
        assert U.verify_certificate(g, cert)
        mut = _mutate(rng, g, cert)
        if not U.verify_certificate(g, mut):
            rejected += 1
    assert rejected >= 990, rejected


def test_tree_shapes_for_hand_picked_graphs():
    t = U.decomposition_tree(U.cycle_graph(5))
    assert t.certificate.case == "LINEGRAPH_TF" and t.children == ()
    t = U.decomposition_tree(TRIANGLE_TAIL)
    assert t.certificate.case == "SIMPLICIAL_TWINS"
    assert len(t.children) == 1
    # removing one twin of the pair (0, 4) leaves a four-vertex path
    child = t.children[0]
    assert child.graph.n == 4
    assert U.are_isomorphic(child.graph, U.path_graph(4))
    assert child.certificate.case == "LINEGRAPH_TF"
    # a candled graph with a nonempty rest splits into the candelabrum leaf
    # and the rest subtree, in that order
    t = U.decomposition_tree(U.from_graph6("G?bF]{"))
    assert t.certificate.case == "CANDLED"
    kinds = [(c.certificate.case, c.graph.n, len(c.children)) for c in t.children]
    assert kinds == [("CANDLED", 4, 0), ("LINEGRAPH_TF", 4, 0)]
    assert t.children[0].certificate.payload.rest == ()


def test_tree_json_frozen_strings():
    got = json.dumps(tree_json(U.decomposition_tree(U.path_graph(3))))
    assert got == (
        '{"case": "ANTI_DISCONNECTED", "payload": {"parts": [[0, 2], [1]]},'
        ' "children": [{"case": "DISCONNECTED", "payload": {"parts": [[0], [1]]},'
        ' "children": [{"case": "SMALL", "payload": {}, "children": []},'
        ' {"case": "SMALL", "payload": {}, "children": []}]},'
        ' {"case": "SMALL", "payload": {}, "children": []}]}')
    got = json.dumps(tree_json(U.decomposition_tree(U.cycle_graph(5))))
    assert got == (
        '{"case": "LINEGRAPH_TF", "payload": {"root_n": 5,'
        ' "root_edges": [[0, 1], [0, 2], [1, 4], [2, 3], [3, 4]],'
        ' "edge_map": [[0, 1], [0, 2], [2, 3], [3, 4], [1, 4]]}, "children": []}')
    leaf = U.decomposition_tree(U.from_graph6("G?bF]{")).children[0]
    assert json.dumps(tree_json(leaf)) == (
        '{"case": "CANDLED", "payload": {"clique_parts": [[0], [1]],'
        ' "stable_parts": [[2], [3]], "base": [2, 3], "rest": []}, "children": []}')
    # an ANTI_CANDLED node whose candelabrum leaf is ANTI_CANDLED too
    got = json.dumps(tree_json(U.decomposition_tree(U.from_graph6("LXIvnkA?n~{XG_"))))
    assert got == (
        '{"case": "SIMPLICIAL_TWINS", "payload": {"u": 8, "v": 9}, "children":'
        ' [{"case": "ANTI_CANDLED", "payload": {"clique_parts": [[2], [6], [9]],'
        ' "stable_parts": [[8], [4], [11]], "base": [4, 8, 11],'
        ' "rest": [0, 1, 3, 5, 7, 10]}, "children": [{"case": "ANTI_CANDLED",'
        ' "payload": {"clique_parts": [[0], [2], [4]], "stable_parts": [[3], [1], [5]],'
        ' "base": [1, 3, 5], "rest": []}, "children": []}, {"case": "ANTI_DISCONNECTED",'
        ' "payload": {"parts": [[0, 1, 2, 3, 5], [4]]}, "children": [{"case": "LINEGRAPH_TF",'
        ' "payload": {"root_n": 6, "root_edges": [[0, 1], [0, 3], [1, 2], [2, 4], [3, 5]],'
        ' "edge_map": [[0, 1], [2, 4], [3, 5], [0, 3], [1, 2]]}, "children": []},'
        ' {"case": "SMALL", "payload": {}, "children": []}]}]}]}')


def test_certificate_json_key_order():
    got = json.dumps(certificate_json(U.classify(TRIANGLE_TAIL)))
    assert got == '{"case": "SIMPLICIAL_TWINS", "payload": {"u": 0, "v": 4}}'
    got = json.dumps(certificate_json(U.classify(U.pattern("fork"))))
    assert got == ('{"case": "NOT_UNCLUTTERED", "payload":'
                   ' {"pattern": "fork", "embedding": [0, 1, 2, 3, 4]}}')
    with pytest.raises(U.InputError):
        certificate_json(Certificate("BOGUS", None))


def _depth(t):
    return 1 + max((_depth(c) for c in t.children), default=0)


def _leaves(t):
    if not t.children:
        yield t
    else:
        for c in t.children:
            yield from _leaves(c)


def test_trees_build_for_every_uncluttered_graph_up_to_eight():
    """Depth stays within the budget (it is in fact at most n) and every
    leaf certificate is a terminal case that re-verifies."""
    max_depth = {}
    leaf_hist = {}
    trees = 0
    for n in range(9):
        best = 0
        for g in U.enumerate_graphs(n):
            if U.is_uncluttered(g) is not None:
                continue
            t = U.decomposition_tree(g)
            trees += 1
            best = max(best, _depth(t))
            for leaf in _leaves(t):
                case = leaf.certificate.case
                leaf_hist[case] = leaf_hist.get(case, 0) + 1
                assert U.verify_certificate(leaf.graph, leaf.certificate)
                if case in ("CANDLED", "ANTI_CANDLED"):
                    assert leaf.certificate.payload.rest == ()
                else:
                    assert case in ("SMALL", "LINEGRAPH_TF", "ANTI_LINEGRAPH_TF")
        max_depth[n] = best
    assert trees == 1876
    assert max_depth == {0: 1, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6, 7: 7, 8: 8}
    assert leaf_hist == {"SMALL": 7294, "LINEGRAPH_TF": 838,
                         "ANTI_LINEGRAPH_TF": 229, "CANDLED": 2}


def test_trees_of_candled_compositions_verify_at_every_node(uncluttered_census):
    """Candelabra joined to an uncluttered rest, relabeled and complemented
    half the time: every node of every tree re-verifies, ANTI_CANDLED nodes
    included.  The candidate rests of detect_candled miss some of these, so
    a pinned number raise TheoremViolationError."""
    rng = random.Random(5)
    pool = [g for n in range(8) for g in uncluttered_census[n]]
    raised = anti_candled = 0
    for _ in range(300):
        cand, _, zs = random_candelabrum(rng, max_k=4, max_part=3)
        rest = pool[rng.randrange(len(pool))]
        g = compose_candled(rest, cand, [v for z in zs for v in z])
        perm = list(range(g.n))
        rng.shuffle(perm)
        g = Graph(g.n, [(perm[a], perm[b]) for a, b in g.edges()])
        if rng.random() < 0.5:
            g = g.complement()
        try:
            nodes = [U.decomposition_tree(g)]
        except U.TheoremViolationError:
            raised += 1
            continue
        while nodes:
            t = nodes.pop()
            assert U.verify_certificate(t.graph, t.certificate), U.to_graph6(g)
            anti_candled += t.certificate.case == "ANTI_CANDLED"
            nodes.extend(t.children)
    assert (raised, anti_candled) == (23, 94)


def test_tree_rejects_non_members():
    with pytest.raises(U.NotUnclutteredError) as exc:
        U.decomposition_tree(U.pattern("fork"))
    assert exc.value.witness.pattern_name == "fork"
    assert "not uncluttered" in str(exc.value)


def _raises(node, where=None):
    """(enclosing function, raised name) for every raise under node; the
    name is None for a bare raise or a dotted one."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise):
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            yield where, getattr(exc, "id", None)
        inner = child.name if isinstance(child, ast.FunctionDef) else where
        yield from _raises(child, inner)


def test_package_raises_only_documented_errors():
    # No "impossible" RuntimeError: a raise names a documented error, or is
    # the census's count self-check or Graph's immutability guard.
    documented = {"InputError", "NotUnclutteredError", "TheoremViolationError"}
    exceptions = {("census.py", "enumerate_graphs", "AssertionError"),
                  ("graph.py", "__setattr__", "AttributeError")}
    found = set()
    for path in sorted(Path(U.__file__).parent.glob("*.py")):
        for where, name in _raises(ast.parse(path.read_text())):
            if name not in documented:
                found.add((path.name, where, name))
    assert found == exceptions


def _references(node, skip):
    """Names read (as a name or an attribute) under node, outside the
    function definition ``skip``."""
    for child in ast.iter_child_nodes(node):
        if child is skip:
            continue
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        yield from _references(child, skip)


def test_package_has_no_unused_private_functions():
    # A module-level helper that nothing else in the package reads is dead
    # code: a kernel whose last caller went must go with it.
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(U.__file__).parent.glob("*.py"))}
    unused = []
    for name, tree in trees.items():
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_"):
                if not any(fn.name in _references(t, fn) for t in trees.values()):
                    unused.append((name, fn.name))
    assert unused == []


def test_only_line_root_answers_the_line_graph_question():
    # The line-graph question has one home: membership, the recognizer and
    # the colourer's leaves all call structure._line_root, and no second
    # walk or decider sits beside it.
    readers, defined = [], set()
    for path in sorted(Path(U.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            name = getattr(node, "name", None)
            defined.add(name)
            if name != "_line_root" and "_line_root" in _references(node, None):
                readers.append((path.stem, name))
    assert readers == [("chromatic", "_color_on"), ("patterns", "is_uncluttered"),
                       ("structure", "recognize_line_graph_triangle_free")]
    assert not defined & {"_krausz", "_line_cover"}


def test_member_case_builds_the_complement_only_for_line_and_candled_probes(
        uncluttered_census, rng, monkeypatch):
    """No complement of g is built on a DISCONNECTED, ANTI_DISCONNECTED,
    twin or LINEGRAPH_TF hit, and one for each later case."""
    import uncluttered.decompose as D
    graphs = [g for n in range(2, 8) for g in uncluttered_census[n]]
    root = random_connected_triangle_free(rng, 24)
    graphs += [U.line_graph(root), U.line_graph(root).complement(),
               U.from_graph6("G?bF]{"),
               U.decomposition_tree(U.from_graph6("LXIvnkA?n~{XG_")).children[0].graph]
    certs = [U.classify(g) for g in graphs]
    built = []
    complement = Graph.complement

    def counted(self):
        built.append(self.n)
        return complement(self)

    monkeypatch.setattr(Graph, "complement", counted)
    seen = set()
    for g, cert in zip(graphs, certs):
        built.clear()
        assert D._member_case(g) == cert
        early = D.CASE_ORDER.index(cert.case) < D.CASE_ORDER.index("ANTI_LINEGRAPH_TF")
        assert built == ([] if early else [g.n]), (U.to_graph6(g), cert.case)
        seen.add(cert.case)
    assert seen == set(D.CASE_ORDER)


def test_tree_recognizes_membership_once(monkeypatch):
    import uncluttered.decompose as D
    calls = []

    def counting(g):
        calls.append(g.n)
        return U.is_uncluttered(g)

    monkeypatch.setattr(D, "is_uncluttered", counting)
    t = U.decomposition_tree(U.path_graph(3))
    assert _depth(t) >= 3
    assert calls == [3]
    calls.clear()
    t = U.decomposition_tree(U.from_graph6("G?bF]{"))
    assert _depth(t) >= 2 and calls == [8]
    calls.clear()
    with pytest.raises(U.NotUnclutteredError):
        U.decomposition_tree(U.pattern("fork"))
    assert calls == [5]
