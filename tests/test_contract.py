"""The input contract, checked by one table.

The verifiers (``verify_certificate``, ``verify_root``, ``verify_candled``,
``PatternWitness.holds_in``, ``is_proper_coloring`` and
``is_proper_edge_coloring``) return False on a malformed payload.  The
constructors, parsers and vertex queries of ``Graph`` raise ``InputError``
on a malformed argument.
Arguments typed ``Graph`` are trusted and not probed here.

Each row names one argument slot of one public callable, a well-formed
value for it, the values of that slot's own shape that are malformed
(wrong lengths, a list where a tuple or named tuple belongs, bad entries),
and any of the shared bad values that the slot documents as valid (None
selects a default).  Every other shared bad value must be refused too.
"""

import math

import pytest

import uncluttered as U
from uncluttered import (
    CandelabrumStructure,
    CandledDecomposition,
    Certificate,
    Graph,
    InputError,
    PatternWitness,
    RootGraph,
)


class Int(int):
    """An int subclass, which no slot takes for an int."""


# None, bools, floats, a string, ints below and above every range, and an
# int subclass within every count's range
BAD = (None, True, False, 1.5, math.nan, "x", -1, 65, Int(3))

FORK = U.pattern("fork")
C5 = U.cycle_graph(5)
P4 = U.path_graph(4)
ROOT = U.recognize_line_graph_triangle_free(C5)
# Y = ({0}, {2}) and Z = ({1}, {3}), the stable parts joined, the rest {4}
# joined to Z
CANDLED = Graph(5, [(0, 1), (2, 3), (1, 3), (1, 4), (3, 4)])
CANDELABRUM = CandelabrumStructure(((0,), (2,)), ((1,), (3,)))
DEC = CandledDecomposition(CANDELABRUM, (4,))
# (graph, certificate of its case) for every case the classifier emits
CERTIFIED = [(g, U.classify(g)) for g in (
    Graph(1), FORK, Graph(2), U.complete_graph(2), U.from_graph6("DQw"),
    U.from_graph6("DEw"), C5, U.from_graph6("EEj_"))]
CERTIFIED.append((CANDLED, Certificate("CANDLED", DEC)))


def _payload_slot(g, cert):
    """The payload slot of verify_certificate for cert's case."""
    case, payload = cert
    base = case.removeprefix("ANTI_")
    if base == "SMALL":
        shapes = [()]
    elif base == "DISCONNECTED":
        shapes = [payload[:1], payload + ((0,),), [list(p) for p in payload],
                  list(payload)]
    elif base == "SIMPLICIAL_TWINS":
        shapes = [payload[:1], payload + (3,), list(payload), set(payload),
                  dict.fromkeys(payload)]
    elif base == "NOT_UNCLUTTERED":
        shapes = [tuple(payload), list(payload),
                  PatternWitness("fork", payload.embedding[:4])]
    else:  # a RootGraph or a CandledDecomposition
        shapes = [tuple(payload), list(payload)]
    return (f"verify_certificate.payload.{case}",
            lambda v: U.verify_certificate(g, Certificate(case, v)), payload, shapes,
            (None,) if case == "SMALL" else ())


VERIFIERS = [
    ("holds_in.name", lambda v: PatternWitness(v, (0, 1, 2, 3, 4)).holds_in(FORK),
     "fork", [["fork"], ("fork",), "claw"], ()),
    ("holds_in.embedding", lambda v: PatternWitness("fork", v).holds_in(FORK),
     (0, 1, 2, 3, 4), [(0, 1, 2, 3), (0, 1, 2, 3, 4, 4), [0, 1, 2, 3, 4],
                       (0, 1, 2, 3, True), (0, 1, 2, 3, 4.0)], ()),
    ("verify_certificate", lambda v: U.verify_certificate(C5, v),
     Certificate("LINEGRAPH_TF", ROOT),
     [("LINEGRAPH_TF", ROOT), ["LINEGRAPH_TF", ROOT], ("LINEGRAPH_TF",)], ()),
    ("verify_certificate.case", lambda v: U.verify_certificate(C5, Certificate(v, ROOT)),
     "LINEGRAPH_TF", [["LINEGRAPH_TF"], "ANTI_LINEGRAPH_TF", "CANDLED"], ()),
    *(_payload_slot(g, cert) for g, cert in CERTIFIED),
    ("verify_root", lambda v: U.verify_root(C5, v),
     ROOT, [tuple(ROOT), list(ROOT), (ROOT.root,)], ()),
    ("verify_root.root", lambda v: U.verify_root(C5, RootGraph(v, ROOT.edge_map)),
     ROOT.root, [ROOT.root.adj, ROOT.root.edges()], ()),
    ("verify_root.edge_map", lambda v: U.verify_root(C5, RootGraph(ROOT.root, v)),
     ROOT.edge_map, [ROOT.edge_map[:-1], ROOT.edge_map + ((0, 1),),
                     ROOT.edge_map[:-1] + ((0, 1, 2),), ROOT.edge_map[:-1] + (0,),
                     ROOT.edge_map[:-1] + ((0, True),)], ()),
    ("verify_candled", lambda v: U.verify_candled(CANDLED, v),
     DEC, [tuple(DEC), list(DEC), (CANDELABRUM,)], ()),
    ("verify_candled.candelabrum",
     lambda v: U.verify_candled(CANDLED, CandledDecomposition(v, DEC.rest)),
     CANDELABRUM, [tuple(CANDELABRUM), list(CANDELABRUM), CANDELABRUM[:1]], ()),
    ("verify_candled.clique_parts",
     lambda v: U.verify_candled(CANDLED, CandledDecomposition(
         CandelabrumStructure(v, CANDELABRUM.stable_parts), DEC.rest)),
     CANDELABRUM.clique_parts, [((0,),), ((0,), (2,), (4,)), ((0,), ()), ((0,), 2)], ()),
    ("verify_candled.rest",
     lambda v: U.verify_candled(CANDLED, CandledDecomposition(CANDELABRUM, v)),
     DEC.rest, [(), (4, 4), ((4,),), (4.0,), (True,)], ()),
    ("is_proper_coloring", lambda v: U.is_proper_coloring(C5, v),
     (0, 1, 0, 1, 2), [(0, 1, 0, 1), (0, 1, 0, 1, 2, 0), (0, 1, 0, 1, 2.0),
                       (0, 1, 0, 1, None), ("a", "b", "a", "b", "c")], ()),
    ("is_proper_edge_coloring", lambda v: U.is_proper_edge_coloring(P4, v),
     {(0, 1): 0, (1, 2): 1, (2, 3): 0},
     [{(0, 1): 0, "x": 1}, {(0, 1): 0, (1, 2): 1}, {(0, 1, 2): 0, (1, 2): 1, (2, 3): 0},
      {(0, 1): 0, (1, 2): 1, (2, 3): 0.0}, {(0, 1): 0, (1, 2): 1, (2, 3): None},
      {(False, True): 0, (1, 2): 1, (2, 3): 0}, [((0, 1), 0), ((1, 2), 1), ((2, 3), 0)]],
     ()),
]

RAISERS = [
    ("Graph.n", Graph, 3, [], ()),
    ("Graph.edges", lambda v: Graph(3, v), [(0, 1)],
     [[(0,)], [(0, 1, 2)], [(0, 3)], [(1, 1)], [(0, True)], [(0, 1.0)],
      [(0, Int(1))]], ()),
    ("Graph.induced", C5.induced, (0, 2), [(0, 5), (0, 1.0), (True,), (-1,)], ()),
    ("Graph.has_edge.u", lambda v: C5.has_edge(v, 3), 4, [5, -5], ()),
    ("Graph.has_edge.v", lambda v: C5.has_edge(3, v), 4, [5, -5], ()),
    ("Graph.degree", C5.degree, 4, [5, -5], ()),
    ("Graph.neighbors", C5.neighbors, 4, [5, -5], ()),
    ("edgeless_graph", U.edgeless_graph, 3, [], ()),
    ("complete_graph", U.complete_graph, 3, [], ()),
    ("path_graph", U.path_graph, 3, [], ()),
    ("cycle_graph", U.cycle_graph, 3, [2], ()),
    ("pattern", U.pattern, "fork", [["fork"], ("fork",), "Fork"], ()),
    ("has_induced.name", lambda v: U.has_induced(C5, v), "fork", [["fork"]], ()),
    ("enumerate_graphs", U.enumerate_graphs, 3, [9], ()),
    ("from_graph6", U.from_graph6, "Dhc", [b"Dhc", ["Dhc"], "Dh", "Dhcc"], ()),
    ("from_edge_list", U.from_edge_list, "3\n0 1\n",
     [b"3\n0 1\n", ["3", "0 1"], "3\n0", "3\n0 1 2", "3\n0 3"], ()),
    ("audit.n_max", lambda v: U.audit(v, suites=("main-theorem",)), 3, [9], ()),
    ("audit.suites", lambda v: U.audit(1, suites=v), ("main-theorem",),
     ["main-theorem", (), ("main-theorem", "main-theorem"), [["main-theorem"]]], (None,)),
    ("audit.graphs", lambda v: U.audit(1, suites=("main-theorem",), graphs=v), ("Dhc",),
     ["Dhc", ("Dh",), (b"Dhc",), [None]], (None,)),
]


@pytest.mark.parametrize(
    "refuses, call, good, shapes, also_good",
    [pytest.param(False, *row[1:], id=row[0]) for row in VERIFIERS]
    + [pytest.param(InputError, *row[1:], id=row[0]) for row in RAISERS])
def test_each_public_slot_refuses_every_bad_value(refuses, call, good, shapes, also_good):
    """A verifier accepts the well-formed value and returns False, not an
    exception, on each bad one; a constructor or parser builds from the
    well-formed value and raises InputError on each bad one."""
    for v in (good, *also_good):
        got = call(v)
        assert got is True if refuses is False else got is not None, v
    for v in [b for b in BAD if not any(b is ok for ok in also_good)] + shapes:
        if refuses is False:
            assert call(v) is False, v
        else:
            with pytest.raises(InputError):
                call(v)
