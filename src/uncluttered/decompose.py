"""Total classification of uncluttered graphs with re-verifiable certificates.

Every uncluttered graph on at least two vertices falls to at least one of
eight cases: the four base cases of ``_CASES`` (disconnected, adjacent
simplicial twins, line graph of a triangle-free graph, candled), each tried
on g and then on its complement, where a hit is named with the ``ANTI_``
prefix.  classify returns the first hit in that order together with
evidence; verify_certificate rechecks the evidence from scratch, sharing no
state with the classifier beyond the basic graph predicates, and reads an
``ANTI_`` case as the base case on the complement.

decomposition_tree builds the tree first and lets it prove membership.
The fork and the antifork are connected and co-connected, so a graph is a
member exactly when its components are, and exactly when its
anticomponents are.  Removing one of two adjacent simplicial twins keeps
membership both ways: the fork has no adjacent twins, and the antifork's
one adjacent pair is not simplicial, so a fork or antifork through the
removed twin misses the other and can take it instead.  Nonadjacent twins
with a stable common non-neighbourhood are the complement's case, and the
class is closed under complement.  Line-graph leaves are claw- and
diamond-free, so they hold neither pattern.  A node that reaches the
candled probes is connected, co-connected and a line graph on neither
side, exactly a part that membership's Krausz walk rejects; there the fork
and antifork searches of patterns decide it, and a node they clear is a
member, with every node below it, as the class is hereditary.  Each node
tells its children what it proved: a component is connected, an
anticomponent co-connected, a twin removal keeps both, and below a cleared
node the searches are skipped.
"""

from __future__ import annotations

from typing import NamedTuple, NoReturn

from .errors import InputError, NotUnclutteredError, TheoremViolationError
from .graph import Graph, _component_masks, _induced, _is_clique_mask, _mask_to_tuple
from .graphio import to_graph6
from .modular import _anti_simplicial_twins, find_adjacent_simplicial_twins
from .patterns import PatternWitness, _holds_fork_or_antifork, is_uncluttered
from .structure import (
    CandelabrumStructure,
    CandledDecomposition,
    _is_triangle_free_root,
    detect_candled,
    recognize_line_graph_triangle_free,
    verify_candled,
)

_CASES = ("DISCONNECTED", "SIMPLICIAL_TWINS", "LINEGRAPH_TF", "CANDLED")
CASE_ORDER = tuple(c for case in _CASES for c in (case, "ANTI_" + case))
ALL_CASES = ("NOT_UNCLUTTERED", "SMALL") + CASE_ORDER


class Certificate(NamedTuple):
    case: str
    payload: object


def classify(g: Graph) -> Certificate:
    """First applicable case of the decomposition, in the documented order.

    Non-uncluttered graphs get NOT_UNCLUTTERED with a witness, graphs with
    n <= 1 get SMALL, and anything else must hit one of the eight cases; an
    uncluttered graph matching none would contradict the decomposition
    theorem, so that raises instead of returning.
    """
    witness = is_uncluttered(g)
    if witness is not None:
        return Certificate("NOT_UNCLUTTERED", witness)
    cert = _member_case(g, True)
    if cert is None:
        _matched_no_case(g)
    return cert


def _matched_no_case(g: Graph) -> NoReturn:
    raise TheoremViolationError(
        f"uncluttered graph {to_graph6(g)!r} matched no decomposition case")


def _member_case(g: Graph, member: bool = False, connected: bool = False,
                 anticonnected: bool = False) -> Certificate | None:
    """classify for a graph that is a member or is to be proven one; None
    when g matches no case, or when g, not known to be a member, holds a
    fork or an antifork.

    ``member``, ``connected`` and ``anticonnected`` say what the caller has
    proven of g; the last two skip the sweep that would only confirm them.
    Each case is tried on g and then on its complement, whose hit is named
    with the ANTI_ prefix.  The first two complement probes read g's own
    rows: anticomponents come from the flipped sweep, and the complement's
    adjacent simplicial twins are g's nonadjacent twins whose shared
    non-neighbourhood is stable.  The complement is built only for the line
    and candled probes.  A graph that reaches the candled probes is
    connected, co-connected and a line graph on neither side, so unless it
    is known to be a member the fork and antifork searches decide it there
    (patterns._holds_fork_or_antifork).
    """
    if g.n <= 1:
        return Certificate("SMALL", None)
    adj, full = g.adj, g.full_mask
    for case, flip, known in (("DISCONNECTED", 0, connected),
                              ("ANTI_DISCONNECTED", full, anticonnected)):
        if not known:
            comps = _component_masks(adj, full, flip)
            if len(comps) > 1:
                # From a list, not a bare iterator, which tuple() over-allocates.
                return Certificate(case, tuple([_mask_to_tuple(m) for m in comps]))
    pair = find_adjacent_simplicial_twins(g)
    if pair is not None:
        return Certificate("SIMPLICIAL_TWINS", pair)
    pair = _anti_simplicial_twins(g)
    if pair is not None:
        return Certificate("ANTI_SIMPLICIAL_TWINS", pair)
    payload = recognize_line_graph_triangle_free(g)
    if payload is not None:
        return Certificate("LINEGRAPH_TF", payload)
    gc = g.complement()
    payload = recognize_line_graph_triangle_free(gc)
    if payload is not None:
        return Certificate("ANTI_LINEGRAPH_TF", payload)
    if not member and _holds_fork_or_antifork(adj, full):
        return None
    payload = detect_candled(g)
    if payload is not None:
        return Certificate("CANDLED", payload)
    payload = detect_candled(gc)
    if payload is not None:
        return Certificate("ANTI_CANDLED", payload)
    return None


def verify_certificate(g: Graph, cert: Certificate) -> bool:
    """True iff the certificate's payload proves its case claim about g.

    Checks the payload against the definitions only; malformed payloads
    return False rather than raising.
    """
    try:
        return _verify(g, cert)
    except (InputError, AttributeError, TypeError, KeyError, IndexError, ValueError):
        return False


def _verify(g: Graph, cert: Certificate) -> bool:
    case = cert.case
    payload = cert.payload
    if case == "NOT_UNCLUTTERED":
        return (isinstance(payload, PatternWitness)
                and payload.pattern_name in ("fork", "antifork")
                and payload.holds_in(g))
    if case == "SMALL":
        return payload is None and g.n <= 1
    if case.startswith("ANTI_"):
        case = case[len("ANTI_"):]
        g = g.complement()
    if case == "DISCONNECTED":
        return (type(payload) is tuple and payload == tuple(g.components())
                and len(payload) >= 2
                and all(type(v) is int for part in payload for v in part))
    if case == "SIMPLICIAL_TWINS":
        # adjacent twins share one closed row, a clique iff both are simplicial
        if type(payload) is not tuple:
            return False
        u, v = payload
        if not (type(u) is type(v) is int and 0 <= u < v < g.n):
            return False
        row = g.adj[u] | 1 << u
        return g.adj[v] | 1 << v == row and _is_clique_mask(g.adj, row)
    if case == "LINEGRAPH_TF":
        return _is_triangle_free_root(g, payload)
    if case == "CANDLED":
        return verify_candled(g, payload)
    return False


# -- recursive decomposition ------------------------------------------------


class DecompositionTree(NamedTuple):
    graph: Graph
    certificate: Certificate
    children: tuple["DecompositionTree", ...]


def decomposition_tree(g: Graph) -> DecompositionTree:
    """Recursively classify g down to leaves; NotUnclutteredError with the
    least witness when g is not uncluttered.

    Components, anticomponents, twin-removals, and candled rests each recurse
    on a strictly smaller induced subgraph; SMALL, the two line-graph cases,
    and pure candelabra (candled with empty rest) are leaves.  So the tree is
    at most n levels deep (one level for n <= 1).  A candled node with a
    nonempty rest carries the candelabrum part as an explicit leaf child
    ahead of the rest's subtree.

    The tree is built first and proves membership as it goes (see the
    module docstring): a split node is a member exactly when its children
    are, a line-graph leaf is one, and the fork and antifork searches decide
    the topmost nodes that reach the candled probes, whose subtrees are then
    members by heredity.  Only when a search hits, or a node matches no
    case, does is_uncluttered run, once, on g: its witness is raised, and
    without one the node is a theorem violation.
    """
    return _member_tree(g, g, False)


def _member_tree(root: Graph, g: Graph, member: bool, connected: bool = False,
                 anticonnected: bool = False) -> DecompositionTree:
    """The tree of g, a node of root's tree, given what its parent proved:
    a component is connected, an anticomponent co-connected, a twin removal
    keeps both, and a candled node is a member."""
    cert = _member_case(g, member, connected, anticonnected)
    if cert is None:
        witness = is_uncluttered(root)
        if witness is not None:
            raise NotUnclutteredError(witness)
        _matched_no_case(g)
    case = cert.case.removeprefix("ANTI_")
    adj = g.adj
    children: list[DecompositionTree] = []
    if case == "DISCONNECTED":
        split = cert.case == case
        for part in cert.payload:
            children.append(_member_tree(root, _induced(adj, _vertex_mask(part)),
                                         member, split, not split))
    elif case == "SIMPLICIAL_TWINS":
        rest = g.full_mask & ~(1 << cert.payload[0])
        children.append(_member_tree(root, _induced(adj, rest), member, True, True))
    elif case == "CANDLED":
        dec = cert.payload
        if dec.rest:
            children.append(_candelabrum_leaf(g, cert.case, dec))
            children.append(_member_tree(root, _induced(adj, _vertex_mask(dec.rest)), True))
    return DecompositionTree(g, cert, tuple(children))


def _vertex_mask(vs: tuple[int, ...]) -> int:
    mask = 0
    for v in vs:
        mask |= 1 << v
    return mask


def _candelabrum_leaf(g: Graph, case: str, dec: CandledDecomposition) -> DecompositionTree:
    """Leaf node for the candelabrum part of a candled split, relabeled."""
    body = dec.candelabrum.vertex_set
    index = {v: i for i, v in enumerate(body)}
    st = dec.candelabrum
    local = CandelabrumStructure(
        tuple(tuple(sorted(index[v] for v in p)) for p in st.clique_parts),
        tuple(tuple(sorted(index[v] for v in p)) for p in st.stable_parts),
    )
    sub = _induced(g.adj, _vertex_mask(body))
    cert = Certificate(case, CandledDecomposition(local, ()))
    return DecompositionTree(sub, cert, ())


# -- JSON forms -------------------------------------------------------------


def _witness_json(witness: PatternWitness) -> dict:
    return {"pattern": witness.pattern_name, "embedding": list(witness.embedding)}


def certificate_payload_json(cert: Certificate) -> dict:
    """Case-specific payload as JSON-ready nested lists, fixed key order."""
    case = cert.case
    payload = cert.payload
    if case == "NOT_UNCLUTTERED":
        return _witness_json(payload)
    if case == "SMALL":
        return {}
    kind = case.removeprefix("ANTI_")
    if kind == "DISCONNECTED":
        return {"parts": [list(p) for p in payload]}
    if kind == "SIMPLICIAL_TWINS":
        return {"u": payload[0], "v": payload[1]}
    if kind == "LINEGRAPH_TF":
        return {"root_n": payload.root.n,
                "root_edges": [list(e) for e in payload.root.edges()],
                "edge_map": [list(e) for e in payload.edge_map]}
    if kind == "CANDLED":
        st = payload.candelabrum
        return {"clique_parts": [list(p) for p in st.clique_parts],
                "stable_parts": [list(p) for p in st.stable_parts],
                "base": list(st.base),
                "rest": list(payload.rest)}
    raise InputError(f"unknown certificate case {case!r}")


def certificate_json(cert: Certificate) -> dict:
    return {"case": cert.case, "payload": certificate_payload_json(cert)}


def tree_json(tree: DecompositionTree) -> dict:
    return {"case": tree.certificate.case,
            "payload": certificate_payload_json(tree.certificate),
            "children": [tree_json(c) for c in tree.children]}
