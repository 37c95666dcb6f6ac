"""Total classification of uncluttered graphs with re-verifiable certificates.

Every uncluttered graph on at least two vertices falls to at least one of
eight cases: the four base cases of ``_CASES`` (disconnected, adjacent
simplicial twins, line graph of a triangle-free graph, candled), each tried
on g and then on its complement, where a hit is named with the ``ANTI_``
prefix.  classify returns the first hit in that order together with
evidence; verify_certificate rechecks the evidence from scratch, sharing no
state with the classifier beyond the basic graph predicates, and reads an
``ANTI_`` case as the base case on the complement.  decomposition_tree
recognizes membership once, at its root: the class is hereditary, so every
node below is a member and is only split.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InputError, NotUnclutteredError, TheoremViolationError
from .graph import Graph, _component_masks, _is_clique_mask, _mask_to_tuple
from .graphio import to_graph6
from .modular import _anti_simplicial_twins, find_adjacent_simplicial_twins
from .patterns import PatternWitness, is_uncluttered
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
    return _member_case(g)


def _member_case(g: Graph) -> Certificate:
    """classify for a graph already known to be uncluttered.

    Each case is tried on g and then on its complement, whose hit is named
    with the ANTI_ prefix.  The first two complement probes read g's own
    rows: anticomponents come from the flipped sweep, and the complement's
    adjacent simplicial twins are g's nonadjacent twins whose shared
    non-neighbourhood is stable.  The complement is built only for the line
    and candled probes.
    """
    if g.n <= 1:
        return Certificate("SMALL", None)
    adj, full = g.adj, g.full_mask
    for case, flip in (("DISCONNECTED", 0), ("ANTI_DISCONNECTED", full)):
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
    gc = None
    for case, find in (("LINEGRAPH_TF", recognize_line_graph_triangle_free),
                       ("CANDLED", detect_candled)):
        payload = find(g)
        if payload is not None:
            return Certificate(case, payload)
        if gc is None:
            gc = g.complement()
        payload = find(gc)
        if payload is not None:
            return Certificate("ANTI_" + case, payload)
    raise TheoremViolationError(
        f"uncluttered graph {to_graph6(g)!r} matched no decomposition case")


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
    """Recursively classify g down to leaves.

    Components, anticomponents, twin-removals, and candled rests each recurse
    on a strictly smaller induced subgraph; SMALL, the two line-graph cases,
    and pure candelabra (candled with empty rest) are leaves.  So the tree is
    at most n levels deep (one level for n <= 1).  A candled node with a
    nonempty rest carries the candelabrum part as an explicit leaf child
    ahead of the rest's subtree.  Membership is recognized once, at the
    root: every node below is an induced subgraph of g, and the class is
    hereditary.
    """
    witness = is_uncluttered(g)
    if witness is not None:
        raise NotUnclutteredError(witness)
    return _member_tree(g)


def _member_tree(g: Graph) -> DecompositionTree:
    cert = _member_case(g)
    case = cert.case.removeprefix("ANTI_")
    children: list[DecompositionTree] = []
    if case == "DISCONNECTED":
        for part in cert.payload:
            children.append(_member_tree(g.induced(part)))
    elif case == "SIMPLICIAL_TWINS":
        u = cert.payload[0]
        rest = [w for w in range(g.n) if w != u]
        children.append(_member_tree(g.induced(rest)))
    elif case == "CANDLED":
        dec = cert.payload
        if dec.rest:
            children.append(_candelabrum_leaf(g, cert.case, dec))
            children.append(_member_tree(g.induced(dec.rest)))
    return DecompositionTree(g, cert, tuple(children))


def _candelabrum_leaf(g: Graph, case: str, dec: CandledDecomposition) -> DecompositionTree:
    """Leaf node for the candelabrum part of a candled split, relabeled."""
    body = dec.candelabrum.vertex_set
    index = {v: i for i, v in enumerate(body)}
    st = dec.candelabrum
    local = CandelabrumStructure(
        tuple(tuple(sorted(index[v] for v in p)) for p in st.clique_parts),
        tuple(tuple(sorted(index[v] for v in p)) for p in st.stable_parts),
    )
    sub = g.induced(body)
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
