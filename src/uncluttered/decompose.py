"""Total classification of uncluttered graphs with re-verifiable certificates.

Every uncluttered graph on at least two vertices falls to at least one of
eight cases (four, each doubled by complementation): disconnected, adjacent
simplicial twins, line graph of a triangle-free graph, or candled.  classify
tests them in a fixed documented order and returns the first hit together
with evidence; verify_certificate rechecks the evidence from scratch, sharing
no state with the classifier beyond the basic graph predicates.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DepthLimitError, InputError, NotUnclutteredError, TheoremViolationError
from .graph import Graph
from .graphio import to_graph6
from .modular import are_twins, find_adjacent_simplicial_twins, is_simplicial
from .patterns import PatternWitness, is_uncluttered, pattern
from .structure import (
    CandelabrumStructure,
    CandledDecomposition,
    RootGraph,
    detect_candled,
    is_triangle_free,
    recognize_line_graph_triangle_free,
    verify_candled,
    verify_root,
)

CASE_ORDER = (
    "DISCONNECTED",
    "ANTI_DISCONNECTED",
    "SIMPLICIAL_TWINS",
    "ANTI_SIMPLICIAL_TWINS",
    "LINEGRAPH_TF",
    "ANTI_LINEGRAPH_TF",
    "CANDLED",
    "ANTI_CANDLED",
)
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
    if g.n <= 1:
        return Certificate("SMALL", None)
    if not g.is_connected():
        return Certificate("DISCONNECTED", tuple(g.components()))
    gc = g.complement()
    if not gc.is_connected():
        return Certificate("ANTI_DISCONNECTED", tuple(gc.components()))
    pair = find_adjacent_simplicial_twins(g)
    if pair is not None:
        return Certificate("SIMPLICIAL_TWINS", (pair.u, pair.v))
    pair = find_adjacent_simplicial_twins(gc)
    if pair is not None:
        return Certificate("ANTI_SIMPLICIAL_TWINS", (pair.u, pair.v))
    rg = recognize_line_graph_triangle_free(g)
    if rg is not None:
        return Certificate("LINEGRAPH_TF", rg)
    rg = recognize_line_graph_triangle_free(gc)
    if rg is not None:
        return Certificate("ANTI_LINEGRAPH_TF", rg)
    dec = detect_candled(g)
    if dec is not None:
        return Certificate("CANDLED", dec)
    dec = detect_candled(gc)
    if dec is not None:
        return Certificate("ANTI_CANDLED", dec)
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
        if not isinstance(payload, PatternWitness):
            return False
        if payload.pattern_name not in ("fork", "antifork"):
            return False
        if payload.pattern != pattern(payload.pattern_name):
            return False
        return payload.holds_in(g)
    if case == "SMALL":
        return payload is None and g.n <= 1
    if case == "DISCONNECTED":
        return tuple(payload) == tuple(g.components()) and len(payload) >= 2
    if case == "ANTI_DISCONNECTED":
        anti = tuple(g.complement().components())
        return tuple(payload) == anti and len(payload) >= 2
    if case == "SIMPLICIAL_TWINS":
        u, v = payload
        return (0 <= u < v < g.n and g.has_edge(u, v)
                and are_twins(g, u, v)
                and is_simplicial(g, u) and is_simplicial(g, v))
    if case == "ANTI_SIMPLICIAL_TWINS":
        u, v = payload
        gc = g.complement()
        return (0 <= u < v < g.n and gc.has_edge(u, v)
                and are_twins(gc, u, v)
                and is_simplicial(gc, u) and is_simplicial(gc, v))
    if case == "LINEGRAPH_TF":
        if not isinstance(payload, RootGraph):
            return False
        return verify_root(g, payload) and is_triangle_free(payload.root) is None
    if case == "ANTI_LINEGRAPH_TF":
        if not isinstance(payload, RootGraph):
            return False
        gc = g.complement()
        return verify_root(gc, payload) and is_triangle_free(payload.root) is None
    if case == "CANDLED":
        if not isinstance(payload, CandledDecomposition):
            return False
        return verify_candled(g, payload)
    if case == "ANTI_CANDLED":
        if not isinstance(payload, CandledDecomposition):
            return False
        return verify_candled(g.complement(), payload)
    return False


# -- recursive decomposition ------------------------------------------------


class DecompositionTree(NamedTuple):
    graph: Graph
    certificate: Certificate
    children: tuple["DecompositionTree", ...]


def decomposition_tree(g: Graph, depth_limit: int | None = None) -> DecompositionTree:
    """Recursively classify g down to leaves.

    Components, anticomponents, twin-removals, and candled rests each recurse
    on a strictly smaller induced subgraph; SMALL, the two line-graph cases,
    and pure candelabra (candled with empty rest) are leaves.  A candled node
    with a nonempty rest carries the candelabrum part as an explicit leaf
    child ahead of the rest's subtree.
    """
    if depth_limit is None:
        depth_limit = 2 * g.n + 2
    if depth_limit <= 0:
        raise DepthLimitError("decomposition recursion exceeded its depth budget")
    cert = classify(g)
    case = cert.case
    if case == "NOT_UNCLUTTERED":
        raise NotUnclutteredError(cert.payload)
    children: list[DecompositionTree] = []
    if case in ("DISCONNECTED", "ANTI_DISCONNECTED"):
        for part in cert.payload:
            children.append(decomposition_tree(g.induced(part), depth_limit - 1))
    elif case in ("SIMPLICIAL_TWINS", "ANTI_SIMPLICIAL_TWINS"):
        u = cert.payload[0]
        rest = [w for w in range(g.n) if w != u]
        children.append(decomposition_tree(g.induced(rest), depth_limit - 1))
    elif case in ("CANDLED", "ANTI_CANDLED"):
        dec = cert.payload
        if dec.rest:
            children.append(_candelabrum_leaf(g, case, dec))
            children.append(decomposition_tree(g.induced(dec.rest), depth_limit - 1))
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


def certificate_payload_json(cert: Certificate) -> dict:
    """Case-specific payload as JSON-ready nested lists, fixed key order."""
    case = cert.case
    payload = cert.payload
    if case == "NOT_UNCLUTTERED":
        return {"pattern": payload.pattern_name,
                "embedding": list(payload.embedding)}
    if case == "SMALL":
        return {}
    if case in ("DISCONNECTED", "ANTI_DISCONNECTED"):
        return {"parts": [list(p) for p in payload]}
    if case in ("SIMPLICIAL_TWINS", "ANTI_SIMPLICIAL_TWINS"):
        return {"u": payload[0], "v": payload[1]}
    if case in ("LINEGRAPH_TF", "ANTI_LINEGRAPH_TF"):
        return {"root_n": payload.root.n,
                "root_edges": [list(e) for e in payload.root.edges()],
                "edge_map": [list(e) for e in payload.edge_map]}
    if case in ("CANDLED", "ANTI_CANDLED"):
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
