"""Exhaustive lemma audits over all small graphs up to isomorphism.

Each suite re-proves one structural statement empirically across every graph
whose size its cap allows, and any failure names the offending graph in
graph6 form.  The suites run on ``Graph`` objects: enumerated graphs go in
as the census built them and a graph6 stream is decoded once, and only a
graph that the report stores (a failure or a new best chi/omega ratio) is
encoded back to graph6.  The per-graph records are folded in input order,
and the JSON form never contains timing, so equal inputs give byte-equal
reports.
"""

from __future__ import annotations

import json
import time

from .census import MAX_CENSUS_N, enumerate_graphs
from .chromatic import _color_member, chromatic_number_exact, clique_number, is_proper_coloring
from .decompose import ALL_CASES, classify, verify_certificate
from .errors import InputError, TheoremViolationError
from .graph import MAX_VERTICES, Graph, _is_clique_mask, _iterate, _mask_to_tuple
from .graphio import from_graph6, to_graph6
from .modular import find_adjacent_simplicial_twins, find_nontrivial_homogeneous_set
from .patterns import has_induced, is_uncluttered
from .structure import detect_candled, is_line_graph_of_bipartite, recognize_line_graph_triangle_free

SUITE_CAPS = {
    "main-theorem": MAX_VERTICES,
    "chi-bound": 8,
    "diamond": 7,
    "mixed-triangle": 7,
    "claw-anticlaw": 8,
    "no-homog": 7,
    "prime-linegraph": 7,
}
SUITE_NAMES = tuple(SUITE_CAPS)
HISTOGRAM_CASES = ALL_CASES + ("THEOREM_VIOLATION",)
MAX_STORED_FAILURES = 32


def _every_diamond_dominating(g: Graph) -> bool:
    """True iff every induced diamond and both of its triangles dominate g.

    For an edge bc with common neighbours C, a in C makes a diamond's
    triangle abc exactly when a misses some other vertex of C.  A diamond
    dominates when its triangles do, and the three rows of a triangle
    together make its closed neighbourhood.
    """
    adj, full = g.adj, g.full_mask
    for b, c in g.edges():
        common = adj[b] & adj[c]
        m = common
        while m:
            low = m & -m
            row = adj[low.bit_length() - 1]
            if common & ~row & ~low and (row | adj[b] | adj[c]) != full:
                return False
            m ^= low
    return True


def _every_triangle_dominating(g: Graph) -> bool:
    """True iff every triangle dominates g: for each edge bc, every common
    neighbour a must give N[a] | N[b] | N[c] = V."""
    adj, full = g.adj, g.full_mask
    for b, c in g.edges():
        m = adj[b] & adj[c]
        while m:
            low = m & -m
            if (adj[low.bit_length() - 1] | adj[b] | adj[c]) != full:
                return False
            m ^= low
    return True


def _no_dominating_clique(g: Graph) -> bool:
    """True iff no nonempty clique of g dominates it."""
    adj, full = g.adj, g.full_mask
    for mask in range(1, full + 1):
        if _is_clique_mask(adj, mask):
            closed = mask
            for v in _mask_to_tuple(mask):
                closed |= adj[v]
            if closed == full:
                return False
    return True


def _max_degree(g: Graph) -> int:
    return max((g.degree(v) for v in range(g.n)), default=0)


def audit_one(g: Graph, suites: tuple[str, ...]) -> dict:
    """All selected suite checks for one graph; returns a mergeable record."""
    n = g.n
    record = {"n": n, "uncluttered": None, "case": None,
              "checked": [], "fails": [], "ratio": None}

    prime = None

    def is_prime() -> bool:
        nonlocal prime
        if prime is None:
            prime = find_nontrivial_homogeneous_set(g) is None
        return prime

    if "main-theorem" in suites and n <= SUITE_CAPS["main-theorem"]:
        record["checked"].append("main-theorem")
        try:
            cert = classify(g)
            record["case"] = cert.case
            if not verify_certificate(g, cert):
                record["fails"].append("main-theorem")
        except TheoremViolationError:
            # classify raises only after finding g uncluttered
            record["case"] = "THEOREM_VIOLATION"
            record["fails"].append("main-theorem")
        uncl = record["case"] != "NOT_UNCLUTTERED"
    else:
        uncl = is_uncluttered(g) is None
    record["uncluttered"] = uncl

    if "chi-bound" in suites and n <= SUITE_CAPS["chi-bound"] and uncl:
        record["checked"].append("chi-bound")
        # membership is already in the record, so colour without rechecking it
        coloring = _color_member(g)
        # omega from the exact oracle, so the colorer's own figure is checked
        omega = clique_number(g)
        chi = chromatic_number_exact(g)
        ok = (coloring.omega_used == omega
              and is_proper_coloring(g, coloring.colors)
              and coloring.num_colors <= 2 * omega
              and chi <= 2 * omega)
        if not ok:
            record["fails"].append("chi-bound")
        if omega:  # chi/omega is undefined on the graph with no vertices
            record["ratio"] = (chi, omega)

    if "diamond" in suites and n <= SUITE_CAPS["diamond"] and uncl and is_prime():
        record["checked"].append("diamond")
        if not _every_diamond_dominating(g):
            record["fails"].append("diamond")

    if ("mixed-triangle" in suites and n <= SUITE_CAPS["mixed-triangle"]
            and uncl and is_prime() and not is_line_graph_of_bipartite(g)):
        record["checked"].append("mixed-triangle")
        if not (_every_triangle_dominating(g) or _no_dominating_clique(g)):
            record["fails"].append("mixed-triangle")

    if ("claw-anticlaw" in suites and n <= SUITE_CAPS["claw-anticlaw"]
            and not has_induced(g, "claw") and not has_induced(g, "anticlaw")):
        record["checked"].append("claw-anticlaw")
        if not any(_max_degree(h) <= 2 or is_line_graph_of_bipartite(h)
                   for h in (g, g.complement())):
            record["fails"].append("claw-anticlaw")

    if "no-homog" in suites and n <= SUITE_CAPS["no-homog"] and uncl:
        gc = g.complement()
        if (g.is_connected() and gc.is_connected()
                and find_adjacent_simplicial_twins(g) is None
                and find_adjacent_simplicial_twins(gc) is None
                and detect_candled(g) is None
                and detect_candled(gc) is None):
            record["checked"].append("no-homog")
            if not is_prime():
                record["fails"].append("no-homog")

    if ("prime-linegraph" in suites and n <= SUITE_CAPS["prime-linegraph"]
            and uncl and is_prime()):
        record["checked"].append("prime-linegraph")
        if (recognize_line_graph_triangle_free(g) is None
                and recognize_line_graph_triangle_free(g.complement()) is None):
            record["fails"].append("prime-linegraph")

    return record


class AuditReport:
    def __init__(self, n_max: int, suites: tuple[str, ...]):
        self.n_max = n_max
        self.suites = suites
        self.graphs_scanned = 0
        self.per_n: dict = {}
        self.uncluttered_count = 0
        self.case_histogram = {c: 0 for c in HISTOGRAM_CASES}
        self.suite_results = {s: {"checked": 0, "passed": 0, "failed": 0,
                                  "failures": []} for s in suites}
        self.max_ratio: tuple[int, int] | None = None
        self.max_ratio_graph6: str | None = None
        self.wall_seconds = 0.0

    @property
    def failed(self) -> bool:
        return any(r["failed"] for r in self.suite_results.values())

    def to_json_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "suites": list(self.suites),
            "graphs_scanned": self.graphs_scanned,
            "per_n": {str(k): self.per_n[k] for k in sorted(self.per_n)},
            "uncluttered_count": self.uncluttered_count,
            "case_histogram": self.case_histogram,
            "suite_results": self.suite_results,
            "max_ratio": list(self.max_ratio) if self.max_ratio else None,
            "max_ratio_graph6": self.max_ratio_graph6,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    def to_text(self) -> str:
        lines = [f"audited {self.graphs_scanned} graphs "
                 f"({', '.join(f'n={k}: {v}' for k, v in sorted(self.per_n.items()))}), "
                 f"{self.uncluttered_count} uncluttered"]
        counted = {c: v for c, v in self.case_histogram.items() if v}
        if counted:
            lines.append("cases: " + ", ".join(f"{c} {v}" for c, v in counted.items()))
        for name in self.suites:
            r = self.suite_results[name]
            line = f"suite {name}: {r['checked']} checked, {r['failed']} failed"
            if r["failures"]:
                line += " [" + " ".join(r["failures"]) + "]"
            lines.append(line)
        if self.max_ratio:
            a, b = self.max_ratio
            lines.append(f"max chi/omega ratio: {a}/{b} = {a / b:.4f} "
                         f"on {self.max_ratio_graph6}")
        lines.append(f"wall time: {self.wall_seconds:.1f}s")
        return "\n".join(lines)


def audit(n_max: int, suites=None, graphs=None) -> AuditReport:
    """Run the selected suites, in this process, over the census graphs with
    1 <= n <= n_max, or over ``graphs`` when given.

    ``n_max`` applies only to the census and must lie in 1..MAX_CENSUS_N.
    ``graphs`` is an iterable of graph6 strings, each decoded once and still
    gated by the per-suite size caps; the report's n_max is then the largest
    vertex count scanned (0 for an empty stream).  ``suites`` (default: all)
    is an iterable of suite names, not one string, and must name at least
    one suite, and each only once.
    """
    t0 = time.monotonic()
    if isinstance(suites, str):
        raise InputError("suites must be an iterable of suite names, not one string")
    suites = SUITE_NAMES if suites is None else tuple(_iterate(suites, "suites"))
    if not suites:
        raise InputError(f"audit needs at least one suite; known: {', '.join(SUITE_NAMES)}")
    for s in suites:
        if not isinstance(s, str) or s not in SUITE_CAPS:
            raise InputError(f"unknown suite {s!r}; known: {', '.join(SUITE_NAMES)}")
        if suites.count(s) > 1:
            raise InputError(f"suite {s!r} is named more than once")
    if type(n_max) is not int:
        raise InputError(f"n_max must be an int, got {n_max!r}")
    if isinstance(graphs, str):
        raise InputError("graphs must be an iterable of graph6 strings, not one string")
    if graphs is None:
        if not 1 <= n_max <= MAX_CENSUS_N:
            raise InputError(f"audit needs 1 <= n_max <= {MAX_CENSUS_N}, got {n_max}")
        work = [g for n in range(1, n_max + 1) for g in enumerate_graphs(n)]
    else:
        work = []
        for line in _iterate(graphs, "graphs"):
            if not isinstance(line, str):
                raise InputError(f"graphs must hold graph6 strings, got {line!r}")
            if line.strip():
                work.append(from_graph6(line.strip()))
        n_max = max((g.n for g in work), default=0)
    report = AuditReport(n_max=n_max, suites=suites)
    _merge(report, work, (audit_one(g, suites) for g in work))
    report.wall_seconds = time.monotonic() - t0
    return report


def _merge(report: AuditReport, graphs, records) -> None:
    """Fold each graph's record into the report, in input order.

    A graph is encoded to graph6 only when the report stores it: as one of
    the first MAX_STORED_FAILURES failures of a suite, or as a new best ratio.
    """
    best = None
    for g, rec in zip(graphs, records):
        report.graphs_scanned += 1
        report.per_n[rec["n"]] = report.per_n.get(rec["n"], 0) + 1
        if rec["uncluttered"]:
            report.uncluttered_count += 1
        if rec["case"] is not None:
            report.case_histogram[rec["case"]] += 1
        for s in rec["checked"]:
            result = report.suite_results[s]
            result["checked"] += 1
            if s in rec["fails"]:
                result["failed"] += 1
                if len(result["failures"]) < MAX_STORED_FAILURES:
                    result["failures"].append(to_graph6(g))
            else:
                result["passed"] += 1
        if rec["ratio"] is not None:
            chi, om = rec["ratio"]
            if best is None or chi * best[1] > best[0] * om:
                best = (chi, om)
                report.max_ratio_graph6 = to_graph6(g)
    report.max_ratio = best

