"""One test per release acceptance criterion, numbered in order.

Each test is self-contained evidence for exactly one criterion; numbers,
counts, and tolerances here are contractual and must not be loosened.
"""

import io
import json
import random
import time

import pytest

import uncluttered as U
from uncluttered.cli import main

from oracles import (
    compose_candled,
    naive_find_induced,
    random_candelabrum,
    random_connected_triangle_free,
    random_graph,
)


@pytest.fixture(scope="module")
def full_audit():
    return U.audit(8)


def test_01_main_theorem_audit_clean_within_budget(monkeypatch, capsys):
    """Certified decomposition of every graph up to n=8, via the real
    command line, with zero failures, in under ten minutes."""
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    t0 = time.monotonic()
    code = main(["audit", "--n-max", "8", "--suite", "main-theorem", "--json"])
    wall = time.monotonic() - t0
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert wall < 600.0, f"audit took {wall:.1f}s"
    doc = json.loads(out)
    res = doc["suite_results"]["main-theorem"]
    assert doc["graphs_scanned"] == 13598
    assert res == {"checked": 13598, "passed": 13598, "failed": 0,
                   "failures": []}
    assert doc["case_histogram"]["THEOREM_VIOLATION"] == 0
    assert doc["case_histogram"]["NOT_UNCLUTTERED"] == 11723


def test_02_coloring_bound_holds_exactly_everywhere(full_audit):
    """Every uncluttered graph up to n=8 is colored properly with at most
    2*omega colors, and its exact chromatic number obeys the same bound."""
    assert full_audit.uncluttered_count == 1875
    res = full_audit.suite_results["chi-bound"]
    assert res["checked"] == 1875
    assert res["failed"] == 0 and res["failures"] == []


def test_03_extremal_ratios_are_exact(full_audit):
    for cycle, chi, omega in ((5, 3, 2), (7, 4, 3)):
        g = U.line_graph(U.cycle_graph(cycle)).complement()
        assert U.chromatic_number_exact(g) == chi
        assert U.clique_number(g) == omega
        coloring = U.color_uncluttered(g)
        assert U.is_proper_coloring(g, coloring.colors)
        assert coloring.num_colors <= 2 * omega
    a, b = full_audit.max_ratio
    assert (a, b) == (3, 2)
    assert 5 * a > 7 * b, "census-wide chi/omega maximum must exceed 1.4"
    assert full_audit.max_ratio_graph6 == "DUW"


def test_04_root_reconstruction_round_trip():
    rng = random.Random(0xACCE04)
    failures = []
    for i in range(200):
        root = random_connected_triangle_free(rng, rng.randint(2, 12))
        host = U.line_graph(root)
        rg = U.recognize_line_graph_triangle_free(host)
        if (rg is None or not U.verify_root(host, rg)
                or U.is_triangle_free(rg.root) is not None
                or not U.are_isomorphic(U.line_graph(rg.root), host)):
            failures.append((i, U.to_graph6(root)))
    assert failures == []


def test_05_edge_coloring_bound_on_random_graphs():
    rng = random.Random(0xACCE05)
    for _ in range(500):
        g = random_graph(rng, rng.randint(1, 14), rng.random())
        ec = U.vizing_edge_color(g)
        assert U.is_proper_edge_coloring(g, ec.assignment), U.to_graph6(g)
        delta = max((g.degree(v) for v in range(g.n)), default=0)
        assert ec.num_colors <= delta + 1, U.to_graph6(g)


def test_06_lemma_suites_exhaustively_clean(full_audit):
    expected_checked = {
        "diamond": 60,
        "mixed-triangle": 30,
        "claw-anticlaw": 185,
        "no-homog": 52,
        "prime-linegraph": 60,
    }
    for suite, checked in expected_checked.items():
        res = full_audit.suite_results[suite]
        assert res["checked"] == checked, suite
        assert res["failed"] == 0, (suite, res["failures"])
        assert res["failures"] == []


def test_07_candled_compositions_stay_uncluttered(census):
    rng = random.Random(0xACCE07)
    pool = [g for n in range(7) for g in census[n]
            if naive_find_induced(U.pattern("fork"), g) is None
            and naive_find_induced(U.pattern("antifork"), g) is None]
    assert len(pool) == 163
    for _ in range(500):
        cand, ys, zs = random_candelabrum(rng, max_k=4, max_part=2)
        rest = pool[rng.randrange(len(pool))]
        g = compose_candled(rest, cand, [v for z in zs for v in z])
        assert U.is_uncluttered(g) is None, U.to_graph6(g)


def test_08_pattern_search_agrees_with_brute_force(census):
    for name in U.PATTERN_NAMES:
        pat = U.pattern(name)
        for n in range(8):
            for g in census[n]:
                want = naive_find_induced(pat, g)
                assert U.find_induced(pat, g) == want, (name, U.to_graph6(g))
                assert U.has_induced(g, name) == (want is not None)


def test_09_codec_identity_and_report_determinism():
    rng = random.Random(0xACCE09)
    for _ in range(1000):
        g = random_graph(rng, rng.randint(0, 20), rng.random())
        assert U.from_graph6(U.to_graph6(g)) == g
    assert U.audit(6).to_json() == U.audit(6).to_json()
