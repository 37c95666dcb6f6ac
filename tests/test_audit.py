import hashlib
import sys

import pytest

import uncluttered as U
from uncluttered import InputError
from uncluttered.audit import (MAX_STORED_FAILURES, AuditReport, _every_triangle_dominating,
                               _merge, _no_dominating_clique, audit_one)
from uncluttered.graph import MAX_VERTICES

from oracles import every_triangle_dominating, no_dominating_clique

ALL_SUITES = ("main-theorem", "chi-bound", "diamond", "mixed-triangle",
              "claw-anticlaw", "no-homog", "prime-linegraph")


def test_suite_registry_is_fixed():
    assert U.SUITE_NAMES == ALL_SUITES
    assert U.SUITE_CAPS == {
        "main-theorem": MAX_VERTICES,
        "chi-bound": 8,
        "diamond": 7,
        "mixed-triangle": 7,
        "claw-anticlaw": 8,
        "no-homog": 7,
        "prime-linegraph": 7,
    }


DHC, DHO = U.from_graph6("Dhc"), U.from_graph6("DhO")


def test_audit_one_record_shape():
    rec = audit_one(DHC, ALL_SUITES)
    assert set(rec) == {"n", "uncluttered", "case", "checked", "fails", "ratio"}
    assert rec["n"] == 5
    assert rec["uncluttered"] is True
    assert rec["case"] == "LINEGRAPH_TF"
    assert rec["checked"] == list(ALL_SUITES)
    assert rec["fails"] == []
    assert rec["ratio"] == (3, 2)
    rec = audit_one(DHO, ALL_SUITES)
    assert rec["uncluttered"] is False
    assert rec["case"] == "NOT_UNCLUTTERED"
    assert rec["ratio"] is None


def test_audit_one_reads_membership_off_the_certificate(monkeypatch):
    calls = []

    def counting(g):
        calls.append(g)
        return U.is_uncluttered(g)

    # the package's `audit` function shadows the submodule of that name
    monkeypatch.setattr(sys.modules["uncluttered.audit"], "is_uncluttered", counting)
    assert audit_one(DHC, ALL_SUITES)["uncluttered"] is True
    assert audit_one(DHO, ALL_SUITES)["uncluttered"] is False
    assert calls == []
    assert audit_one(DHC, ("chi-bound",))["uncluttered"] is True
    assert audit_one(DHO, ("chi-bound",))["uncluttered"] is False
    assert len(calls) == 2


def test_chi_bound_colours_without_a_second_membership_check(monkeypatch):
    calls = []

    def counting(g):
        calls.append(g)
        return U.is_uncluttered(g)

    monkeypatch.setattr(U.chromatic, "is_uncluttered", counting)
    for suites in (ALL_SUITES, ("chi-bound",)):
        rec = audit_one(DHC, suites)
        assert "chi-bound" in rec["checked"] and rec["fails"] == []
    assert calls == []
    # the public colourer still checks its input
    U.color_uncluttered(DHC)
    assert calls == [DHC]


def test_audit_four_report_is_byte_frozen():
    r = U.audit(4)
    assert not r.failed
    assert r.to_json() == (
        '{"n_max":4,"suites":["main-theorem","chi-bound","diamond",'
        '"mixed-triangle","claw-anticlaw","no-homog","prime-linegraph"],'
        '"graphs_scanned":18,"per_n":{"1":1,"2":2,"3":4,"4":11},'
        '"uncluttered_count":18,"case_histogram":{"NOT_UNCLUTTERED":0,'
        '"SMALL":1,"DISCONNECTED":8,"ANTI_DISCONNECTED":8,'
        '"SIMPLICIAL_TWINS":0,"ANTI_SIMPLICIAL_TWINS":0,"LINEGRAPH_TF":1,'
        '"ANTI_LINEGRAPH_TF":0,"CANDLED":0,"ANTI_CANDLED":0,'
        '"THEOREM_VIOLATION":0},"suite_results":{"main-theorem":{"checked":18,'
        '"passed":18,"failed":0,"failures":[]},"chi-bound":{"checked":18,'
        '"passed":18,"failed":0,"failures":[]},"diamond":{"checked":4,'
        '"passed":4,"failed":0,"failures":[]},"mixed-triangle":{"checked":0,'
        '"passed":0,"failed":0,"failures":[]},"claw-anticlaw":{"checked":16,'
        '"passed":16,"failed":0,"failures":[]},"no-homog":{"checked":1,'
        '"passed":1,"failed":0,"failures":[]},"prime-linegraph":{"checked":4,'
        '"passed":4,"failed":0,"failures":[]}},"max_ratio":[1,1],'
        '"max_ratio_graph6":"@"}')


def test_audit_six_summary_numbers():
    r = U.audit(6)
    assert not r.failed
    assert r.graphs_scanned == 208
    assert r.per_n == {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
    assert r.uncluttered_count == 162
    hist = {c: v for c, v in r.case_histogram.items() if v}
    assert hist == {"NOT_UNCLUTTERED": 46, "SMALL": 1, "DISCONNECTED": 63,
                    "ANTI_DISCONNECTED": 63, "SIMPLICIAL_TWINS": 8,
                    "ANTI_SIMPLICIAL_TWINS": 8, "LINEGRAPH_TF": 14,
                    "ANTI_LINEGRAPH_TF": 5}
    checked = {s: r.suite_results[s]["checked"] for s in r.suites}
    assert checked == {"main-theorem": 208, "chi-bound": 162, "diamond": 22,
                       "mixed-triangle": 7, "claw-anticlaw": 68,
                       "no-homog": 16, "prime-linegraph": 22}
    assert all(r.suite_results[s]["failed"] == 0 for s in r.suites)
    assert all(r.suite_results[s]["failures"] == [] for s in r.suites)
    assert r.max_ratio == (3, 2)
    assert r.max_ratio_graph6 == "DUW"


def test_audit_json_is_deterministic():
    assert U.audit(5).to_json() == U.audit(5).to_json()


def test_audit_stream_mode():
    r = U.audit(5, graphs=["Dhc"])
    assert r.graphs_scanned == 1
    assert r.per_n == {5: 1}
    assert r.max_ratio == (3, 2) and r.max_ratio_graph6 == "Dhc"
    assert {s: r.suite_results[s]["checked"] for s in r.suites} == {
        s: 1 for s in ALL_SUITES}
    # blank lines and padding are tolerated, and the ratio leader keeps its
    # crown against later graphs with a lower ratio
    r = U.audit(5, suites=("chi-bound",), graphs=["Dhc", "", "  D~{ "])
    assert r.graphs_scanned == 2
    assert r.suite_results["chi-bound"]["checked"] == 2
    assert r.max_ratio == (3, 2) and r.max_ratio_graph6 == "Dhc"
    assert tuple(r.suites) == ("chi-bound",)


def test_audit_stream_reports_its_largest_vertex_count():
    # n_max bounds only the census; a stream reports what it scanned
    for n_max in (0, 5, 99):
        assert U.audit(n_max, graphs=["Dhc", "@"]).n_max == 5
        assert U.audit(n_max, graphs=[]).to_json_dict()["n_max"] == 0
    r = U.audit(5, suites=("chi-bound",), graphs=["Dhc", "IT}w@o|nw"])
    assert r.n_max == 10 and r.per_n == {5: 1, 10: 1}
    # chi-bound keeps its census cap, so the 10-vertex graph goes unchecked
    assert r.suite_results["chi-bound"]["checked"] == 1


def test_audit_stream_runs_the_main_theorem_past_the_census():
    r = U.audit(5, suites=("main-theorem",), graphs=["Dhc", "IT}w@o|nw"])
    assert r.failed
    assert r.case_histogram["THEOREM_VIOLATION"] == 1
    assert r.case_histogram["LINEGRAPH_TF"] == 1
    res = r.suite_results["main-theorem"]
    assert (res["checked"], res["passed"], res["failed"]) == (2, 1, 1)
    assert res["failures"] == ["IT}w@o|nw"]


def test_audit_input_validation():
    with pytest.raises(InputError):
        U.audit(4, suites=("main-theorem", "nope"))
    # a repeated name would report the suite twice over one result
    for suites in (["chi-bound", "chi-bound"], ("diamond", "chi-bound", "diamond")):
        with pytest.raises(InputError, match="named more than once"):
            U.audit(3, suites=suites)
        with pytest.raises(InputError, match="named more than once"):
            U.audit(3, suites=suites, graphs=["Dhc"])
    with pytest.raises(InputError):
        U.audit(0)
    with pytest.raises(InputError):
        U.audit(9)
    with pytest.raises(InputError):
        U.audit(4, graphs=["Dhc", "not graph6 at all"])
    # an item that is not a string is named, not read as graph6
    for item in (1, None, b"Bw"):
        with pytest.raises(InputError, match="graph6 strings, got " + repr(item)):
            U.audit(4, graphs=["Dhc", item])
    # an empty selection would pass vacuously
    for suites in ((), []):
        with pytest.raises(InputError, match="at least one suite"):
            U.audit(4, suites=suites)
        with pytest.raises(InputError, match="at least one suite"):
            U.audit(4, suites=suites, graphs=["Dhc"])



def test_audit_rejects_a_non_int_n_max_and_a_bare_string():
    for n_max in (True, False, 2.0, "4", None):
        with pytest.raises(InputError, match="n_max must be an int"):
            U.audit(n_max)
        with pytest.raises(InputError, match="n_max must be an int"):
            U.audit(n_max, graphs=["Dhc"])
    # a string is not read character by character as graph6 lines
    for graphs in ("@", "Dhc\nBg\n", ""):
        with pytest.raises(InputError, match="not one string"):
            U.audit(0, graphs=graphs)
    assert U.audit(0, graphs=["@"]).graphs_scanned == 1


def test_audit_stream_skips_the_ratio_of_the_empty_graph():
    """chi/omega is undefined on the graph with no vertices: it neither
    hides a later ratio nor reaches the text report's division."""
    r = U.audit(0, graphs=["?", "Dhc"])
    assert (r.max_ratio, r.max_ratio_graph6) == ((3, 2), "Dhc")
    assert "max chi/omega ratio: 3/2 = 1.5000 on Dhc" in r.to_text()
    r = U.audit(0, graphs=["?"])
    assert r.max_ratio is None and "ratio" not in r.to_text()


# SHA-256 of audit(7).to_json(), all suites, taken before the audit ran on
# decoded graphs and the chromatic oracle on colour-class masks.
AUDIT_SEVEN_SHA256 = "eb13f2b2de61a247bcf560fb8a8ddeda8ada67026875294ecb16234b6e60d5e9"
AUDIT_SEVEN_MAIN_CHI_SHA256 = "50fb0c5123b88798c87983f18e391576ae68913dfe8b71df61c14fdc9036894c"


def test_audit_seven_report_is_frozen():
    def digest(report):
        return hashlib.sha256(report.to_json().encode()).hexdigest()

    assert digest(U.audit(7)) == AUDIT_SEVEN_SHA256
    assert digest(U.audit(7, suites=("main-theorem", "chi-bound"))) == AUDIT_SEVEN_MAIN_CHI_SHA256


def test_enumerated_audit_encodes_only_stored_labels(monkeypatch):
    mod = sys.modules["uncluttered.audit"]
    decoded, encoded = [], []

    def counting_from(line):
        decoded.append(line)
        return U.from_graph6(line)

    def counting_to(g):
        encoded.append(U.to_graph6(g))
        return encoded[-1]

    monkeypatch.setattr(mod, "from_graph6", counting_from)
    monkeypatch.setattr(mod, "to_graph6", counting_to)
    r = U.audit(5)
    assert r.graphs_scanned == 52 and not r.failed
    assert decoded == []
    # one encoding per new chi/omega leader, the last of which is kept
    assert encoded == ["@", "DUW"] and r.max_ratio_graph6 == "DUW"


def test_mixed_triangle_kernels_agree_with_the_scans(census):
    seen = set()
    for n in range(8):
        for g in census[n]:
            for h in (g, g.complement()):
                tri, clique = every_triangle_dominating(h), no_dominating_clique(h)
                assert _every_triangle_dominating(h) == tri, U.to_graph6(h)
                assert _no_dominating_clique(h) == clique, U.to_graph6(h)
                seen.add((tri, clique))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_audit_text_rendering():
    text = U.audit(4).to_text()
    assert "audited 18 graphs (n=1: 1, n=2: 2, n=3: 4, n=4: 11), 18 uncluttered" in text
    assert "cases: SMALL 1, DISCONNECTED 8, ANTI_DISCONNECTED 8, LINEGRAPH_TF 1" in text
    assert "suite main-theorem: 18 checked, 0 failed" in text
    assert "max chi/omega ratio: 1/1 = 1.0000 on @" in text
    assert text.splitlines()[-1].startswith("wall time:")


def test_merge_bookkeeping_with_synthetic_records(census):
    """The fold counts failures, stores at most the cap, and keeps the
    strictly best ratio seen first on ties."""
    suites = ("chi-bound",)
    report = AuditReport(n_max=6, suites=suites)
    graphs = list(census[6][:MAX_STORED_FAILURES + 7])
    records = []
    for i in range(MAX_STORED_FAILURES + 5):
        records.append({"n": 6, "uncluttered": True,
                        "case": "LINEGRAPH_TF", "checked": ["chi-bound"],
                        "fails": ["chi-bound"], "ratio": (1, 1)})
    records.append({"n": 6, "uncluttered": True,
                    "case": "CANDLED", "checked": ["chi-bound"],
                    "fails": [], "ratio": (3, 2)})
    records.append({"n": 6, "uncluttered": True,
                    "case": "CANDLED", "checked": ["chi-bound"],
                    "fails": [], "ratio": (6, 4)})
    _merge(report, graphs, records)
    res = report.suite_results["chi-bound"]
    assert res["checked"] == MAX_STORED_FAILURES + 7
    assert res["failed"] == MAX_STORED_FAILURES + 5
    assert res["passed"] == 2
    assert res["failures"] == [U.to_graph6(g) for g in graphs[:MAX_STORED_FAILURES]]
    assert report.failed
    assert report.max_ratio == (3, 2)
    assert report.max_ratio_graph6 == U.to_graph6(graphs[-2])
    assert report.case_histogram["CANDLED"] == 2
