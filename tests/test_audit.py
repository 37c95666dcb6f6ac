import sys

import pytest

import uncluttered as U
from uncluttered import InputError
from uncluttered.audit import MAX_STORED_FAILURES, AuditReport, _merge, audit_one

ALL_SUITES = ("main-theorem", "chi-bound", "diamond", "mixed-triangle",
              "claw-anticlaw", "no-homog", "prime-linegraph")


def test_suite_registry_is_fixed():
    assert U.SUITE_NAMES == ALL_SUITES
    assert U.SUITE_CAPS == {
        "main-theorem": 8,
        "chi-bound": 8,
        "diamond": 7,
        "mixed-triangle": 7,
        "claw-anticlaw": 8,
        "no-homog": 7,
        "prime-linegraph": 7,
    }


def test_audit_one_record_shape():
    rec = audit_one("Dhc", ALL_SUITES)
    assert rec["n"] == 5 and rec["g6"] == "Dhc"
    assert rec["uncluttered"] is True
    assert rec["case"] == "LINEGRAPH_TF"
    assert rec["checked"] == list(ALL_SUITES)
    assert rec["fails"] == []
    assert rec["ratio"] == (3, 2)
    rec = audit_one("DhO", ALL_SUITES)
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
    assert audit_one("Dhc", ALL_SUITES)["uncluttered"] is True
    assert audit_one("DhO", ALL_SUITES)["uncluttered"] is False
    assert calls == []
    assert audit_one("Dhc", ("chi-bound",))["uncluttered"] is True
    assert audit_one("DhO", ("chi-bound",))["uncluttered"] is False
    assert len(calls) == 2


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


def test_audit_json_is_deterministic_and_jobs_invariant():
    a = U.audit(5).to_json()
    b = U.audit(5).to_json()
    c = U.audit(5, jobs=2).to_json()
    assert a == b == c


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


def test_audit_input_validation():
    with pytest.raises(InputError):
        U.audit(4, suites=("main-theorem", "nope"))
    with pytest.raises(InputError):
        U.audit(0)
    with pytest.raises(InputError):
        U.audit(9)
    with pytest.raises(InputError):
        U.audit(4, graphs=["Dhc", "not graph6 at all"])


def test_audit_text_rendering():
    text = U.audit(4).to_text()
    assert "audited 18 graphs (n=1: 1, n=2: 2, n=3: 4, n=4: 11), 18 uncluttered" in text
    assert "cases: SMALL 1, DISCONNECTED 8, ANTI_DISCONNECTED 8, LINEGRAPH_TF 1" in text
    assert "suite main-theorem: 18 checked, 0 failed" in text
    assert "max chi/omega ratio: 1/1 = 1.0000 on @" in text
    assert text.splitlines()[-1].startswith("wall time:")


def test_merge_bookkeeping_with_synthetic_records():
    """The fold counts failures, stores at most the cap, and keeps the
    strictly best ratio seen first on ties."""
    suites = ("chi-bound",)
    report = AuditReport(n_max=5, suites=suites)
    report.case_histogram = {c: 0 for c in U.ALL_CASES + ("THEOREM_VIOLATION",)}
    report.suite_results = {s: {"checked": 0, "passed": 0, "failed": 0,
                                "failures": []} for s in suites}
    records = []
    for i in range(MAX_STORED_FAILURES + 5):
        records.append({"n": 5, "g6": f"fake{i}", "uncluttered": True,
                        "case": "LINEGRAPH_TF", "checked": ["chi-bound"],
                        "fails": ["chi-bound"], "ratio": (1, 1)})
    records.append({"n": 5, "g6": "good", "uncluttered": True,
                    "case": "CANDLED", "checked": ["chi-bound"],
                    "fails": [], "ratio": (3, 2)})
    records.append({"n": 5, "g6": "tied", "uncluttered": True,
                    "case": "CANDLED", "checked": ["chi-bound"],
                    "fails": [], "ratio": (6, 4)})
    _merge(report, records)
    res = report.suite_results["chi-bound"]
    assert res["checked"] == MAX_STORED_FAILURES + 7
    assert res["failed"] == MAX_STORED_FAILURES + 5
    assert res["passed"] == 2
    assert len(res["failures"]) == MAX_STORED_FAILURES
    assert res["failures"][0] == "fake0"
    assert report.failed
    assert report.max_ratio == (3, 2)
    assert report.max_ratio_graph6 == "good"
    assert report.case_histogram["CANDLED"] == 2
