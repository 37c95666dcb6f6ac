"""Tests of the benchmark itself: inputs, failure counting and tracing."""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import run
import tracing
import uncluttered as U
from uncluttered.errors import DepthLimitError, TheoremViolationError

BENCH = Path(__file__).resolve().parent


def test_generators_repeat_for_one_seed_and_differ_across_seeds():
    for make, count in ((gen.members_large, 10), (gen.members_deep, 12)):
        a, b, c = make(7, count), make(7, count), make(8, count)
        assert [i.line() for i in a] == [i.line() for i in b]
        assert gen.inputs_sha256(a) == gen.inputs_sha256(b)
        assert gen.inputs_sha256(a) != gen.inputs_sha256(c)


def test_streams_follow_their_schedules():
    large = gen.members_large(3, 20)
    assert [U.from_graph6(i.g6).n for i in large[:8]] == list(gen.LARGE_SIZES)
    assert [i.member for i in large] == [not i.kind.startswith("near") for i in large]
    deep = gen.members_deep(3, 12)
    assert not {i.g6 for i in deep} & set(gen.REGRESSIONS)
    assert [U.from_graph6(i.g6).n for i in deep] == list(gen.DEEP_SIZES[:12])
    assert tuple(i.g6 for i in gen.regressions()) == gen.REGRESSIONS


def test_known_regressions_are_reported_apart_from_the_stream():
    outcome = run.known_regressions("members-deep")
    assert outcome["graphs"] == len(gen.REGRESSIONS)
    assert outcome["failed"] == sum(outcome["failures"].values())
    assert run.known_regressions("members-large") == "n/a"


def test_own_check_agrees_with_the_package():
    rng = random.Random(11)
    for _ in range(1500):
        n = rng.randrange(1, 10)
        p = rng.random()
        g = U.Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                        if rng.random() < p])
        assert gen.is_member(list(g.adj)) == (U.is_uncluttered(g) is None), U.to_graph6(g)


def test_generated_graphs_have_the_claimed_membership():
    for item in gen.members_deep(5, 8) + gen.members_large(5, 20)[15:20]:
        g = U.from_graph6(item.g6)
        if g.n <= 24:
            assert (U.is_uncluttered(g) is None) == item.member, item.g6
    assert all(gen.is_member(list(U.from_graph6(g6).adj)) for g6 in gen.REGRESSIONS)


class _Raising:
    """Workload stand-in whose operations raise or return wrong outputs."""
    name = "stub"
    items = [TheoremViolationError("x"), DepthLimitError("y"), KeyError("z"),
             "wrong", "right"]

    def run(self, i):
        if isinstance(self.items[i], Exception):
            raise self.items[i]
        return self.items[i]

    def check(self, i, out):
        return out == "right", json.dumps(out), 1, None


def test_raising_operations_are_counted_not_propagated():
    loop = run.Loop(_Raising(), count=10)
    assert loop.ops == 10 and loop.failed == 8
    assert loop.failures == {"TheoremViolationError": 2, "DepthLimitError": 2,
                             "other:KeyError": 2, "wrong-output": 2}
    assert loop.graphs == 4 and loop.outputs_covered == 5


def _namespaces():
    return {name: dict(vars(mod)) for name, mod in tracing.package_modules().items()}


def _same(before, after):
    assert before.keys() == after.keys()
    for name, attrs in before.items():
        now = after[name]
        assert attrs.keys() <= now.keys(), name
        for attr, val in attrs.items():
            assert now[attr] is val, (name, attr)


def test_tracer_wraps_every_binding_and_restores_it():
    import uncluttered.cli  # noqa: F401
    before = _namespaces()
    tracer = tracing.Tracer()
    with tracer.installed():
        import uncluttered.decompose as D
        import uncluttered.chromatic as C
        assert D.is_uncluttered is not before["uncluttered.patterns"]["is_uncluttered"]
        assert C.is_uncluttered is D.is_uncluttered
        assert U.classify is D.classify
        U.classify(U.cycle_graph(5))
    _same(before, _namespaces())
    names = {s[0] for s in tracer.spans}
    assert {"decompose.classify", "patterns.is_uncluttered",
            "structure.recognize_line_graph_triangle_free"} <= names
    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            1 / 0
    _same(before, _namespaces())


def test_self_times_and_harness_account_for_the_wall_time():
    spans = [("a", 0.0, 4.0, -1, 0, True, None), ("b", 1.0, 3.0, 0, 0, False, None),
             ("decompose.classify", 1.5, 2.0, 1, 0, True, "CANDLED"),
             ("patterns.is_uncluttered", 5.0, 6.0, -1, 1, False, None)]
    m = tracing.layer_metrics(spans, 10.0)
    assert m["harness.self_s"] == pytest.approx(5.0)
    assert m["decompose.classify.CANDLED.calls"] == 1
    assert m["patterns.is_uncluttered.member.self_s"] == pytest.approx(1.0)
    assert m["patterns.is_uncluttered.hit_ratio"] == 0.0


def test_traced_run_leaves_namespaces_as_found(tmp_path, monkeypatch):
    import uncluttered.cli  # noqa: F401
    monkeypatch.setattr(run, "BUILD", tmp_path)
    monkeypatch.setattr(run, "ROOT", tmp_path)
    full = gen.members_large
    monkeypatch.setattr(gen, "members_large", lambda seed: full(seed, 5))
    before = _namespaces()
    info, result = run.traced("members-large", 2, 0.01)
    _same(before, _namespaces())
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _, _ in run.per_layer_spec()}
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["decompose.classify.calls"] >= 1 and m["cli.classify.graphs_per_s"] > 0
    layers = sum(v for k, v in m.items() if k.endswith(".self_s")
                 and ".member." not in k and ".rejected." not in k)
    assert layers == pytest.approx(m["trace.wall_s"])
    assert (tmp_path / info["spans_file"]).is_file()


def test_cli_tracebacks_count_as_failed_lines(tmp_path):
    lines = [U.to_graph6(U.cycle_graph(5)), gen.REGRESSIONS[0], U.to_graph6(U.path_graph(4))]
    tracer = tracing.Tracer()
    with tracer.installed():
        n, failed, spent = run.cli_pass(tracer, "classify", lines, tmp_path / "in.g6")
    assert (n, failed) == (3, 1) and spent > 0
    assert sum(1 for s in tracer.spans if s[0] == "cli.classify") == 2


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == run.per_layer_spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "members-large",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
