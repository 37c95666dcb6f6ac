"""Benchmark for the uncluttered package.

    python3 bench/run.py --workload members-large --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

Each workload runs in this fresh single-threaded interpreter as a closed loop
with one client: the next operation starts when the previous one returns,
until the operations have taken ``--seconds`` of wall time.  The package is
driven only through its public functions, and every output is checked.
Workloads (see bench/README.md for why each exists):

  census-audit   build the census for n <= 7, then audit it with the
                 main-theorem and chi-bound suites, pass after pass
  members-large  classify (+ verify_certificate) or color_uncluttered on
                 members and near-members with 24..40 vertices
  members-deep   decomposition_tree, verify_certificate on every node, and
                 color_uncluttered on composed members with 10..34 vertices;
                 after the timed loop, the same operation once on each named
                 regression, reported in the info line and not counted in
                 attempted or failed

With ``--trace 0`` the last stdout line is the end-to-end result; with
``--trace 1`` it holds the per-layer metrics of a traced pass over the same
operations (spans go to .bench_build/).  The line before it is a JSON record
of the run environment, sample counts, digests and failure kinds.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
WORKLOADS = ("census-audit", "members-large", "members-deep")
CENSUS_N = 7
AUDIT_SUITES = ("main-theorem", "chi-bound")
# Fresh interpreters behind each setup_s median, spread over the timed loop
# so that they see the machine at several moments, not one.
SETUP_SAMPLES = {"census-audit": 5, "members-large": 11, "members-deep": 11}
CLI_COMMAND = {"members-large": "classify", "members-deep": "color"}
DIGEST_OPS = 16  # outputs covered by outputs_sha256 on the streams
# Operations per block: a loop stops only at a block boundary.  One census
# audit; on members-large sizes and kinds repeat every 8 slots, on
# members-deep sizes and composition shapes every 16 (gen.py).
BLOCK = {"census-audit": 1, "members-large": 8, "members-deep": 16}
TRACED_AUDIT_PASSES = 5  # an audit pass makes about 20,000 spans
CLI_LINES = 16  # graphs fed through the CLI in a traced run
P90_MIN_SAMPLES = 100
REF_PROBE_S = 0.010  # probe time that defines the reference speed
PROBE_EVERY_S = 0.5
PROBE_REPEATS = 3

END_TO_END = (  # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("graphs_per_s", "graphs/s", "higher", 0.2),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


def import_package() -> None:
    import uncluttered.cli  # noqa: F401  (loads every module of the package)


def build(workload: str) -> None:
    """Work a workload needs before its first operation."""
    if workload == "census-audit":
        import uncluttered
        uncluttered.enumerate_graphs(CENSUS_N)


@functools.cache
def _calibration():
    import gen
    rows = gen.line_graph(gen.triangle_free_edges(random.Random(0), 18))
    return rows, tuple(combinations(range(5), 2)), frozenset(range(0, 1 << 10, 7))


def probe() -> float:
    """Seconds for the benchmark's reference loop: every 5-subset of a fixed
    18-vertex graph gets its adjacency code built and looked up in a set.

    That is the same kind of Python work as the package's hot loops, but the
    probe never calls the package.  This shared machine's speed drifts by
    tens of percent over seconds, so every reported time is scaled by
    REF_PROBE_S / (probe time around it): a time in reference seconds.
    The loop runs PROBE_REPEATS times and the median counts: it follows the
    machine's typical speed of the moment, as the timed work sees it, but one
    interruption of a probe does not rescale the operations around it.
    """
    rows, pairs, codes = _calibration()
    times = []
    for _ in range(PROBE_REPEATS):
        hits = 0
        t0 = time.perf_counter()
        for sub in combinations(range(len(rows)), 5):
            code = 0
            for bit, (a, b) in enumerate(pairs):
                if rows[sub[a]] >> sub[b] & 1:
                    code |= 1 << bit
            hits += code in codes
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def to_reference(seconds: float, probe_s: float) -> float:
    return seconds * REF_PROBE_S / probe_s


def setup(workload: str) -> tuple[float, float]:
    """Raw set-up seconds in this interpreter, and the mean probe time of the
    probes just before and just after it (probes never load the package)."""
    before = probe()
    t0 = time.perf_counter()
    import_package()
    build(workload)
    raw = time.perf_counter() - t0
    return raw, (before + probe()) / 2


def setup_sample(workload: str) -> tuple[float, float]:
    """``setup`` in a fresh interpreter, which runs to its end before this
    returns."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload],
        capture_output=True, text=True, timeout=120, check=True)
    raw, probe_s = proc.stdout.split()[-2:]
    return float(raw), float(probe_s)


# -- operations and their checks --------------------------------------------


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _walk(tree):
    yield tree
    for child in tree.children:
        yield from _walk(child)


def _witness_ok(g, w) -> bool:
    """A real induced fork or antifork, by the package's own recheck and by
    the benchmark's independent check on the five vertices."""
    import gen
    if w.pattern_name not in ("fork", "antifork") or not w.holds_in(g):
        return False
    emb = w.embedding
    rows = [sum(1 << j for j, b in enumerate(emb) if g.adj[a] >> b & 1) for a in emb]
    return not gen.is_member(rows)


def _coloring_ok(g, col) -> bool:
    colors = col.colors
    if len(colors) != g.n:
        return False
    for u in range(g.n):
        row = g.adj[u]
        for v in range(u + 1, g.n):
            if row >> v & 1 and colors[u] == colors[v]:
                return False
    return len(set(colors)) <= col.num_colors <= 2 * col.omega_used


class Workload:
    """Inputs, one operation and its check for one workload.

    ``run`` is the timed operation; it returns the witness instead when the
    package raises NotUnclutteredError.  ``check`` returns (ok, JSON form of
    the output, graphs processed, (colours, omega) or None).
    """

    def __init__(self, name: str, seed: int, items=None):
        import gen
        import uncluttered as U
        self.name = name
        if name == "census-audit":
            self.items = [None]  # one audit pass, repeated
            self.inputs_sha256 = hashlib.sha256(
                f"census n<={CENSUS_N} {','.join(AUDIT_SUITES)}".encode()).hexdigest()
        else:
            make = gen.members_large if name == "members-large" else gen.members_deep
            self.items = make(seed) if items is None else items
            self.graphs = [U.from_graph6(item.g6) for item in self.items]
            self.inputs_sha256 = gen.inputs_sha256(self.items)

    def run(self, i: int):
        import uncluttered as U
        if self.name == "census-audit":
            return U.audit(CENSUS_N, suites=AUDIT_SUITES)
        item, g = self.items[i], self.graphs[i]
        try:
            if item.op == "classify":
                cert = U.classify(g)
                return cert, U.verify_certificate(g, cert)
            if item.op == "color":
                return U.color_uncluttered(g)
            tree = U.decomposition_tree(g)
            flags = [U.verify_certificate(node.graph, node.certificate)
                     for node in _walk(tree)]
            return tree, flags, U.color_uncluttered(g)
        except U.NotUnclutteredError as exc:
            return exc.witness

    def check(self, i: int, out):
        import uncluttered as U
        from uncluttered.decompose import certificate_json, tree_json
        if self.name == "census-audit":
            counts = U.GRAPH_COUNTS
            ok = (out.graphs_scanned == sum(counts[1:CENSUS_N + 1])
                  and out.per_n == {n: counts[n] for n in range(1, CENSUS_N + 1)}
                  and not out.failed
                  and all(r["checked"] > 0 and r["failed"] == 0
                          for r in out.suite_results.values()))
            return ok, out.to_json(), out.graphs_scanned, None
        item, g = self.items[i], self.graphs[i]
        if isinstance(out, U.PatternWitness):
            return (not item.member and _witness_ok(g, out),
                    _dumps({"witness": [out.pattern_name, list(out.embedding)]}), 1, None)
        if item.op == "classify":
            cert, verified = out
            if cert.case == "NOT_UNCLUTTERED":
                ok = not item.member and _witness_ok(g, cert.payload)
            else:
                ok = item.member and cert.case in U.CASE_ORDER
            form = _dumps(certificate_json(cert))
            return ok and verified, form, 1, None
        if item.op == "color":
            tree, flags, col = None, [], out
        else:
            tree, flags, col = out
        ok = item.member and all(flags) and _coloring_ok(g, col)
        form = col.to_json_dict() if tree is None else {
            "tree": tree_json(tree), "coloring": col.to_json_dict()}
        return ok, _dumps(form), 1, (col.num_colors, col.omega_used)


def failure_kind(exc: Exception) -> str:
    name = type(exc).__name__
    return name if name in ("TheoremViolationError", "DepthLimitError") else "other:" + name


class Loop:
    """Closed loop with one client over a workload's items, in stream order,
    wrapping around at the end.  Stops at the first whole block of
    BLOCK[workload] operations after ``seconds`` of operation time
    in reference seconds, so that neither the machine's drift nor where the
    time runs out changes the mix of operations measured; or after exactly
    ``count`` operations when that is given.  A speed probe runs before the
    first operation, between operations at most every PROBE_EVERY_S, and
    after the last; ``scaled`` holds each operation's time in reference
    seconds, using the mean of the probes on either side.  ``between``, if
    given, is called untimed before each operation with the reference
    seconds of operation time so far."""

    def __init__(self, wl: Workload, seconds: float = 0.0, count: int | None = None,
                 tracer=None, between=None):
        self.times: list[float] = []
        self.probes = [(0, probe())]  # (operations done before it, seconds)
        self.failures: Counter = Counter()
        self.graphs = 0
        self.colors = self.omegas = 0
        digest = hashlib.sha256()
        digest_ops = min(DIGEST_OPS, len(wl.items))
        busy = ref_busy = 0.0
        i = 0
        last_probe = time.perf_counter()
        block = BLOCK.get(wl.name, 1)
        while (i < count if count is not None
               else i == 0 or ref_busy < seconds or i % block):
            if between is not None:
                between(ref_busy)
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                self.probes.append((i, probe()))
                last_probe = time.perf_counter()
            k = i % len(wl.items)
            if tracer is not None:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                out, exc = wl.run(k), None
            except Exception as err:  # counted, never propagated
                out, exc = None, err
            dt = time.perf_counter() - t0
            busy += dt
            ref_busy += to_reference(dt, self.probes[-1][1])
            self.times.append(dt)
            if exc is not None:
                kind = failure_kind(exc)
                self.failures[kind] += 1
                form = _dumps({"error": kind})
            else:
                ok, form, graphs, ratio = wl.check(k, out)
                self.graphs += graphs
                if not ok:
                    self.failures["wrong-output"] += 1
                if ratio is not None:
                    self.colors += ratio[0]
                    self.omegas += ratio[1]
            if i < digest_ops:
                digest.update(form.encode() + b"\n")
            i += 1
        self.probes.append((i, probe()))
        self.busy = busy
        self.ops = i
        self.scaled = []
        p = 0
        for j, t in enumerate(self.times):
            while self.probes[p + 1][0] <= j:
                p += 1
            around = (self.probes[p][1] + self.probes[p + 1][1]) / 2
            self.scaled.append(to_reference(t, around))
        self.outputs_sha256 = digest.hexdigest()
        self.outputs_covered = min(i, digest_ops)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def known_regressions(workload: str) -> dict | str:
    """On members-deep, the workload's operation once on each named
    regression, untimed and after the timed loop: graphs, failures and their
    kinds.  The timed stream holds only graphs on which every operation is
    expected to succeed, so these known defects are reported here instead of
    in ``attempted`` and ``failed``."""
    import gen
    if workload != "members-deep":
        return "n/a"
    loop = Loop(Workload(workload, 0, items=gen.regressions()), count=len(gen.REGRESSIONS))
    return {"graphs": loop.ops, "failed": loop.failed, "failures": dict(loop.failures)}


def cli_pass(tracer, cmd: str, lines: list[str], path: Path) -> tuple[int, int, float]:
    """Feed lines to ``uncluttered.cli.main([cmd, "--from", path])``.

    A traceback counts as one failed line and the pass resumes at the next
    line.  Returns (lines, failures, seconds inside the CLI).
    """
    import uncluttered.cli
    failures = 0
    start = 0
    spent = 0.0
    while start < len(lines):
        path.write_text("".join(line + "\n" for line in lines[start:]), encoding="ascii")
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with tracer.span("cli." + cmd), contextlib.redirect_stdout(sink):
                uncluttered.cli.main([cmd, "--from", str(path)])
            done = len(lines)
        except Exception:
            failures += 1
            done = start + sink.getvalue().count("\n") + 1
        spent += time.perf_counter() - t0
        start = done
    return len(lines), failures, spent


# -- the two kinds of run ---------------------------------------------------


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    setups = [setup(workload)]
    wanted = SETUP_SAMPLES[workload]

    def more_setups(done_s: float) -> None:
        # the k-th fresh interpreter starts once k/(wanted - 1) of the timed
        # seconds are done; any left over run after the loop
        while len(setups) < wanted and done_s >= (len(setups) - 1) * seconds / (wanted - 1):
            setups.append(setup_sample(workload))

    wl = Workload(workload, seed)
    loop = Loop(wl, seconds, between=more_setups)
    more_setups(float("inf"))
    times_ms = [t * 1000 for t in loop.scaled]
    metrics = {
        "setup_s": statistics.median(to_reference(*s) for s in setups),
        "graphs_per_s": loop.graphs / sum(loop.scaled),
        "latency_p50_ms": statistics.median(times_ms),
        "peak_rss_mb": peak_rss_mb(),
    }
    p90 = (statistics.quantiles(times_ms, n=10)[-1]
           if len(times_ms) >= P90_MIN_SAMPLES else f"n/a ({len(times_ms)} < "
                                                     f"{P90_MIN_SAMPLES} samples)")
    probes = [p for _, p in loop.probes]
    info = environment(workload, seed, seconds, 0) | {
        "samples": {"setup_s": len(setups), "latency": len(times_ms),
                    "graphs": loop.graphs, "probes": len(probes)},
        "probe_ms": {"median": statistics.median(probes) * 1000,
                     "min": min(probes) * 1000, "max": max(probes) * 1000},
        "raw": {"setup_s": statistics.median(raw for raw, _ in setups),
                "graphs_per_s": loop.graphs / loop.busy,
                "latency_p50_ms": statistics.median(loop.times) * 1000},
        "latency_p90_ms": p90,
        "failures": dict(loop.failures),
        "failed_frac": loop.failed / loop.ops,
        "known_regressions": known_regressions(workload),
        "color_ratio": loop.colors / loop.omegas if loop.omegas else "n/a",
        "inputs_sha256": wl.inputs_sha256,
        "outputs_sha256": loop.outputs_sha256,
        "outputs_covered": loop.outputs_covered,
    }
    result = {"correct": loop.failures["wrong-output"] == 0, "attempted": loop.ops,
              "failed": loop.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit, _, _ in END_TO_END}}
    return info, result


def traced(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Untraced reference loop, then a traced pass over the same operations
    (and on census-audit a traced census build first), then a traced CLI
    pass over the first CLI_LINES of those graphs on the streams, then on
    members-deep the named regressions, traced (span operation id -2) and
    reported apart as in an untraced run."""
    import uncluttered as U
    import tracing
    import_package()
    BUILD.mkdir(exist_ok=True)
    tracer = tracing.Tracer()
    wall = 0.0
    t0 = time.perf_counter()
    with tracer.installed():
        build(workload)
    wall += time.perf_counter() - t0
    wl = Workload(workload, seed)
    ref = Loop(wl, seconds)
    ops = min(ref.ops, TRACED_AUDIT_PASSES) if workload == "census-audit" else ref.ops
    t0 = time.perf_counter()
    with tracer.installed():
        loop = Loop(wl, count=ops, tracer=tracer)
        cli = {}
        if workload in CLI_COMMAND:
            cmd = CLI_COMMAND[workload]
            lines = [wl.items[i % len(wl.items)].g6 for i in range(min(ops, CLI_LINES))]
            tracer.op = -1
            cli[cmd] = cli_pass(tracer, cmd, lines, BUILD / f"cli-{workload}-{seed}.g6")
        tracer.op = -2  # the named regressions reach structure.detect_candled
        regressions = known_regressions(workload)
    wall += time.perf_counter() - t0
    metrics = tracing.layer_metrics(tracer.spans, wall)
    for cmd in tracing.CLI_COMMANDS:
        n, _, spent = cli.get(cmd, (0, 0, 0.0))
        metrics[f"cli.{cmd}.graphs_per_s"] = n / spent if spent else 0.0
    metrics["trace.overhead_frac"] = sum(loop.scaled) / sum(ref.scaled[:ops]) - 1
    metrics["trace.wall_s"] = wall
    metrics["chromatic.color_uncluttered.color_ratio"] = (
        loop.colors / loop.omegas if loop.omegas else 0.0)
    census = workload == "census-audit"
    metrics["census.enumerate_graphs.candidates"] = (
        len(U.enumerate_graphs(CENSUS_N - 1)) << (CENSUS_N - 1) if census else 0)
    metrics["census.enumerate_graphs.classes"] = (
        len(U.enumerate_graphs(CENSUS_N)) if census else 0)
    spans_path = BUILD / f"spans-{workload}-{seed}.csv.gz"
    tracer.write(spans_path)
    cli_failed = sum(f for _, f, _ in cli.values())
    info = environment(workload, seed, seconds, 1) | {
        "samples": {"operations": loop.ops, "spans": len(tracer.spans)},
        "failures": dict(ref.failures + loop.failures),
        "cli_failures": cli_failed,
        "known_regressions": regressions,
        "inputs_sha256": wl.inputs_sha256,
        "outputs_sha256": loop.outputs_sha256,
        "outputs_covered": loop.outputs_covered,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    units = {name: unit for name, unit, _ in per_layer_spec()}
    result = {"correct": ref.failures["wrong-output"] + loop.failures["wrong-output"] == 0,
              "attempted": ref.ops + loop.ops + sum(n for n, _, _ in cli.values()),
              "failed": ref.failed + loop.failed + cli_failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    return info, result


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    import tracing
    out = []
    for mod_name, funcs in tracing.LAYERS.items():
        for fname in funcs:
            key = f"{mod_name}.{fname}"
            out += [(key + ".calls", "count", "lower"), (key + ".self_s", "s", "lower"),
                    (key + ".hit_ratio", "ratio", "higher")]
    out += [(f"decompose.classify.{tag}.calls", "count", "lower")
            for tag in tracing.CLASSIFY_TAGS]
    out += [("patterns.is_uncluttered.member.self_s", "s", "lower"),
            ("patterns.is_uncluttered.rejected.self_s", "s", "lower"),
            ("census.enumerate_graphs.candidates", "count", "lower"),
            ("census.enumerate_graphs.classes", "count", "higher"),
            ("chromatic.color_uncluttered.color_ratio", "ratio", "lower")]
    for cmd in tracing.CLI_COMMANDS:
        out += [(f"cli.{cmd}.graphs_per_s", "graphs/s", "higher"),
                (f"cli.{cmd}.self_s", "s", "lower")]
    out += [("harness.self_s", "s", "lower"), ("trace.overhead_frac", "ratio", "lower"),
            ("trace.wall_s", "s", "lower")]
    return out


def run_all(args) -> int:
    """Every workload in its own interpreter; a table, then all results."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, check=True)
        info_line, result_line = proc.stdout.strip().splitlines()[-2:]
        info, result = json.loads(info_line)["info"], json.loads(result_line)
        samples = info["samples"]
        print(f"{workload}: attempted {result['attempted']}, failed {result['failed']} "
              f"{info['failures']}, correct {result['correct']}, samples {samples}")
        for name, m in result["metrics"].items():
            print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
        results[workload] = result
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "uncluttered" / "__init__.py").is_file():
        sys.stderr.write(f"error: no package source at {SRC / 'uncluttered'}; run from "
                         "a checkout of the repository\n")
        return 2
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    if args.setup_probe:
        print(*setup(args.setup_probe))
        return 0
    if args.workload == "all":
        return run_all(args)
    run = traced if args.trace else end_to_end
    info, result = run(args.workload, args.seed, args.seconds)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
