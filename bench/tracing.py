"""Per-layer spans recorded from outside the package.

``Tracer.install`` wraps each function in ``LAYERS`` and rebinds the wrapper
under every name that holds the original in any loaded ``uncluttered.*``
module namespace, so calls between modules and recursive calls are both
seen.  ``uninstall`` puts every original back.  Spans stay in memory as
(name, start, end, parent, op, hit, tag) tuples until ``write`` saves them;
``layer_metrics`` turns them into calls, self time and hit ratio per layer.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = {
    "patterns": ("is_uncluttered", "has_induced"),
    "structure": ("recognize_line_graph_triangle_free", "detect_candled",
                  "verify_root", "verify_candled"),
    "modular": ("find_adjacent_simplicial_twins", "find_simplicial_vertex",
                "find_nonadjacent_twins"),
    "decompose": ("classify", "verify_certificate", "decomposition_tree"),
    "chromatic": ("color_uncluttered", "vizing_edge_color", "clique_number",
                  "chromatic_number_exact"),
    "census": ("enumerate_graphs",),
    "graph": ("invariant_key", "are_isomorphic"),
    "graphio": ("from_graph6", "to_graph6"),
    "audit": ("audit_one",),
}
CLI_COMMANDS = ("classify", "color")
CLASSIFY_TAGS = ("NOT_UNCLUTTERED", "SMALL", "DISCONNECTED", "ANTI_DISCONNECTED",
                 "SIMPLICIAL_TWINS", "ANTI_SIMPLICIAL_TWINS", "LINEGRAPH_TF",
                 "ANTI_LINEGRAPH_TF", "CANDLED", "ANTI_CANDLED",
                 "THEOREM_VIOLATION")


def package_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "uncluttered" or name.startswith("uncluttered.")}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            hit, tag = False, None
            t0 = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
                hit = res is not None and res is not False
                tag = getattr(res, "case", None)
                return res
            except Exception as exc:
                tag = ("THEOREM_VIOLATION" if type(exc).__name__ == "TheoremViolationError"
                       else type(exc).__name__)
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op, hit, tag)
        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span opened by the harness itself, e.g. around a CLI call."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx] = (name, t0, time.perf_counter(), parent, self.op, True, None)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for mod_name, funcs in LAYERS.items():
            mod = importlib.import_module("uncluttered." + mod_name)
            for fname in funcs:
                orig = getattr(mod, fname)
                wrappers[id(orig)] = (orig, self._wrap(f"{mod_name}.{fname}", orig))
        for mod in package_modules().values():
            for attr, val in list(vars(mod).items()):
                entry = wrappers.get(id(val))
                if entry is not None and entry[0] is val:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, entry[1])

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("name,start,end,parent,op,hit,tag\n")
            for name, t0, t1, parent, op, hit, tag in self.spans:
                fh.write(f"{name},{t0:.9f},{t1:.9f},{parent},{op},{int(hit)},{tag or ''}\n")


def layer_metrics(spans, wall_s: float) -> dict[str, float]:
    """calls, self_s and hit_ratio per wrapped function, classify case counts,
    is_uncluttered self time split by outcome, CLI self time, harness.self_s.

    Self time is a span's duration minus its direct children's durations, so
    the self times of all spans plus harness.self_s add up to ``wall_s``.
    """
    child = defaultdict(float)
    for name, t0, t1, parent, *_ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls, self_s, hits = defaultdict(int), defaultdict(float), defaultdict(int)
    tags = defaultdict(int)
    split = defaultdict(float)
    top = 0.0
    for idx, (name, t0, t1, parent, _op, hit, tag) in enumerate(spans):
        own = (t1 - t0) - child[idx]
        calls[name] += 1
        self_s[name] += own
        hits[name] += hit
        if parent < 0:
            top += t1 - t0
        if name == "decompose.classify":
            tags[tag] += 1
        elif name == "patterns.is_uncluttered":
            split["rejected" if hit else "member"] += own
    out = {}
    for mod_name, funcs in LAYERS.items():
        for fname in funcs:
            key = f"{mod_name}.{fname}"
            out[key + ".calls"] = calls[key]
            out[key + ".self_s"] = self_s[key]
            out[key + ".hit_ratio"] = hits[key] / calls[key] if calls[key] else 0.0
    for tag in CLASSIFY_TAGS:
        out[f"decompose.classify.{tag}.calls"] = tags[tag]
    out["patterns.is_uncluttered.member.self_s"] = split["member"]
    out["patterns.is_uncluttered.rejected.self_s"] = split["rejected"]
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.self_s"] = self_s[f"cli.{cmd}"]
    out["harness.self_s"] = wall_s - top
    return out
