"""Command line front end.

Subcommands read graph6 lines from stdin by default (or a file via --from,
or blank-line-separated edge-list blocks with --edge-list) and write one JSON
object per input graph.  The audit subcommand runs the exhaustive lemma
suites over the built-in enumeration and reports either human-readable text
or, with --json, a byte-stable JSON report.

Exit codes: 0 success, 1 audit suite failure, 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .audit import SUITE_NAMES, audit
from .chromatic import color_uncluttered
from .decompose import _witness_json, certificate_json, classify, decomposition_tree, tree_json
from .errors import InputError, NotUnclutteredError
from .graphio import from_edge_list, from_graph6, to_edge_list, to_graph6


def _read_text(args) -> str:
    """The text of --from FILE, or of stdin.  A file is decoded as UTF-8 with
    undecodable bytes kept as surrogates, so a bad byte reaches the decoder
    of its line, which reports it."""
    if args.from_file and args.from_file != "-":
        with open(args.from_file, encoding="utf-8", errors="surrogateescape") as fh:
            return fh.read()
    return sys.stdin.read()


def _iter_graphs(args, edge_list: bool):
    """Yield (label, graph, error) triples from edge-list blocks or graph6 lines."""
    text = _read_text(args)
    if edge_list:
        for block in re.split(r"\n\s*\n", text):
            if not block.strip():
                continue
            try:
                g = from_edge_list(block)
                yield to_graph6(g), g, None
            except InputError as exc:
                yield block.strip().splitlines()[0], None, str(exc)
    else:
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                yield line, from_graph6(line), None
            except InputError as exc:
                yield line, None, str(exc)


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")


def _each_graph(args, result) -> int:
    """One JSON line per input graph: an error line for a malformed graph
    (exit code 2 at the end), the witness line for a graph ``result``
    rejects with NotUnclutteredError, else the label followed by the keys of
    ``result(g)``."""
    bad = False
    for label, g, err in _iter_graphs(args, args.edge_list):
        if err is not None:
            _emit({"graph6": label, "error": err})
            bad = True
            continue
        try:
            out = result(g)
        except NotUnclutteredError as exc:
            out = {"uncluttered": False, "witness": _witness_json(exc.witness)}
        _emit({"graph6": label, **out})
    return 2 if bad else 0


def _classify_json(g) -> dict:
    cert = classify(g)
    return {"uncluttered": cert.case != "NOT_UNCLUTTERED",
            "certificate": certificate_json(cert)}


def _cmd_classify(args) -> int:
    return _each_graph(args, _classify_json)


def _cmd_color(args) -> int:
    return _each_graph(args, lambda g: {
        "uncluttered": True, "coloring": color_uncluttered(g).to_json_dict()})


def _cmd_decompose(args) -> int:
    return _each_graph(args, lambda g: {
        "uncluttered": True, "tree": tree_json(decomposition_tree(g))})


def _cmd_encode(args) -> int:
    bad = False
    for label, g, err in _iter_graphs(args, True):
        if err is not None:
            sys.stderr.write(f"error: {err}\n")
            bad = True
            continue
        sys.stdout.write(to_graph6(g) + "\n")
    return 2 if bad else 0


def _cmd_decode(args) -> int:
    bad = False
    first = True
    for label, g, err in _iter_graphs(args, False):
        if err is not None:
            sys.stderr.write(f"error on {label!r}: {err}\n")
            bad = True
            continue
        if not first:
            sys.stdout.write("\n")
        sys.stdout.write(to_edge_list(g))
        first = False
    return 2 if bad else 0


def _cmd_audit(args) -> int:
    suites = None
    if args.suite is not None:
        suites = tuple(s.strip() for s in args.suite.split(",") if s.strip())
    graphs = _read_text(args).splitlines() if args.from_file else None
    try:
        report = audit(args.n_max, suites=suites, graphs=graphs)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    if args.json:
        sys.stdout.write(report.to_json() + "\n")
    else:
        sys.stdout.write(report.to_text() + "\n")
    return 1 if report.failed else 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uncluttered",
        description="Recognition, certified decomposition, and bounded "
                    "coloring of graphs with no induced fork or antifork.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_from_flag(p):
        p.add_argument("--from", dest="from_file", metavar="FILE",
                       help="read input from FILE instead of stdin")

    def add_stream_flags(p):
        add_from_flag(p)
        p.add_argument("--edge-list", action="store_true",
                       help="input is blank-line-separated edge-list blocks "
                            "(first line n, then one 'u v' pair per line)")

    p = sub.add_parser("classify", help="certificate for each input graph")
    add_stream_flags(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("color", help="bounded coloring for each input graph")
    add_stream_flags(p)
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("decompose", help="full decomposition tree per graph")
    add_stream_flags(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("encode", help="edge-list blocks to graph6 lines")
    add_from_flag(p)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="graph6 lines to edge-list blocks")
    add_from_flag(p)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("audit", help="exhaustive lemma suites over small graphs")
    p.add_argument("--n-max", type=int, default=6, metavar="K",
                   help="largest vertex count to enumerate (default 6; "
                        "ignored with --from)")
    p.add_argument("--suite", metavar="NAME[,NAME...]",
                   help="comma-separated suite selection (default: all of "
                        + ", ".join(SUITE_NAMES) + ")")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report (no timing, byte-stable)")
    p.add_argument("--from", dest="from_file", metavar="FILE",
                   help="audit a graph6 stream from FILE instead of enumerating")
    p.set_defaults(func=_cmd_audit)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, UnicodeDecodeError) as exc:
        # An unreadable file, or stdin in a locale that decodes strictly.
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
