import argparse
import importlib
import io
import json
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import uncluttered as U
from uncluttered.cli import main, make_parser

from oracles import random_graph


def run_cli(monkeypatch, capsys, argv, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_classify_stream(monkeypatch, capsys):
    code, out, err = run_cli(monkeypatch, capsys, ["classify"], "Bg\nDhO\n")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert json.loads(lines[0]) == {
        "graph6": "Bg", "uncluttered": True,
        "certificate": {"case": "ANTI_DISCONNECTED",
                        "payload": {"parts": [[0, 2], [1]]}}}
    doc = json.loads(lines[1])
    assert doc["graph6"] == "DhO" and doc["uncluttered"] is False
    assert doc["certificate"] == {
        "case": "NOT_UNCLUTTERED",
        "payload": {"pattern": "fork", "embedding": [0, 1, 2, 3, 4]}}


def test_classify_flags_bad_lines_but_keeps_going(monkeypatch, capsys):
    code, out, err = run_cli(monkeypatch, capsys, ["classify"], "#\nBg\n")
    assert code == 2
    lines = [json.loads(s) for s in out.splitlines()]
    assert "error" in lines[0] and lines[0]["graph6"] == "#"
    assert lines[1]["uncluttered"] is True


def test_color_stream(monkeypatch, capsys):
    code, out, err = run_cli(monkeypatch, capsys, ["color"], "Dhc\nDhO\n")
    assert code == 0
    lines = [json.loads(s) for s in out.splitlines()]
    assert lines[0] == {"graph6": "Dhc", "uncluttered": True,
                        "coloring": {"colors": [0, 1, 2, 0, 2],
                                     "num_colors": 3, "omega": 2}}
    assert lines[1] == {"graph6": "DhO", "uncluttered": False,
                        "witness": {"pattern": "fork",
                                    "embedding": [0, 1, 2, 3, 4]}}


def test_decompose_stream(monkeypatch, capsys):
    code, out, err = run_cli(monkeypatch, capsys, ["decompose"], "Bg\n")
    assert code == 0
    doc = json.loads(out)
    assert doc["graph6"] == "Bg" and doc["uncluttered"] is True
    assert doc["tree"]["case"] == "ANTI_DISCONNECTED"
    assert [c["case"] for c in doc["tree"]["children"]] == ["DISCONNECTED", "SMALL"]


def test_encode_blocks(monkeypatch, capsys):
    code, out, err = run_cli(monkeypatch, capsys, ["encode"],
                             "3\n0 1\n1 2\n\n1\n")
    assert (code, out, err) == (0, "Bg\n@\n", "")


def test_encode_reports_bad_blocks_on_stderr(monkeypatch, capsys):
    code, out, err = run_cli(monkeypatch, capsys, ["encode"],
                             "3\n0 9\n\n1\n")
    assert code == 2
    assert out == "@\n"
    assert err.startswith("error: ")


def test_decode_blocks(monkeypatch, capsys):
    code, out, err = run_cli(monkeypatch, capsys, ["decode"], "Bg\n@\n")
    assert (code, out, err) == (0, "3\n0 1\n1 2\n\n1\n", "")


def test_decode_reports_bad_lines_on_stderr(monkeypatch, capsys):
    code, out, err = run_cli(monkeypatch, capsys, ["decode"], "#\nBg\n")
    assert code == 2
    assert out == "3\n0 1\n1 2\n"
    assert err.startswith("error on '#':")


def test_round_trip_through_both_commands(monkeypatch, capsys):
    blocks = "5\n0 1\n0 4\n1 2\n2 3\n3 4\n\n2\n0 1\n"
    code, g6, _ = run_cli(monkeypatch, capsys, ["encode"], blocks)
    assert code == 0
    code, back, _ = run_cli(monkeypatch, capsys, ["decode"], g6)
    assert code == 0 and back == blocks


def test_from_file_and_stdin_alias(tmp_path, monkeypatch, capsys):
    path = tmp_path / "graphs.g6"
    path.write_text("Bg\n")
    code, out, _ = run_cli(monkeypatch, capsys,
                           ["classify", "--from", str(path)])
    assert code == 0 and json.loads(out)["graph6"] == "Bg"
    code, out, _ = run_cli(monkeypatch, capsys,
                           ["classify", "--from", "-"], "Bg\n")
    assert code == 0 and json.loads(out)["graph6"] == "Bg"


def test_from_file_missing(monkeypatch, capsys):
    code, out, err = run_cli(monkeypatch, capsys,
                             ["classify", "--from", "/no/such/file.g6"])
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_non_ascii_input_is_an_input_error(tmp_path, monkeypatch, capsys):
    path = tmp_path / "bad.g6"
    path.write_bytes("Bg\nD\u00e9c\n".encode() + b"B\xff\n")
    code, out, _ = run_cli(monkeypatch, capsys, ["classify", "--from", str(path)])
    lines = [json.loads(line) for line in out.splitlines()]
    assert code == 2 and len(lines) == 3
    assert lines[0]["graph6"] == "Bg" and lines[0]["uncluttered"]
    assert all("non-ASCII" in line["error"] for line in lines[1:])
    code, out, err = run_cli(monkeypatch, capsys,
                             ["audit", "--n-max", "5", "--from", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    strict = io.TextIOWrapper(io.BytesIO(b"B\xff\n"), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", strict)
    assert main(["classify"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1


def test_edge_list_input_mode(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys,
                           ["classify", "--edge-list"], "3\n0 1\n1 2\n")
    assert code == 0
    assert json.loads(out)["graph6"] == "Bg"


def test_audit_text_and_json(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["audit", "--n-max", "4"])
    assert code == 0
    assert "audited 18 graphs" in out
    assert "suite main-theorem: 18 checked, 0 failed" in out
    code, out, _ = run_cli(monkeypatch, capsys,
                           ["audit", "--n-max", "4", "--json"])
    assert code == 0
    assert out == U.audit(4).to_json() + "\n"


def test_audit_stream_input(tmp_path, monkeypatch, capsys):
    path = tmp_path / "one.g6"
    path.write_text("Dhc\n")
    code, out, _ = run_cli(monkeypatch, capsys,
                           ["audit", "--n-max", "5", "--json",
                            "--from", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["graphs_scanned"] == 1
    assert doc["max_ratio"] == [3, 2] and doc["max_ratio_graph6"] == "Dhc"
    code, out, _ = run_cli(monkeypatch, capsys,
                           ["audit", "--n-max", "5", "--json", "--from", "-"],
                           "Dhc\n")
    assert code == 0 and json.loads(out)["graphs_scanned"] == 1
    # --n-max bounds only the census; the report names the largest graph
    code, out, _ = run_cli(monkeypatch, capsys,
                           ["audit", "--n-max", "99", "--json", "--from", "-"],
                           "Dhc\n@\n")
    assert code == 0 and json.loads(out)["n_max"] == 5


def test_audit_stream_checks_the_main_theorem_past_the_census(monkeypatch, capsys):
    code, out, err = run_cli(monkeypatch, capsys,
                             ["audit", "--from", "-", "--suite", "main-theorem"],
                             "Dhc\nIT}w@o|nw\n")
    assert code == 1 and err == ""
    assert "suite main-theorem: 2 checked, 1 failed [IT}w@o|nw]" in out


def test_audit_argument_errors(monkeypatch, capsys):
    code, out, err = run_cli(monkeypatch, capsys, ["audit", "--n-max", "9"])
    assert code == 2 and out == ""
    assert "n_max <= 8" in err
    code, out, err = run_cli(monkeypatch, capsys,
                             ["audit", "--suite", "bogus"])
    assert code == 2 and "unknown suite" in err
    code, out, err = run_cli(monkeypatch, capsys,
                             ["audit", "--suite", "main-theorem,main-theorem"])
    assert (code, out) == (2, "")
    assert err == "error: suite 'main-theorem' is named more than once\n"
    code, out, err = run_cli(monkeypatch, capsys,
                             ["audit", "--from", "/no/such/stream.g6"])
    assert code == 2 and err.startswith("error: ")
    for suite in (",", "", " , "):
        code, out, err = run_cli(monkeypatch, capsys,
                                 ["audit", "--n-max", "4", "--suite", suite])
        assert (code, out) == (2, "")
        assert err.startswith("error: audit needs at least one suite")
        assert err.count("\n") == 1
    # the worker-count option is gone: argparse rejects it as unknown
    with pytest.raises(SystemExit) as exc:
        run_cli(monkeypatch, capsys, ["audit", "--n-max", "4", "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_audit_suite_selection(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys,
                           ["audit", "--n-max", "4", "--json",
                            "--suite", "chi-bound,diamond"])
    assert code == 0
    doc = json.loads(out)
    assert doc["suites"] == ["chi-bound", "diamond"]
    assert list(doc["suite_results"]) == ["chi-bound", "diamond"]


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "uncluttered.cli", "classify"],
        input="Dhc\n", capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["certificate"]["case"] == "LINEGRAPH_TF"


def test_readme_names_exactly_the_cli_long_options():
    """A removed option cannot linger in the docs, nor a new one go unnamed."""
    defined = set()
    parsers = [make_parser()]
    while parsers:
        p = parsers.pop()
        for action in p._actions:
            defined.update(o for o in action.option_strings if o.startswith("--"))
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    named = set(re.findall(r"--[a-z][a-z0-9-]*", readme)) - {"--no-build-isolation"}
    assert named == defined


def test_readme_names_only_existing_api():
    """A backticked name in README prose that looks like API (it holds an
    underscore, starts uppercase or is called) must exist: on the package,
    on Graph, or on one of the package's modules; a dotted name is looked
    up attribute by attribute from one of those."""
    not_api = {"n_max"}
    roots = [U, U.Graph] + [importlib.import_module(f"uncluttered.{m.name}")
                            for m in pkgutil.iter_modules(U.__path__)]
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    prose = re.sub(r"```.*?```", "", readme, flags=re.DOTALL)
    checked = set()
    for span in re.findall(r"`([^`\n]+)`", prose):
        m = re.match(r"([A-Za-z_][\w.]*)(?=$|\(| =)", span)
        if m is None or m[1] in not_api:
            continue
        name = m[1]
        if "_" in name or name[0].isupper() or span[len(name):].startswith("("):
            checked.add(name)

    def resolves(root, dotted):
        for part in dotted.split("."):
            if not hasattr(root, part):
                return False
            root = getattr(root, part)
        return True

    missing = sorted(n for n in checked if not any(resolves(r, n) for r in roots))
    assert missing == []
    assert len(checked) >= 20


def test_readme_suite_table_matches_suite_caps():
    """The README suite table lists every audit suite with its size cap, in
    registry order."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = re.findall(r"^\| ([a-z-]+) +\| (\d+) +\|", readme, re.MULTILINE)
    assert [(name, int(cap)) for name, cap in rows] == list(U.SUITE_CAPS.items())


def test_readme_examples_print_what_the_readme_shows(monkeypatch, capsys):
    """Each `$ echo X | uncluttered CMD` followed by an output line must print
    that line; a line ending in `...}}` gives only a prefix of the output."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    examples = re.findall(r"^\$ echo (\S+) \| uncluttered (\w+).*\n([^$`\n].*)$",
                          readme, re.MULTILINE)
    assert len(examples) >= 3
    for line, command, shown in examples:
        code, out, err = run_cli(monkeypatch, capsys, [command], line + "\n")
        assert code == 0 and err == ""
        printed = out.rstrip("\n")
        if shown.endswith("...}}"):
            assert printed.startswith(shown[:-len("...}}")]), (line, command)
        else:
            assert printed == shown, (line, command)


# Characters a mutation writes: graph6 bytes at and past both ends of the
# printable range, separators, digits, signs, a non-ASCII letter and the
# surrogate that an undecodable byte of a --from file becomes.
_FUZZ_CHARS = "?@A_`~>\x7f !#0123456789-. xé\udcff"
_FUZZ_TOKENS = ("-1", "0", "1", "9", "10", "64", "65", "1.5", "x", "", "0 0")


def _mutated(rng, tokens, pool):
    """tokens with up to two random edits: replace, insert, delete or
    duplicate one token, each new token drawn from pool."""
    tokens = list(tokens)
    for _ in range(rng.randint(0, 2)):
        i = rng.randrange(len(tokens) + 1)
        edit = rng.randrange(4)
        if edit == 0 and i < len(tokens):
            tokens[i] = rng.choice(pool)
        elif edit == 1:
            tokens.insert(i, rng.choice(pool))
        elif edit == 2 and i < len(tokens) and len(tokens) > 1:
            del tokens[i]
        elif i < len(tokens):
            tokens.insert(i, tokens[i])
    return tokens


def _parsed_n(parse, item):
    """The vertex count of the graph item parses to, or None if malformed."""
    try:
        return parse(item).n
    except U.InputError:
        return None


def test_cli_fuzz_never_raises(rng, monkeypatch, capsys):
    """Seeded mutations of graph6 lines and edge-list blocks, fed to every
    subcommand that reads graphs: classify, color and decompose in both
    input modes, encode, decode and audit --from.  No exception leaves
    main, every exit code is documented (0, 1 or 2), and every stdout line
    of classify, color and decompose is one JSON object.

    Well-formed graphs stay at n <= 9, where every member decomposes: a
    mutation that yields a larger graph is dropped.  The known n = 10
    member on which classify finds no case is pinned by the audit stream
    tests above, not here."""
    codes = set()
    for _ in range(60):
        graphs = [random_graph(rng, rng.randint(1, 9), rng.random()) for _ in range(6)]
        lines = ["".join(_mutated(rng, U.to_graph6(g), _FUZZ_CHARS)) for g in graphs]
        lines = [s for s in lines if (_parsed_n(U.from_graph6, s.strip()) or 0) <= 9]
        blocks = []
        for g in graphs[:3]:
            rows = U.to_edge_list(g).splitlines()
            block = "\n".join(_mutated(rng, rows, _FUZZ_TOKENS))
            blocks += [b for b in re.split(r"\n\s*\n", block)
                       if (_parsed_n(U.from_edge_list, b) or 0) <= 9]
        g6_text = "\n".join(lines) + "\n"
        edge_text = "\n\n".join(blocks) + "\n"
        # one malformed line fails a whole audit, so audit the rest alone too
        audit_text = "\n".join(s for s in lines
                               if _parsed_n(U.from_graph6, s.strip()) is not None) + "\n"
        for argv, text in (
                (["classify"], g6_text), (["color"], g6_text), (["decompose"], g6_text),
                (["classify", "--edge-list"], edge_text), (["color", "--edge-list"], edge_text),
                (["decompose", "--edge-list"], edge_text), (["encode"], edge_text),
                (["decode"], g6_text), (["audit", "--from", "-", "--json"], g6_text),
                (["audit", "--from", "-"], audit_text)):
            code, out, err = run_cli(monkeypatch, capsys, argv, text)
            assert code in (0, 1, 2), (argv, text)
            codes.add(code)
            if argv[0] in ("classify", "color", "decompose"):
                for line in out.splitlines():
                    assert isinstance(json.loads(line), dict), (argv, line)
    # both well-formed and malformed input ran, and no suite fails at n <= 9
    assert codes == {0, 2}
