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
