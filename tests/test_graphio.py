import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import uncluttered as U
from uncluttered import Graph, InputError

from oracles import naive_graph6, random_graph


@st.composite
def graphs(draw, max_n=64):
    n = draw(st.integers(min_value=0, max_value=max_n))
    nbits = n * (n - 1) // 2
    bits = draw(st.integers(min_value=0, max_value=(1 << nbits) - 1)) if nbits else 0
    edges = []
    k = 0
    for v in range(n):
        for u in range(v):
            if bits >> k & 1:
                edges.append((u, v))
            k += 1
    return Graph(n, edges)


def test_known_encodings():
    assert U.to_graph6(Graph(0)) == "?"
    assert U.to_graph6(U.complete_graph(1)) == "@"
    assert U.to_graph6(U.path_graph(3)) == "Bg"
    assert U.to_graph6(U.complete_graph(4)) == "C~"
    assert U.to_graph6(U.cycle_graph(5)) == "Dhc"
    assert U.to_graph6(U.pattern("fork")) == "DhO"


def test_known_decodings():
    assert U.from_graph6("?") == Graph(0)
    assert U.from_graph6("Dhc") == U.cycle_graph(5)
    assert U.from_graph6("DhO") == U.pattern("fork")
    assert U.from_graph6("C~") == U.complete_graph(4)


def test_long_header_used_only_past_62_vertices():
    s62 = U.to_graph6(U.complete_graph(62))
    s63 = U.to_graph6(U.complete_graph(63))
    s64 = U.to_graph6(U.complete_graph(64))
    assert s62[0] != "~" and s63[0] == "~" and s64[0] == "~"
    for s, n in ((s62, 62), (s63, 63), (s64, 64)):
        assert U.from_graph6(s) == U.complete_graph(n)


@pytest.mark.parametrize("line,reason", [
    ("", "empty"),
    ("Dhc ", "byte out of range"),
    ("@\x7f", "byte out of range"),
    ("\x1a", "byte out of range"),
    ("~??@", "long header for a small graph"),
    ("B", "body too short"),
    ("Bgg", "body too long"),
    ("Bi", "nonzero padding"),
    ("~~?", "size past 64"),
    ("Déc", "non-ASCII"),
])
def test_strict_decoder_rejects_noncanonical_lines(line, reason):
    with pytest.raises(InputError):
        U.from_graph6(line)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(graphs())
def test_graph6_round_trip(g):
    s = U.to_graph6(g)
    assert U.from_graph6(s) == g
    assert U.to_graph6(U.from_graph6(s)) == s


def test_graph6_matches_the_naive_encoder_on_the_census(census):
    """Round trips cannot see a layout error that both directions share; a
    separate encoder written from the format description can."""
    for n in range(8):
        for g in census[n]:
            s = naive_graph6(g)
            assert U.to_graph6(g) == s
            assert U.from_graph6(s) == g


def test_graph6_matches_the_naive_encoder_at_every_size(rng):
    """Every n from 0 to 64, across the 62/63 short/long header boundary."""
    for n in range(65):
        for p in (0.0, 0.3, 0.7, 1.0):
            g = random_graph(rng, n, p)
            s = naive_graph6(g)
            assert U.to_graph6(g) == s
            assert U.from_graph6(s) == g


def test_edge_list_format_is_exact():
    assert U.to_edge_list(U.path_graph(3)) == "3\n0 1\n1 2\n"
    assert U.to_edge_list(Graph(0)) == "0\n"
    assert U.to_edge_list(U.edgeless_graph(2)) == "2\n"


def test_edge_list_parsing():
    assert U.from_edge_list("3\n0 1\n1 2\n") == U.path_graph(3)
    assert U.from_edge_list("  3\n0   1\n1 2") == U.path_graph(3)
    assert U.from_edge_list("2") == U.edgeless_graph(2)
    for bad in ("", "x", "2\n0", "2\n0 2", "2\n0 x", "1\n0 0"):
        with pytest.raises(InputError):
            U.from_edge_list(bad)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(graphs(max_n=16))
def test_edge_list_round_trip(g):
    assert U.from_edge_list(U.to_edge_list(g)) == g
