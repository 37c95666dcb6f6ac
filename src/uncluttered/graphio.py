"""graph6 and edge-list codecs.

graph6 is the usual one-line ASCII encoding: a size header, then the upper
triangle of the adjacency matrix read column by column ((0,1), (0,2), (1,2),
(0,3), ...), packed six bits per byte MSB-first with zero padding, each byte
offset by 63.  Sizes up to 62 use the single-byte header; 63 and 64 use the
'~' + 3 byte long header.  Decoding is strict: padding bits must be zero, the
header form must be the canonical one for the size, and no bytes may trail,
so decode(encode(g)) and encode(decode(s)) are both identities.  A line
holding any non-ASCII character is rejected, never read as some other byte.

Both directions hold the body as one string of '0'/'1' characters.  Column v,
the bits of (0,v), (1,v), ..., (v-1,v), is the slice [v(v-1)/2, v(v+1)/2):
row v's low v bits, least vertex first.  Six characters make one byte.
"""

from __future__ import annotations

from .errors import InputError
from .graph import MAX_VERTICES, Graph, _mask_to_tuple


def to_graph6(g: Graph) -> str:
    n = g.n
    # Every byte gets the offset 63, so the long header's leading 63 is '~'.
    head = [n] if n <= 62 else [63, n >> 12 & 63, n >> 6 & 63, n & 63]
    bits = "".join(f"{g.adj[v] & ~(-1 << v):0{v}b}"[::-1] for v in range(1, n))
    bits += "0" * (-len(bits) % 6)
    body = [int(bits[i:i + 6], 2) for i in range(0, len(bits), 6)]
    return bytes(b + 63 for b in head + body).decode("ascii")


def from_graph6(line: str) -> Graph:
    if not isinstance(line, str):
        raise InputError(f"a graph6 line must be a string, got {line!r}")
    s = line.rstrip("\n")
    if not s:
        raise InputError("empty graph6 string")
    if not s.isascii():
        raise InputError("graph6 line holds a non-ASCII character")
    data = s.encode("ascii")
    for byte in data:
        if not 63 <= byte <= 126:
            raise InputError(f"graph6 byte {byte} out of printable range")
    if data[0] == 126:
        if len(data) < 4 or data[1] == 126:
            raise InputError("unsupported graph6 size header")
        n = (data[1] - 63) << 12 | (data[2] - 63) << 6 | (data[3] - 63)
        if n <= 62:
            raise InputError("noncanonical graph6: long header for a small graph")
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    if n > MAX_VERTICES:
        raise InputError(f"graph of {n} vertices exceeds the {MAX_VERTICES}-vertex cap")
    nbits = n * (n - 1) // 2
    expect = (nbits + 5) // 6
    if len(body) != expect:
        raise InputError(f"graph6 body has {len(body)} bytes, expected {expect}")
    bits = "".join(bin(byte - 63)[2:].zfill(6) for byte in body)
    if "1" in bits[nbits:]:
        raise InputError("noncanonical graph6: nonzero padding bits")
    rows = [0] * n
    for v in range(1, n):
        col = int(bits[v * (v - 1) // 2:v * (v + 1) // 2][::-1], 2)
        rows[v] |= col
        for u in _mask_to_tuple(col):
            rows[u] |= 1 << v
    return Graph.from_rows(tuple(rows))


def to_edge_list(g: Graph) -> str:
    """Multi-line text form: first line n, then one "u v" per edge."""
    lines = [str(g.n)]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def from_edge_list(text: str) -> Graph:
    if not isinstance(text, str):
        raise InputError(f"an edge list must be a string, got {text!r}")
    tokens = text.split()
    if not tokens:
        raise InputError("empty edge list")
    try:
        numbers = [int(t) for t in tokens]
    except ValueError as exc:
        raise InputError(f"edge list is not whitespace-separated integers: {exc}") from None
    n = numbers[0]
    rest = numbers[1:]
    if len(rest) % 2:
        raise InputError("edge list has a dangling endpoint")
    edges = list(zip(rest[0::2], rest[1::2]))
    return Graph(n, edges)
