"""Seeded input streams for the members-large and members-deep workloads.

Generation is untimed and uses nothing from the package under test except the
``Graph`` constructor and the graph6 encoder.  Graphs are built as lists of
adjacency bitmask rows.  Membership comes from constructions the class is
closed under (line graphs of triangle-free roots, complements, disjoint
unions, complete joins, candled compositions) and is confirmed by this
module's own fork/antifork check, which also decides hereditary growth and
proves every near-member really contains a fork or antifork.

The same seed gives the same bytes: every random choice comes from one
``random.Random(seed)`` per stream, and graph sizes, kinds and operations
follow a fixed schedule so that two seeds differ only in graph structure.
"""

from __future__ import annotations

import hashlib
import random
from typing import NamedTuple

# Members found by earlier random testing on which classify or
# decomposition_tree raised TheoremViolationError.  They are not part of the
# timed members-deep stream, whose operations must all succeed; run.py runs
# them once after the timed loop and reports how each ends.
REGRESSIONS = (
    "IT}w@o|nw",
    "P\\JYQTkZJXl`ZAZBL`ZX~ZNw",
    "UwhYo@NRq\\hvRmRlhuA\\tRnHMoA\\_I\\~|M~~Rn~o",
)

# Half of each size cycle sits at one middle size, so the median latency
# falls inside a cluster of like-sized graphs rather than in the gap
# between two sizes.
LARGE_SIZES = (32, 24, 32, 36, 32, 40, 32, 36)
LARGE_KINDS = ("line", "coline", "candled", "near")
LARGE_OPS = ("classify", "color")
LARGE_COUNT = 120
DEEP_SIZES = (22, 10, 22, 34, 22, 16, 22, 28, 22, 13, 22, 31, 22, 19, 22, 25)
DEEP_CONSTRUCTIONS = ("candled", "join", "grow", "union", "complement", "line")
DEEP_COUNT = 150


class Item(NamedTuple):
    g6: str
    kind: str
    op: str
    member: bool  # known by construction and by the own check

    def line(self) -> str:
        return f"{self.g6} {self.kind} {self.op} {int(self.member)}"


def inputs_sha256(items) -> str:
    return hashlib.sha256("\n".join(i.line() for i in items).encode()).hexdigest()


# -- the benchmark's own fork/antifork check --------------------------------


def _has_nonedge(rows, s: int) -> bool:
    m = s
    while m:
        low = m & -m
        if s & ~rows[low.bit_length() - 1] & ~low:
            return True
        m ^= low
    return False


def _has_fork(rows) -> bool:
    """True iff some centre b, inner leaf c and tail d (c ~ b, d ~ c, d !~ b)
    leave two nonadjacent outer leaves in N(b) \\ N[c] \\ N(d)."""
    for b, nb in enumerate(rows):
        m = nb
        while m:
            low = m & -m
            m ^= low
            rc = rows[low.bit_length() - 1]
            outer = nb & ~rc & ~low
            if outer & (outer - 1) == 0:
                continue
            tails = rc & ~nb & ~(1 << b)
            while tails:
                lowd = tails & -tails
                tails ^= lowd
                s = outer & ~rows[lowd.bit_length() - 1]
                if s & (s - 1) and _has_nonedge(rows, s):
                    return True
    return False


def complement(rows) -> list[int]:
    full = (1 << len(rows)) - 1
    return [(full ^ r) & ~(1 << u) for u, r in enumerate(rows)]


def is_member(rows) -> bool:
    """No induced fork and no induced antifork (own check, not the package's)."""
    return not _has_fork(rows) and not _has_fork(complement(rows))


# -- constructions on adjacency rows ----------------------------------------


def union(a, b) -> list[int]:
    return list(a) + [r << len(a) for r in b]


def join(a, b) -> list[int]:
    am = (1 << len(a)) - 1
    bm = ((1 << len(b)) - 1) << len(a)
    return [r | bm for r in a] + [(r << len(a)) | am for r in b]


def relabel(rng, rows) -> list[int]:
    n = len(rows)
    perm = list(range(n))
    rng.shuffle(perm)
    out = [0] * n
    for u, r in enumerate(rows):
        row = 0
        while r:
            low = r & -r
            row |= 1 << perm[low.bit_length() - 1]
            r ^= low
        out[perm[u]] = row
    return out


def triangle_free_edges(rng, m: int) -> list[tuple[int, int]]:
    """m >= 1 edges of a random connected triangle-free root: a random
    spanning tree plus random edges that close no triangle, growing a
    pendant vertex whenever a random edge keeps failing."""
    nv = min(m + 1, rng.randint(m // 3 + 3, m // 2 + 4))
    adj = [0] * nv
    edges = []

    def add(a, b):
        adj[a] |= 1 << b
        adj[b] |= 1 << a
        edges.append((a, b))

    for v in range(1, nv):
        add(rng.randrange(v), v)
    misses = 0
    while len(edges) < m:
        a, b = rng.randrange(len(adj)), rng.randrange(len(adj))
        if a != b and not adj[a] >> b & 1 and not adj[a] & adj[b]:
            add(a, b)
        elif misses < 20 * m:
            misses += 1
        else:
            adj.append(0)
            add(a, len(adj) - 1)
    return edges


def line_graph(edges) -> list[int]:
    rows = [0] * len(edges)
    for i, (a, b) in enumerate(edges):
        for j in range(i):
            c, d = edges[j]
            if a in (c, d) or b in (c, d):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def candelabrum(size: int, k: int) -> tuple[list[int], int]:
    """A candelabrum with k <= size // 2 parts on exactly ``size`` vertices,
    part sizes dealt round-robin, and its base mask."""
    sizes = [1] * (2 * k)  # Y_1..Y_k then Z_1..Z_k
    for j in range(size - 2 * k):
        sizes[j % (2 * k)] += 1
    parts, start = [], 0
    for s in sizes:
        parts.append(((1 << s) - 1) << start)
        start += s
    ys, zs = parts[:k], parts[k:]
    base = sum(zs)
    rows = [0] * size
    for i in range(k):
        for v in range(size):
            bit = 1 << v
            if ys[i] & bit:
                rows[v] |= (ys[i] & ~bit) | zs[i]
            elif zs[i] & bit:
                rows[v] |= ys[i] | (base & ~zs[i])
    return rows, base


def candled(size: int, k: int, rest) -> list[int]:
    """Candelabrum on ``size`` vertices whose base is joined to ``rest``."""
    rows, base = candelabrum(size, min(k, size // 2))
    out = union(rows, rest)
    rest_mask = ((1 << len(rest)) - 1) << size
    for v in range(size):
        if base >> v & 1:
            out[v] |= rest_mask
    for v in range(size, len(out)):
        out[v] |= base
    return out


def add_vertex(rows, nbrs: int) -> list[int]:
    x = len(rows)
    return [r | (nbrs >> u & 1) << x for u, r in enumerate(rows)] + [nbrs]


def grow(rng, rows, steps: int) -> list[int]:
    """Hereditary growth: keep a new vertex only if the graph stays a member.

    Proposals copy a random vertex's open or closed neighbourhood and flip a
    few bits; after 30 refusals the new vertex is left isolated instead.
    """
    for _ in range(steps):
        n = len(rows)
        for _ in range(30):
            u = rng.randrange(n)
            nbrs = rows[u] | (rng.random() < 0.5) << u
            for _ in range(rng.randint(0, 2)):
                nbrs ^= 1 << rng.randrange(n)
            cand = add_vertex(rows, nbrs)
            if is_member(cand):
                rows = cand
                break
        else:
            rows = add_vertex(rows, 0)
    return rows


def near_member(rng, rows) -> list[int]:
    """A member plus one vertex whose random neighbourhood makes a fork or
    antifork (proved by the own check)."""
    while True:
        cand = add_vertex(rows, rng.getrandbits(len(rows)))
        if not is_member(cand):
            return cand


def _deep(rng, n: int, slot: int, depth: int = 0) -> list[int]:
    """A member on n vertices built by nested closed constructions.

    Which construction applies at each depth, and the sizes of the pieces,
    follow from (slot, depth) alone; the seed only fills in the pieces.  So
    every seed gives slot i the same decomposition shape, and run time
    differs across seeds far less than it would with random shapes.
    """
    if n <= 4:  # too small to hold a fork or an antifork
        return _symmetric(rng, n)
    step = slot + depth
    choice = DEEP_CONSTRUCTIONS[step % len(DEEP_CONSTRUCTIONS)] if depth < 4 else "line"
    if choice == "candled":
        size = min(n - 1, 2 + step % 6)
        return candled(size, 1 + step % 4, _deep(rng, n - size, slot, depth + 1))
    if choice in ("union", "join"):
        a = max(1, n // 3)
        parts = (_deep(rng, a, slot, depth + 1), _deep(rng, n - a, slot, depth + 1))
        return union(*parts) if choice == "union" else join(*parts)
    if choice == "complement":
        return complement(_deep(rng, n, slot, depth + 1))
    if choice == "grow":
        steps = min(n - 4, 1 + step % 3)
        return grow(rng, _deep(rng, n - steps, slot, depth + 1), steps)
    return line_graph(triangle_free_edges(rng, n))


def _symmetric(rng, n: int) -> list[int]:
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return rows


def _g6(rows) -> str:
    # Imported here so that run.py's speed probe can build its fixed graph
    # with the functions above before the package is loaded and timed.
    from uncluttered.graph import Graph
    from uncluttered.graphio import to_graph6
    return to_graph6(Graph.from_rows(tuple(rows)))


def _checked_member(rows) -> list[int]:
    if not is_member(rows):
        raise AssertionError("generator built a non-member")
    return rows


def _large_member(rng, kind: str, n: int) -> list[int]:
    if kind == "line":
        return line_graph(triangle_free_edges(rng, n))
    if kind == "coline":
        return complement(line_graph(triangle_free_edges(rng, n)))
    size = 4 + n % 9
    return candled(size, 1 + n % 4, line_graph(triangle_free_edges(rng, n - size)))


def members_large(seed: int, count: int = LARGE_COUNT) -> list[Item]:
    """Line graphs of triangle-free roots, their complements, candled
    compositions with a line-graph rest, and near-members of those.

    Slot i has size LARGE_SIZES[i % 8], kind LARGE_KINDS[(i + i // 8) % 4]
    and operation LARGE_OPS[i // 16 % 2]: every 8 slots hold each kind
    twice, and every 32 slots hold each size position once with each kind.
    """
    rng = random.Random(seed)
    items = []
    for i in range(count):
        n = LARGE_SIZES[i % 8]
        kind = LARGE_KINDS[(i + i // 8) % 4]
        op = LARGE_OPS[i // 16 % 2]
        if kind == "near":
            base_kind = LARGE_KINDS[i % 3]
            rows = near_member(rng, _checked_member(_large_member(rng, base_kind, n - 1)))
            items.append(Item(_g6(relabel(rng, rows)), "near-" + base_kind, op, False))
        else:
            rows = _checked_member(_large_member(rng, kind, n))
            items.append(Item(_g6(relabel(rng, rows)), kind, op, True))
    return items


def members_deep(seed: int, count: int = DEEP_COUNT) -> list[Item]:
    """Members built by nested candled composition, disjoint union, complete
    join, complementation and hereditary growth.  Slot i has the size and
    composition shape of slot i % 16, so every 16 slots hold the same mix."""
    rng = random.Random(seed)
    items = []
    for i in range(count):
        slot = i % len(DEEP_SIZES)
        rows = _checked_member(_deep(rng, DEEP_SIZES[slot], slot))
        items.append(Item(_g6(relabel(rng, rows)), "composed", "decompose", True))
    return items


def regressions() -> list[Item]:
    """The named regressions, with the members-deep operation."""
    return [Item(g6, "regression", "decompose", True) for g6 in REGRESSIONS]
