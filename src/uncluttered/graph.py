"""Immutable simple graphs on at most 64 vertices, stored as bitmask rows.

Vertices are the dense integers 0..n-1.  Row ``adj[u]`` is an int whose bit v
is set iff u and v are adjacent, which keeps neighborhood algebra (complement,
induced subgraphs, component sweeps) down to a handful of integer operations.
All set-valued results come back as ascending tuples, and list-valued results
are ordered by smallest member, so downstream output is reproducible.

The private mask kernels (clique, component sweep, and the
complete/anticomplete/mixed split of outside vertices) take rows and vertex
masks, which they trust to hold vertices of the graph.
They are the one implementation of each check, and the other layers call
them on parts of a graph in its own labels.  Isomorphism has one engine:
the canonical form ``invariant_key``, an individualization-refinement search
over ``_refine`` pruned by the automorphisms it finds; ``are_isomorphic``
compares two keys.  The census takes a graph's automorphism generators
from the same search (``_automorphism_generators``), adding the twin swaps
that the search skips without recording.  Twin classes, open or closed,
come from one grouping of equal rows (``_row_classes``); the twin finders
enter it only after a C-level set of their rows shows two that agree.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import InputError

MAX_VERTICES = 64


def _mask_to_tuple(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _vertex_count(n, cap: int = MAX_VERTICES) -> int:
    """n itself when it is an int (not a bool) in 0..cap; else InputError."""
    if type(n) is not int:
        raise InputError(f"vertex count must be an int, got {n!r}")
    if not 0 <= n <= cap:
        raise InputError(f"vertex count {n} outside supported range 0..{cap}")
    return n


def _iterate(items, what: str):
    """An iterator over items; InputError when items is not iterable."""
    try:
        return iter(items)
    except TypeError:
        raise InputError(f"{what} must be iterable, got {items!r}") from None


class Graph:
    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        adj = [0] * _vertex_count(n)
        for edge in _iterate(edges, "edges"):
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise InputError(f"edge {edge!r} is not a pair of vertices") from None
            for w in (u, v):
                if type(w) is not int:
                    raise InputError(f"edge endpoint must be an int, got {w!r}")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(adj))

    @classmethod
    def from_rows(cls, rows: tuple[int, ...]) -> "Graph":
        """Wrap precomputed adjacency rows (internal fast path, rows trusted)."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", len(rows))
        object.__setattr__(g, "adj", tuple(rows))
        return g

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    # -- basic queries ----------------------------------------------------

    def vertices(self) -> range:
        return range(self.n)

    def _check(self, *vs) -> None:
        """InputError unless every item of vs is an int (not a bool) in 0..n-1."""
        for v in vs:
            if type(v) is not int or not 0 <= v < self.n:
                raise InputError(f"vertex {v!r} is not an int in range for n={self.n}")

    def has_edge(self, u: int, v: int) -> bool:
        self._check(u, v)
        return bool(self.adj[u] >> v & 1)

    def degree(self, u: int) -> int:
        self._check(u)
        return self.adj[u].bit_count()

    def neighbors(self, u: int) -> tuple[int, ...]:
        self._check(u)
        return _mask_to_tuple(self.adj[u])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        out = []
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1) << (u + 1)
            while rest:
                low = rest & -rest
                out.append((u, low.bit_length() - 1))
                rest ^= low
        return out

    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.adj)) // 2

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    # -- derived graphs ---------------------------------------------------

    def complement(self) -> "Graph":
        full = self.full_mask
        # A list, not a generator: tuple() of a generator allocates a guessed
        # size and resizes, which slowly fills CPython's per-size tuple free
        # lists and raises the process's resident memory over a long run.
        return Graph.from_rows([(full ^ self.adj[u]) & ~(1 << u) & full
                                for u in range(self.n)])

    def induced(self, vs: Iterable[int]) -> "Graph":
        """Subgraph induced on ``vs``, relabeled to 0..k-1 in ascending order;
        the graph itself when ``vs`` holds every vertex.  Every item of ``vs``
        must be an int (not a bool) in 0..n-1.

        Each maximal run of consecutive kept labels moves down to its new
        place in every kept row with one mask and one shift.
        """
        keep = 0
        for v in _iterate(vs, "vertices"):
            self._check(v)
            keep |= 1 << v
        if keep == self.full_mask:
            return self
        moves = []  # (run mask, dropped labels below it)
        m = keep
        while m:
            low = m & -m
            run = m & ~(m + low)
            moves.append((run, (low - 1 & ~keep).bit_count()))
            m ^= run
        rows = []
        for run, _ in moves:
            for v in range(run.bit_length() - run.bit_count(), run.bit_length()):
                row = self.adj[v]
                new = 0
                for mask, shift in moves:
                    new |= (row & mask) >> shift
                rows.append(new)
        return Graph.from_rows(rows)

    # -- connectivity -----------------------------------------------------

    def components(self) -> list[tuple[int, ...]]:
        """Vertex sets of connected components, ordered by smallest member."""
        return [_mask_to_tuple(m) for m in _component_masks(self.adj, self.full_mask)]

    def anticomponents(self) -> list[tuple[int, ...]]:
        """Components of the complement, same ordering convention."""
        full = self.full_mask
        return [_mask_to_tuple(m) for m in _component_masks(self.adj, full, full)]

    def is_connected(self) -> bool:
        return self.n <= 1 or len(_component_masks(self.adj, self.full_mask)) == 1

    def is_anticonnected(self) -> bool:
        full = self.full_mask
        return self.n <= 1 or len(_component_masks(self.adj, full, full)) == 1

    # -- dunder -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __reduce__(self):
        # pickle and copy rebuild from the rows; the default protocol would
        # set the slots one by one, which __setattr__ refuses.
        return Graph.from_rows, (self.adj,)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()!r})"


# -- bitmask kernels ------------------------------------------------------


def _is_clique_mask(adj: tuple[int, ...], mask: int) -> bool:
    m = mask
    while m:
        low = m & -m
        if mask & ~adj[low.bit_length() - 1] & ~low:
            return False
        m ^= low
    return True


def _component_masks(adj: tuple[int, ...], within: int, flip: int = 0) -> list[int]:
    """Components of the subgraph induced on ``within``, by smallest member.

    With ``flip`` set (callers pass the full mask) the sweep follows
    non-edges, so it yields anticomponents without building a complement.
    Each round reads the rows of the frontier, the vertices reached last,
    and keeps what they newly reach as the next frontier.  For components
    that is the unreached part of the OR of the rows.  For anticomponents a
    vertex stays unreached only if it sees the whole frontier, so the round
    ANDs the rows into ``common``, starting from the unreached vertices and
    stopping as soon as it is empty, and reaches the rest.
    """
    left = within
    comps = []
    while left:
        frontier = comp = left & -left
        left ^= frontier
        while frontier and left:
            if flip:
                common = left
                while frontier and common:
                    low = frontier & -frontier
                    common &= adj[low.bit_length() - 1]
                    frontier ^= low
                frontier = left & ~common
            else:
                new = 0
                while frontier:
                    low = frontier & -frontier
                    new |= adj[low.bit_length() - 1]
                    frontier ^= low
                frontier = new & left
            comp |= frontier
            left ^= frontier
        comps.append(comp)
    return comps


def _sides(adj: tuple[int, ...], within: int, x: int) -> tuple[int, int, int]:
    """Split ``within`` (disjoint from x) into the vertices complete to x,
    anticomplete to x, and mixed on x; with x empty all count as complete."""
    comp = anti = mixed = 0
    m = within
    while m:
        low = m & -m
        row = adj[low.bit_length() - 1]
        if not x & ~row:
            comp |= low
        elif row & x:
            mixed |= low
        else:
            anti |= low
        m ^= low
    return comp, anti, mixed


def _row_classes(rows: tuple[int, ...] | list[int], within: int) -> list[int]:
    """Vertex masks of ``within`` grouped by ``rows[v] & within``, ordered by
    least member; a vertex whose row no other shares is a class of its own.

    On open rows (``adj``) a class holds pairwise nonadjacent twins, on
    closed rows (``adj[v] | 1 << v``) pairwise adjacent ones.  The twin
    finders of ``modular`` call it only once ``set`` has found two equal
    rows, so a twin-free graph skips this Python loop.
    """
    classes: dict[int, int] = {}
    for v in _mask_to_tuple(within):
        key = rows[v] & within
        classes[key] = classes.get(key, 0) | 1 << v
    return list(classes.values())


# -- bipartiteness --------------------------------------------------------


def is_bipartite(g: Graph) -> bool:
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] >= 0:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            m = g.adj[u]
            while m:
                low = m & -m
                v = low.bit_length() - 1
                if color[v] < 0:
                    color[v] = 1 - color[u]
                    stack.append(v)
                elif color[v] == color[u]:
                    return False
                m ^= low
    return True


# -- small constructions --------------------------------------------------


def edgeless_graph(n: int) -> Graph:
    return Graph(n)


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(_vertex_count(n)) for v in range(u + 1, n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(_vertex_count(n) - 1)])


def cycle_graph(n: int) -> Graph:
    if _vertex_count(n) < 3:
        raise InputError("cycles need at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    if g.n + h.n > MAX_VERTICES:
        raise InputError(f"union exceeds the {MAX_VERTICES}-vertex cap")
    rows = list(g.adj) + [row << g.n for row in h.adj]
    return Graph.from_rows(tuple(rows))


def complete_join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all edges between the two sides."""
    if g.n + h.n > MAX_VERTICES:
        raise InputError(f"join exceeds the {MAX_VERTICES}-vertex cap")
    gm = (1 << g.n) - 1
    hm = ((1 << h.n) - 1) << g.n
    rows = [g.adj[u] | hm for u in range(g.n)]
    rows += [(h.adj[u] << g.n) | gm for u in range(h.n)]
    return Graph.from_rows(tuple(rows))


# -- isomorphism and canonical form ---------------------------------------


def _refine(adj: tuple[int, ...], cells: list[int], fresh: list[int]) -> list[int]:
    """Coarsest equitable refinement of an ordered partition of all the
    vertices into cell masks, given that each cell's members already have
    equal neighbour counts in every cell outside ``fresh``.

    Each round splits every cell by its members' neighbour counts in the
    fresh cells, the parts ordered by that count vector; the parts of the
    cells that split are the next round's fresh cells, until no cell
    splits.  The counts left out are equal within every cell, so the order
    is the one that counts in every cell would give.  It depends on the
    counts alone, so relabelling the graph relabels the result cell by cell.
    """
    while fresh and len(cells) < len(adj):
        out = []
        split = []
        for cell in cells:
            if not cell & (cell - 1):
                out.append(cell)
                continue
            parts: dict[tuple[int, ...], int] = {}
            m = cell
            while m:
                low = m & -m
                row = adj[low.bit_length() - 1]
                sig = tuple([(row & c).bit_count() for c in fresh])
                parts[sig] = parts.get(sig, 0) | low
                m ^= low
            if len(parts) == 1:
                out.append(cell)
            else:
                new = [parts[sig] for sig in sorted(parts)]
                out += new
                split += new
        cells, fresh = out, split
    return cells


def _orbit_closure(mask: int, gens: list[list[int]]) -> int:
    """Least superset of ``mask`` that every permutation in ``gens`` maps
    into itself: the union of the orbits that meet ``mask``."""
    todo = mask
    while todo:
        low = todo & -todo
        todo ^= low
        v = low.bit_length() - 1
        for gamma in gens:
            w = 1 << gamma[v]
            if not mask & w:
                mask |= w
                todo |= w
    return mask


def _leaf(adj: tuple[int, ...], cells: list[int], path: list[int], found: list) -> int:
    """Compare the leaf with discrete ``cells`` to the first and the best
    leaf in ``found``; return the depth at which the search resumes.

    ``found`` holds the first leaf, the best (least) leaf, each as
    (relabelled rows, vertex order, individualized path), and the list of
    automorphisms met.  A leaf whose rows equal the first's or the best's
    gives the automorphism that maps that leaf's order onto this one
    position by position.  It fixes every vertex individualized above the
    node where the two paths part and maps that node's earlier child to the
    current one, so the current subtree is its image of an explored one and
    the search resumes at that node.
    """
    rows = []
    for c in cells:
        row = adj[c.bit_length() - 1]
        new = 0
        for j, d in enumerate(cells):
            if row & d:
                new |= 1 << j
        rows.append(new)
    leaf = tuple(rows)
    first, best, autos = found
    if best is None:
        found[0] = found[1] = (leaf, cells, tuple(path))
        return len(path)
    for other in (first, best):
        if leaf == other[0]:
            gamma = [0] * len(cells)
            for a, b in zip(other[1], cells):
                gamma[a.bit_length() - 1] = b.bit_length() - 1
            autos.append(gamma)
            return next(i for i, (u, v) in enumerate(zip(other[2], path)) if u != v)
    if leaf < best[0]:
        found[1] = (leaf, cells, tuple(path))
    return len(path)


def _least_leaf(adj: tuple[int, ...], cells: list[int], fresh: list[int],
                path: list[int], found: list) -> int:
    """Search the leaves below ``cells``, reached by individualizing the
    vertices of ``path``, into ``found`` (see ``_leaf``); return the depth at
    which the search resumes, ``len(path)`` unless an automorphism sends it
    back further.  ``fresh`` holds the cells that ``_refine`` must count
    against first: all of them at the root, and below it the two cells of
    the last individualization, which split one cell of an equitable
    partition.

    The children individualize the vertices of the first non-singleton
    cell in turn.  A vertex is skipped when it has the same open or closed
    neighbourhood as one already tried (swapping two twins is an
    automorphism that fixes the partition), or when it lies in the orbit of
    an explored child under the automorphisms found that fix ``path``.
    Either way its subtree is an automorphic image of one explored, with
    the same leaves.
    """
    cells = _refine(adj, cells, fresh)
    for i, cell in enumerate(cells):
        if cell & (cell - 1):
            break
    else:
        return _leaf(adj, cells, path, found)
    depth = len(path)
    head, tail = cells[:i], cells[i + 1:]
    autos = found[2]
    seen = len(autos)
    fixing: list[list[int]] = []
    explored = 0  # the orbits of the children explored so far
    tried = set()
    m = cell
    while m:
        low = m & -m
        m ^= low
        row = adj[low.bit_length() - 1]
        if low & explored or row in tried or row | low in tried:
            continue
        tried.add(row)
        tried.add(row | low)
        path.append(low.bit_length() - 1)
        pair = [low, cell ^ low]
        back = _least_leaf(adj, head + pair + tail, pair, path, found)
        path.pop()
        if back < depth:
            return back
        explored |= low
        if len(autos) > seen:
            fixing += [a for a in autos[seen:] if all(a[v] == v for v in path)]
            seen = len(autos)
        if fixing:
            explored = _orbit_closure(explored, fixing)
    return depth


def invariant_key(g: Graph) -> tuple[int, ...]:
    """Canonical form: equal keys iff the graphs are isomorphic.

    Individualization-refinement with automorphism pruning (McKay and
    Piperno, Practical graph isomorphism II, 2014): the key is the least
    adjacency-row tuple over the discrete leaves of the search tree.  Leaves
    with equal rows yield automorphisms, which send the search back to where
    the two paths part and prune children in the orbit of an explored one.
    A pruned subtree is an automorphic image of an explored subtree, with
    the same leaves, so pruning changes the cost and never the key.
    """
    return _search(g)[1][0]


def _search(g: Graph) -> list:
    """Run the canonical search on g; return its ``found`` (see ``_leaf``)."""
    found = [None, None, []]
    cells = [g.full_mask] if g.n else []
    _least_leaf(g.adj, cells, cells, [], found)
    return found


def _automorphism_generators(g: Graph) -> list[list[int]]:
    """Automorphisms of g as vertex maps: those that the search behind
    ``invariant_key`` meets, plus the transposition of each two consecutive
    members of every open-twin and closed-twin class (``_row_classes``);
    these generate every twin swap, whose subtrees the search skips without
    recording it.

    On every census parent they have the whole group's orbits on vertex
    sets: the tests compare them with a brute-force group up to 6 vertices,
    and pin the candidate counts, the whole group's orbit counts, up to 7.
    The census relies only on their being automorphisms; a smaller group
    would cost it candidates, never a class.
    """
    gens = _search(g)[2]
    closed = [row | 1 << v for v, row in enumerate(g.adj)]
    for rows in (g.adj, closed):
        for twins in _row_classes(rows, g.full_mask):
            vs = _mask_to_tuple(twins)
            for u, v in zip(vs, vs[1:]):
                swap = list(range(g.n))
                swap[u], swap[v] = v, u
                gens.append(swap)
    return gens


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """True iff g and h have equal vertex counts, equal edge counts and
    equal canonical forms (``invariant_key``)."""
    return (g.n == h.n and g.edge_count() == h.edge_count()
            and invariant_key(g) == invariant_key(h))
