"""Coloring: exact small-graph oracles and the constructive bounded colorer.

The constructive path colors any uncluttered graph with at most twice its
clique number of colors by structural recursion: palettes merge across
components, stack across anticomponents, extend over a simplicial vertex,
copy across nonadjacent twins, and bottom out in one of two base cases.  A
line graph of a triangle-free root inherits the root's edge coloring by
Misra and Gries's fan construction (at most max degree + 1 colors, kept in
one index of colors by vertex, each fan walked once to the least landing
index); the complement of one is colored through a greedy maximal
matching, whose matched endpoints cover every root edge and hand each one
the color of its smallest covering endpoint.

The same recursion returns the clique number of each part, because every
step keeps it exact: the maximum over components, the sum over
anticomponents, a simplicial vertex's closed neighbourhood against the rest,
nothing for a removed twin, the root's maximum degree on a line-graph leaf
and the root's maximum matching (Edmonds' blossom search) on a co-line leaf,
where a clique is a set of pairwise disjoint root edges.

The recursion runs on vertex masks of the input and writes every color into
one list in the input's own labels; it takes components and anticomponents
from one sweep of the rows (read complemented for anticomponents, so no
complement is built), and a leaf's root comes from the input's rows, or
the complement's, within the leaf's mask.

The exact clique and chromatic oracles audit that construction and feed
nothing into it; both search bitmasks and are meant for n well under twenty.
The clique search is branch and bound; the chromatic search backtracks over
one vertex mask per color class, for palette sizes up from the clique number.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InputError, NotUnclutteredError, TheoremViolationError
from .graph import Graph, _component_masks, _mask_to_tuple
from .graphio import to_graph6
from .modular import _nonadjacent_twins_in, _simplicial_in
from .patterns import is_uncluttered
from .structure import _line_root


class Coloring(NamedTuple):
    """A proper vertex coloring with its contiguous palette size and the
    clique number it was measured against."""
    colors: tuple[int, ...]
    num_colors: int
    omega_used: int

    def to_json_dict(self) -> dict:
        return {"colors": list(self.colors),
                "num_colors": self.num_colors,
                "omega": self.omega_used}


class EdgeColoring(NamedTuple):
    """A proper edge coloring; assignment maps (a, b) with a < b to a color."""
    assignment: dict
    num_colors: int


def is_proper_coloring(g: Graph, colors) -> bool:
    """colors is a tuple or list of g.n int colors, and no edge joins two
    vertices of one color; any other payload gives False."""
    if not (isinstance(colors, (tuple, list)) and len(colors) == g.n
            and all(type(c) is int for c in colors)):
        return False
    return all(colors[u] != colors[v] for u, v in g.edges())


def is_proper_edge_coloring(h: Graph, assignment: dict) -> bool:
    """assignment maps each edge (a, b), a < b, of h to an int color, and no
    two edges at a vertex share a color: the (endpoint, color) pairs are
    then all distinct.  Any other payload gives False."""
    if not (isinstance(assignment, dict)
            and all(type(e) is tuple and len(e) == 2 and type(e[0]) is type(e[1]) is int
                    and type(c) is int for e, c in assignment.items())
            and sorted(assignment) == h.edges()):
        return False
    return len({(x, c) for e, c in assignment.items() for x in e}) == 2 * len(assignment)


# -- exact oracles ----------------------------------------------------------


def max_clique(g: Graph) -> tuple[int, ...]:
    """One maximum clique, via branch and bound with a greedy coloring bound."""
    return _mask_to_tuple(_expand_clique(g.adj, 0, 0, g.full_mask, 0))


def _expand_clique(adj: tuple[int, ...], r: int, r_size: int, p: int,
                   best: int) -> int:
    """Best clique mask after searching the extensions of r by p."""
    if not p:
        return r if r_size > best.bit_count() else best
    # Order p by greedy coloring; color index bounds the clique extension.
    order: list[tuple[int, int]] = []
    q = p
    color = 0
    while q:
        color += 1
        avail = q
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            order.append((v, color))
            avail &= ~adj[v] & ~low
            q &= ~low
    for v, color in reversed(order):
        if r_size + color <= best.bit_count():
            return best
        best = _expand_clique(adj, r | 1 << v, r_size + 1, p & adj[v], best)
        p &= ~(1 << v)
    return best


def clique_number(g: Graph) -> int:
    return len(max_clique(g))


def _extend_coloring(adj: tuple[int, ...], rest: list[int], classes: list[int],
                     i: int, used: int) -> bool:
    """Color rest[i:] into the class masks, ``used`` open so far; a failed
    search leaves the masks as it found them."""
    if i == len(rest):
        return True
    v = rest[i]
    row, bit = adj[v], 1 << v
    # New color classes are opened in ascending order only.
    for c in range(min(used + 1, len(classes))):
        if classes[c] & row:
            continue
        classes[c] |= bit
        if _extend_coloring(adj, rest, classes, i + 1, max(used, c + 1)):
            return True
        classes[c] ^= bit
    return False


def chromatic_number_exact(g: Graph) -> int:
    """Exact chromatic number: palette sizes are tried up from the clique
    number, each with a maximum clique precolored to break symmetry."""
    if g.n > 16:
        raise InputError("exact chromatic oracle capped at n <= 16")
    seed = max_clique(g)
    rest = sorted(set(range(g.n)).difference(seed), key=lambda v: (-g.degree(v), v))
    classes = [1 << v for v in seed]
    while not _extend_coloring(g.adj, rest, classes, 0, len(seed)):
        classes.append(0)
    return len(classes)


# -- edge coloring ----------------------------------------------------------


def vizing_edge_color(h: Graph) -> EdgeColoring:
    """Proper edge coloring with at most max-degree + 1 colors.

    Misra and Gries's fan construction (A constructive proof of Vizing's
    theorem, 1992), over the edges in lexicographic order.  For (u, v) it
    grows a maximal fan v = f0, f1, ... at u, each (u, f_i) by the least
    color free at f_{i-1} and new to the fan; with c least free at u and d
    at the fan's end, flips the d/c path from u if d is busy at u; then
    walks the fan once to the least j where d is free, shifts the colors of
    (u, f_1..f_j) one step back and gives (u, f_j) d.  The one index is
    ``at[x]`` (color -> neighbour), with ``used[x]`` its busy-color mask.
    """
    at: list[dict[int, int]] = [{} for _ in range(h.n)]
    used = [0] * h.n

    def paint(a: int, b: int, c: int) -> None:
        at[a][c], at[b][c] = b, a
        used[a] |= 1 << c
        used[b] |= 1 << c

    def wipe(a: int, b: int, c: int) -> None:
        del at[a][c], at[b][c]
        used[a] &= ~(1 << c)
        used[b] &= ~(1 << c)

    def least_free(x: int) -> int:
        return (~used[x] & used[x] + 1).bit_length() - 1

    for u, v in h.edges():
        # cols[i] is the color of (u, fan[i]); left: u's colors not in the fan.
        fan, cols, left = [v], [-1], used[u]
        while m := left & ~used[fan[-1]]:
            col = (m & -m).bit_length() - 1
            left ^= 1 << col
            fan.append(at[u][col])
            cols.append(col)
        c, d = least_free(u), least_free(fan[-1])
        if used[u] >> d & 1:
            # c is free at u: a path, and only its first edge is at u.
            path, x, col = [], u, d
            while col in at[x]:
                path.append((x, at[x][col], col))
                x, col = at[x][col], c if col == d else d
            for a, b, col in path:
                wipe(a, b, col)
            for a, b, col in path:
                paint(a, b, c if col == d else d)
            cols = [c if col == d else col for col in cols]
        # Stop where d is free, or where a step no longer is a fan step.
        j = 0
        while (used[fan[j]] >> d & 1 and j + 1 < len(fan)
               and not used[fan[j]] >> cols[j + 1] & 1):
            j += 1
        for i in range(1, j + 1):
            wipe(u, fan[i], cols[i])
            paint(u, fan[i - 1], cols[i])
        paint(u, fan[j], d)
    color_at = [{b: c for c, b in row.items()} for row in at]
    assignment = {(a, b): color_at[a][b] for a, b in h.edges()}
    return EdgeColoring(assignment, len(set(assignment.values())))


# -- matching cover coloring -------------------------------------------------


def _greedy_matching(rows: tuple[int, ...]) -> tuple[list[int], int]:
    """The greedy maximal matching that pairs each free vertex, in
    ascending order, with its least free neighbour: the pairs that taking
    the edges in lexicographic order gives.  Returns each vertex's mate (-1
    when free) and the mask of matched vertices."""
    mate = [-1] * len(rows)
    matched = 0
    for v, row in enumerate(rows):
        free = row & ~matched
        if free and not matched >> v & 1:
            u = (free & -free).bit_length() - 1
            mate[u], mate[v] = v, u
            matched |= 1 << u | 1 << v
    return mate, matched


def _cover_colors(root: tuple[int, ...], edge_map) -> list[int]:
    """Raw cover colors for host vertices mapped onto edges of these root rows.

    A greedy maximal matching's endpoints cover every root edge; each mapped
    edge a < b takes its smallest matched endpoint, a if matched, else b.
    """
    matched = _greedy_matching(root)[1]
    return [a if matched >> a & 1 else b for a, b in edge_map]


def _max_matching(rows: tuple[int, ...]) -> int:
    """Size of a maximum matching of the graph with these rows.

    Edmonds' blossom search (Paths, trees, and flowers, 1965), started from
    a greedy maximal matching.  Each free vertex roots one alternating-tree
    search, which shrinks every odd cycle it closes into the cycle's base
    and flips the first augmenting path it meets.  A vertex that roots no
    augmenting path roots none after later augmentations either, so one
    search per free vertex suffices.
    """
    n = len(rows)
    mate, matched = _greedy_matching(rows)
    size = matched.bit_count() // 2
    for r in range(n):
        if size == n // 2:
            break
        if mate[r] < 0 and rows[r] and _augment(rows, mate, r):
            size += 1
    return size


def _augment(rows: tuple[int, ...], mate: list[int], root: int) -> bool:
    """Grow an alternating tree from the free vertex ``root``; flip the
    first augmenting path found into ``mate`` and report whether there was
    one.  ``parent`` links each inner vertex to the outer vertex that
    reached it, and ``base`` maps each vertex to the base of the blossom
    that holds it."""
    n = len(rows)
    parent = [-1] * n
    base = list(range(n))
    outer = 1 << root
    queue = [root]

    def mark(v: int, b: int, child: int) -> int:
        """Re-link the path v..b of a closing blossom and return its bases."""
        shrunk = 0
        while base[v] != b:
            shrunk |= 1 << base[v] | 1 << base[mate[v]]
            parent[v] = child
            child = mate[v]
            v = parent[child]
        return shrunk

    for v in queue:
        m = rows[v]
        while m:
            low = m & -m
            m ^= low
            w = low.bit_length() - 1
            if base[v] == base[w] or mate[v] == w:
                continue
            if w == root or mate[w] >= 0 and parent[mate[w]] >= 0:
                # w is outer too: the edge closes an odd cycle.  Its base is
                # the first common base on the two tree paths to the root.
                seen = 0
                a = v
                while True:
                    a = base[a]
                    seen |= 1 << a
                    if mate[a] < 0:
                        break
                    a = parent[mate[a]]
                b = base[w]
                while not seen >> b & 1:
                    b = base[parent[mate[b]]]
                shrunk = mark(v, b, w) | mark(w, b, v)
                for x in range(n):
                    if shrunk >> base[x] & 1:
                        base[x] = b
                        if not outer >> x & 1:
                            outer |= 1 << x
                            queue.append(x)
            elif parent[w] < 0:
                parent[w] = v
                if mate[w] < 0:
                    while w >= 0:
                        v = parent[w]
                        nxt = mate[v]
                        mate[v], mate[w] = w, v
                        w = nxt
                    return True
                outer |= 1 << mate[w]
                queue.append(mate[w])
    return False


def _compress(raw: list[int]) -> list[int]:
    remap = {c: i for i, c in enumerate(sorted(set(raw)))}
    return [remap[c] for c in raw]


# -- the constructive theorem colorer ----------------------------------------


def _color_on(g: Graph, within: int, cols: list[int], base: int,
              connected: bool = False, anticonnected: bool = False) -> tuple[int, int]:
    """Color g induced on ``within`` into ``cols`` with the palette
    base..base+k-1 and return k and the clique number of that part.

    ``connected`` and ``anticonnected`` say what the caller has proven of
    the part, and skip the sweep that would only confirm it: a component is
    connected and an anticomponent co-connected; removing a simplicial
    vertex, whose neighbours form a clique, keeps a part connected; and
    removing one of two nonadjacent twins keeps it connected and
    co-connected, as the other twin takes its place in every path of g and
    of the complement.
    """
    if not within:
        return 0, 0
    if not connected:
        comps = _component_masks(g.adj, within)
        if len(comps) > 1:
            k = omega = 0
            for part in comps:
                kp, wp = _color_on(g, part, cols, base, True)
                k, omega = max(k, kp), max(omega, wp)
            return k, omega
    if not anticonnected:
        anti = _component_masks(g.adj, within, g.full_mask)
        if len(anti) > 1:
            k = omega = 0
            for part in anti:
                kp, wp = _color_on(g, part, cols, base + k, False, True)
                k, omega = k + kp, omega + wp
            return k, omega
    v = _simplicial_in(g.adj, within)
    if v is not None:
        k, omega = _color_on(g, within & ~(1 << v), cols, base, True)
        near = g.adj[v] & within
        taken = {cols[w] for w in _mask_to_tuple(near)}
        c = base
        while c in taken:
            c += 1
        cols[v] = c
        return max(k, c - base + 1), max(omega, near.bit_count() + 1)
    pair = _nonadjacent_twins_in(g.adj, within)
    if pair is not None:
        u, v = pair
        k, omega = _color_on(g, within & ~(1 << u), cols, base, True, True)
        cols[u] = cols[v]
        return k, omega
    found = _line_root(g.adj, within)
    if found is not None:
        root, edge_map = found
        ec = vizing_edge_color(Graph.from_rows(root))
        raw = _compress([ec.assignment[e] for e in edge_map])
        omega = max(row.bit_count() for row in root)
    else:
        found = _line_root([within & ~r & ~(1 << v) for v, r in enumerate(g.adj)], within)
        if found is None:
            h = g.induced(_mask_to_tuple(within))
            raise TheoremViolationError(
                f"uncluttered graph {to_graph6(h)!r} fell through the coloring recursion")
        root, edge_map = found
        raw = _compress(_cover_colors(root, edge_map))
        omega = _max_matching(root)
    for w, c in zip(_mask_to_tuple(within), raw):
        cols[w] = base + c
    return max(raw) + 1, omega


def color_uncluttered(g: Graph) -> Coloring:
    """Proper coloring of an uncluttered graph with at most 2*omega colors,
    omega read from the coloring recursion."""
    witness = is_uncluttered(g)
    if witness is not None:
        raise NotUnclutteredError(witness)
    return _color_member(g)


def _color_member(g: Graph) -> Coloring:
    """color_uncluttered on a g already known to be uncluttered."""
    cols = [0] * g.n
    num, omega = _color_on(g, g.full_mask, cols, 0)
    return Coloring(tuple(cols), num, omega)
