"""Uncluttered graphs: recognition, certified decomposition, bounded coloring.

A graph is uncluttered when it has no induced fork and no induced antifork.
This package recognizes the class, decomposes its members along a fixed case
list with independently re-verifiable certificates, and colors them with at
most twice the clique number of colors.
"""

from .audit import SUITE_CAPS, SUITE_NAMES, AuditReport, audit
from .census import GRAPH_COUNTS, enumerate_graphs
from .chromatic import (
    Coloring,
    EdgeColoring,
    chromatic_number_exact,
    clique_number,
    color_uncluttered,
    is_proper_coloring,
    is_proper_edge_coloring,
    max_clique,
    vizing_edge_color,
)
from .decompose import (
    ALL_CASES,
    CASE_ORDER,
    Certificate,
    DecompositionTree,
    classify,
    decomposition_tree,
    verify_certificate,
)
from .errors import (
    InputError,
    NotUnclutteredError,
    TheoremViolationError,
)
from .graph import (
    Graph,
    are_isomorphic,
    complete_graph,
    complete_join,
    cycle_graph,
    disjoint_union,
    edgeless_graph,
    is_bipartite,
    path_graph,
)
from .graphio import from_edge_list, from_graph6, to_edge_list, to_graph6
from .modular import (
    find_adjacent_simplicial_twins,
    find_nonadjacent_twins,
    find_nontrivial_homogeneous_set,
    find_simplicial_vertex,
)
from .patterns import (
    PATTERN_NAMES,
    PatternWitness,
    find_induced,
    has_induced,
    is_uncluttered,
    pattern,
)
from .structure import (
    CandelabrumStructure,
    CandledDecomposition,
    RootGraph,
    detect_candled,
    is_triangle_free,
    line_graph,
    recognize_candelabrum,
    recognize_line_graph_triangle_free,
    verify_candled,
    verify_root,
)

__version__ = "0.1.0"
