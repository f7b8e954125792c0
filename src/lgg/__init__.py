"""Locally Gabriel graphs: predicates, constructions, oracles, independent sets."""

from .convex import (
    Construction,
    centrally_symmetric_ladder,
    circle_cycle,
    half_convex_fan,
    monotonic_path,
)
from .extremal import ConflictGraph, ExtremalResult, build_conflict_graph, max_lgg
from .geometry import ConvexClass, ConvexKind, Point, PointSet, classify
from .graph import ConflictReport, Graph, random_maximal_lgg, verify
from .grid import (
    GridBuildStats,
    GridParams,
    Mode,
    build,
    first_neighbor,
    h_from_eq1,
    neighbors_q1,
    next_neighbor,
)
from .independence import (
    IndependentSetResult,
    MonotoneSeq,
    independent_set,
    longest_monotone_subsequence,
    monotone_greedy_is,
    neighborhood_coloring,
)

__all__ = [
    "ConflictGraph",
    "ConflictReport",
    "Construction",
    "ConvexClass",
    "ConvexKind",
    "ExtremalResult",
    "Graph",
    "GridBuildStats",
    "GridParams",
    "IndependentSetResult",
    "Mode",
    "MonotoneSeq",
    "Point",
    "PointSet",
    "build",
    "build_conflict_graph",
    "centrally_symmetric_ladder",
    "circle_cycle",
    "classify",
    "first_neighbor",
    "h_from_eq1",
    "half_convex_fan",
    "independent_set",
    "longest_monotone_subsequence",
    "max_lgg",
    "monotone_greedy_is",
    "monotonic_path",
    "neighborhood_coloring",
    "neighbors_q1",
    "next_neighbor",
    "random_maximal_lgg",
    "verify",
]

__version__ = "0.1.0"
