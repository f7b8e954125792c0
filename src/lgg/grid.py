"""Dense locally Gabriel graphs on the integer grid.

Each center point of a g x g grid is assigned neighbors in its first
quadrant by one walk over integer offsets (x, y) from the center: it
starts from a nearly horizontal first offset and turns counter-clockwise
until the edge direction reaches 45 degrees.  Every step places the next
offset strictly outside the current edge's diametral disk and strictly
below the tangent to that disk at the current offset, which is exactly
what keeps the union of all edges locally Gabriel.

Two step rules are provided: ``GREEDY_FEASIBLE`` takes the feasible offset
nearest to the current one, ``ANALYSIS_GUIDED`` takes the closed-form step
(x-offset ceil(c1 * sqrt(x_i)), y-offset floor(h_i + 1) with h_i the
positive root of h^2 + x_i tan(theta_i) h - d_i (x_i - d_i)).  The walk is
translated to every center; the third-quadrant edges are its point
reflection, which makes edge symmetry exact by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import Point, PointSet, outside_disk
from .graph import ConflictReport, Graph, verify


class Mode(Enum):
    GREEDY_FEASIBLE = "greedy"
    ANALYSIS_GUIDED = "analysis"


@dataclass(frozen=True)
class GridParams:
    """Construction parameters of a g x g grid."""

    g: int
    theta0: float = 1.74e-3
    c1: float = 1.01
    mode: Mode = Mode.GREEDY_FEASIBLE

    def __post_init__(self) -> None:
        if self.g < 9:
            raise ValueError("grid side must be at least 9")
        if not 0.0 < self.theta0 < math.pi / 4:
            raise ValueError("theta0 must lie in (0, pi/4)")
        if self.c1 <= 1.0:
            raise ValueError("c1 must exceed 1")

    @property
    def s(self) -> int:
        """Initial x-offset floor(g / 3); it bounds every walk offset."""
        return self.g // 3


@dataclass(frozen=True)
class StepState:
    """Quantities of one walk step at offset (x, y) from the center."""

    x: int
    y: int
    theta: float
    d: int | None  # x-step to the next neighbor, None at the last step
    h: float | None
    h_prime: float | None


@dataclass(frozen=True)
class GridBuildStats:
    q1_count: int  # first-quadrant neighbors of every center
    total_edges: int
    conflicts: int


class GridConstructionError(RuntimeError):
    """The built graph failed verification (should be unreachable)."""

    def __init__(self, report: ConflictReport):
        super().__init__(f"{len(report.violations)} conflicts in built grid graph")
        self.report = report


def h_from_eq1(x_i: int, tan_theta_i: float, d_i: int) -> float:
    """Positive root of h^2 + x tan(theta) h - d (x - d) = 0."""
    if not 0 < d_i < x_i:
        raise ValueError("need 0 < d_i < x_i")
    if tan_theta_i < 0:
        raise ValueError("tan(theta) must be nonnegative")
    b = x_i * tan_theta_i
    return (math.sqrt(b * b + 4.0 * d_i * (x_i - d_i)) - b) / 2.0


def feasibility_gap(x_i: int, theta_i: float, d_i: int) -> float:
    """Vertical room for the next grid point: d cot(theta) - h.

    The step is feasible (a grid point exists between the disk and the
    tangent line on the chosen vertical) when the gap exceeds 1.
    """
    if not 0.0 < theta_i <= math.pi / 4:
        raise ValueError("theta must lie in (0, pi/4]")
    tan = math.tan(theta_i)
    return d_i / tan - h_from_eq1(x_i, tan, d_i)


def _feasible(qx, qy, rx, ry):
    """Exact feasibility of offset r after offset q; ints or int64 arrays."""
    return (
        (ry >= 1)  # open first quadrant, angle <= pi/4
        & (ry <= rx)
        # counter-clockwise progress past q
        & (qx * ry - qy * rx > 0)
        # strictly outside the closed disk with diameter 0 q, and strictly
        # below the tangent to that disk at q (angle at q < pi/2, that is,
        # q strictly outside the disk with diameter 0 r)
        & outside_disk(-rx, -ry, qx - rx, qy - ry)
        & outside_disk(-qx, -qy, rx - qx, ry - qy)
    )


def next_neighbor(q: tuple[int, int], params: GridParams) -> tuple[int, int] | None:
    """Offset after ``q`` in the counter-clockwise walk, or None at its end.

    The walk ends when no feasible offset remains (greedy mode) or the
    closed-form step is infeasible (analysis mode).
    """
    qx, qy = q
    if params.mode is Mode.ANALYSIS_GUIDED:
        d = math.ceil(params.c1 * math.sqrt(qx))
        if d >= qx:
            return None
        r = qx - d, qy + math.floor(h_from_eq1(qx, qy / qx, d) + 1.0)
        return r if _feasible(qx, qy, *r) else None

    # Greedy: the feasible offset nearest to q, ties broken by smaller y,
    # then smaller x.  Every feasible r lies in the box 1 <= y <= x < q.x:
    # q outside the disk on 0 r means q . r < |q|^2, while r left of 0 q
    # with r.x >= q.x would give r.y > q.y and so q . r > |q|^2.
    rx, ry = np.tril_indices(qx - 1)
    rx, ry = rx + 1, ry + 1
    ok = _feasible(qx, qy, rx, ry)
    if not ok.any():
        return None
    rx, ry = rx[ok], ry[ok]
    k = np.lexsort((rx, ry, (rx - qx) ** 2 + (ry - qy) ** 2))[0]
    return int(rx[k]), int(ry[k])


def first_neighbor(params: GridParams) -> tuple[int, int]:
    """Initial offset: x = s, y = max(1, ceil(s tan(theta0)))."""
    return params.s, max(1, math.ceil(params.s * math.tan(params.theta0)))


def neighbors_q1(params: GridParams) -> list[tuple[int, int]]:
    """Counter-clockwise first-quadrant neighbor offsets of a center.

    They lie in [1, s]^2: the walk starts at x-offset s, every step lowers
    the x-offset, and no direction exceeds 45 degrees.
    """
    walk = [first_neighbor(params)]
    while (r := next_neighbor(walk[-1], params)) is not None:
        walk.append(r)
    return walk


def step_states(params: GridParams) -> list[StepState]:
    """Per-step analysis quantities along the Q1 walk."""
    seq = neighbors_q1(params)
    states = []
    for (x, y), (next_x, _) in zip(seq, seq[1:]):  # y >= 1 and 0 < d < x
        d = x - next_x
        h = h_from_eq1(x, y / x, d)
        states.append(StepState(x, y, math.atan2(y, x), d, h, d * x / y))
    x, y = seq[-1]
    return states + [StepState(x, y, math.atan2(y, x), None, None, None)]


def build(params: GridParams) -> tuple[Graph, GridBuildStats]:
    """Construct and verify the grid LGG; n = g * g points.

    Every center point (both coordinates in [floor(g/3), floor(2g/3))) gets
    the Q1 offsets of the walk, and their point reflection as Q3 offsets.
    The verifier must report zero conflicts.
    """
    g = params.g
    points = PointSet(tuple(Point(x, y) for x in range(g) for y in range(g)))
    lo, hi = g // 3, (2 * g) // 3
    # index steps d > 0, so (a, a + d) and (a - d, a) are already canonical
    steps = [x * g + y for x, y in neighbors_q1(params)]
    edges: set[tuple[int, int]] = set()
    for x in range(lo, hi):
        for y in range(lo, hi):
            a = x * g + y
            for d in steps:
                edges.add((a, a + d))
                edges.add((a - d, a))

    graph = Graph(points, tuple(sorted(edges)))
    report = verify(graph)
    if not report.valid:
        raise GridConstructionError(report)
    stats = GridBuildStats(len(steps), len(graph.edges), len(report.violations))
    return graph, stats


def predicted_bounds(
    n: int, k: int, params: GridParams
) -> tuple[float, float, float]:
    """Closed-form step bounds: (x lower bound, y upper bound, neighbor count).

    x_k >= sqrt(n)/3 - k c1 n^(1/4) / sqrt(3)
    y_k <= tan(theta0) sqrt(n)/3 + c1 k n^(1/4) / (sqrt(3) tan(theta0)) + k
    m   >= 1e-4 n^(1/4)
    """
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    rt = math.sqrt(n)
    q = n**0.25
    t0 = math.tan(params.theta0)
    x_lower = rt / 3.0 - k * params.c1 * q / math.sqrt(3.0)
    y_upper = t0 * rt / 3.0 + params.c1 * k * q / (math.sqrt(3.0) * t0) + k
    m_pred = 1e-4 * q
    return x_lower, y_upper, m_pred
