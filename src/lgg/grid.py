"""Dense locally Gabriel graphs on the integer grid.

Each center point of a g x g grid is iteratively assigned neighbors in its
first quadrant, walking counter-clockwise from a nearly horizontal first
neighbor until the edge direction reaches 45 degrees.  Every step places
the next neighbor strictly outside the current edge's diametral disk and
strictly below the tangent to that disk at the current neighbor, which is
exactly what keeps the union of all edges locally Gabriel.

Two step rules are provided: ``GREEDY_FEASIBLE`` takes the feasible grid
point nearest to the current neighbor, ``ANALYSIS_GUIDED`` takes the
closed-form step (x-offset ceil(c1 * sqrt(x_i)), y-offset floor(h_i + 1)
with h_i the positive root of h^2 + x_i tan(theta_i) h - d_i (x_i - d_i)).
The walk depends only on offsets, so it is run once from the origin and
translated to every center; the third-quadrant edges are its point
reflection, which makes edge symmetry exact by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

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
    """Quantities of one iteration step at center ``p``."""

    p: Point
    q: Point
    x: int  # q.x - p.x
    y: int  # q.y - p.y
    theta: float
    d: int | None  # x-step to the next neighbor, None at the last step
    h: float | None
    h_prime: float | None


@dataclass(frozen=True)
class GridBuildStats:
    q1_counts: dict[tuple[int, int], int]
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


def _feasible(px, py, qx, qy, rx, ry) -> bool:
    """Exact feasibility of grid point r as the successor of q around p."""
    dx, dy = rx - px, ry - py
    if dx < 1 or dy < 1 or dy > dx:  # open first quadrant, angle <= pi/4
        return False
    # counter-clockwise progress past q
    if (qx - px) * dy - (qy - py) * dx <= 0:
        return False
    # strictly outside the closed disk with diameter p q, and strictly
    # below the tangent to that disk at q (angle at q < pi/2, that is, q
    # strictly outside the disk with diameter p r)
    return outside_disk(px - rx, py - ry, qx - rx, qy - ry) and outside_disk(
        px - qx, py - qy, rx - qx, ry - qy
    )


def next_neighbor(p: Point, q_i: Point, params: GridParams) -> Point | None:
    """Successor of ``q_i`` in the counter-clockwise walk around ``p``.

    Returns None when no admissible grid point with direction at most 45
    degrees remains (greedy mode) or the closed-form step leaves the
    feasible region (analysis mode).  A successor has a strictly smaller
    x-offset than ``q_i``.
    """
    px, py, qx, qy = p.x, p.y, q_i.x, q_i.y
    if params.mode is Mode.ANALYSIS_GUIDED:
        x_i, y_i = qx - px, qy - py
        d_i = math.ceil(params.c1 * math.sqrt(x_i))
        if d_i >= x_i:
            return None
        h_i = h_from_eq1(x_i, y_i / x_i, d_i)
        rx, ry = qx - d_i, qy + math.floor(h_i + 1.0)
        if not _feasible(px, py, qx, qy, rx, ry):
            return None
        return Point(rx, ry)

    # Greedy: expanding ring scan around q_i for the nearest feasible
    # grid point; ties broken by smaller y, then smaller x.
    x_i, y_i = qx - px, qy - py
    k_max = 2 * (x_i + y_i) + 4
    best = None  # (dist2, ry, rx)
    for k in range(1, k_max + 1):
        if best is not None and best[0] <= (k - 1) * (k - 1):
            break
        ring = []
        for t in range(-k, k + 1):
            ring.append((qx - k, qy + t))
            ring.append((qx + k, qy + t))
        for t in range(-k + 1, k):
            ring.append((qx + t, qy - k))
            ring.append((qx + t, qy + k))
        for rx, ry in ring:
            if _feasible(px, py, qx, qy, rx, ry):
                dx, dy = rx - qx, ry - qy
                cand = (dx * dx + dy * dy, ry, rx)
                if best is None or cand < best:
                    best = cand
    if best is None:
        return None
    return Point(best[2], best[1])


def first_neighbor(p: Point, params: GridParams) -> Point:
    """Initial neighbor: x-offset s, y-offset max(1, ceil(s tan(theta0)))."""
    dy = max(1, math.ceil(params.s * math.tan(params.theta0)))
    return Point(p.x + params.s, p.y + dy)


def neighbors_q1(p: Point, params: GridParams) -> list[Point]:
    """Counter-clockwise first-quadrant neighbor sequence of ``p``.

    Offsets from ``p`` lie in [1, s]^2: the walk starts at x-offset s, each
    step lowers the x-offset, and no direction exceeds 45 degrees.
    """
    q = first_neighbor(p, params)
    out = [q]
    for _ in range(4 * (params.s + params.g)):  # safety cap, never reached
        r = next_neighbor(p, q, params)
        if r is None:
            return out
        out.append(r)
        q = r
    raise RuntimeError("neighbor iteration failed to terminate")


def step_states(p: Point, params: GridParams) -> list[StepState]:
    """Per-step analysis quantities along the Q1 walk from ``p``."""
    seq = neighbors_q1(p, params)
    states = []
    for i, q in enumerate(seq):
        x, y = q.x - p.x, q.y - p.y
        theta = math.atan2(y, x)
        if i + 1 < len(seq):
            d = q.x - seq[i + 1].x
            h = h_from_eq1(x, y / x, d) if 0 < d < x else None
            hp = d * x / y if y else None  # d cot(theta)
        else:
            d = h = hp = None
        states.append(StepState(p, q, x, y, theta, d, h, hp))
    return states


def build(params: GridParams) -> tuple[Graph, GridBuildStats]:
    """Construct and verify the grid LGG; n = g * g points.

    Every center point (both coordinates in [floor(g/3), floor(2g/3))) gets
    the Q1 offsets of the one walk from the origin, and their point
    reflection as Q3 offsets.  The verifier must report zero conflicts.
    """
    g = params.g
    points = PointSet(tuple(Point(x, y) for x in range(g) for y in range(g)))
    lo, hi = g // 3, (2 * g) // 3
    centers = [(x, y) for x in range(lo, hi) for y in range(lo, hi)]
    # index steps d > 0, so (a, a + d) and (a - d, a) are already canonical
    steps = [q.x * g + q.y for q in neighbors_q1(Point(0, 0), params)]
    edges: set[tuple[int, int]] = set()
    for x, y in centers:
        a = x * g + y
        for d in steps:
            edges.add((a, a + d))
            edges.add((a - d, a))

    graph = Graph(points, tuple(sorted(edges)))
    report = verify(graph)
    if not report.valid:
        raise GridConstructionError(report)
    q1_counts = dict.fromkeys(centers, len(steps))
    stats = GridBuildStats(q1_counts, len(graph.edges), len(report.violations))
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
