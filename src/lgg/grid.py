"""Dense locally Gabriel graphs on the integer grid.

Each center point of a g x g grid is assigned neighbors in its first
quadrant by one walk over integer offsets (x, y) from the center: it
starts from a nearly horizontal first offset and turns counter-clockwise
until the edge direction reaches 45 degrees.  Every step places the next
offset strictly outside the current edge's diametral disk and strictly
below the tangent to that disk at the current offset (``conflict_free``
at the center), which is exactly what keeps the union locally Gabriel.

Two step rules are provided: ``GREEDY_FEASIBLE`` takes the feasible offset
nearest to the current one, ``ANALYSIS_GUIDED`` takes the closed-form step
(x-offset ceil(c1 * sqrt(x_i)), y-offset floor(h_i + 1) with h_i the
positive root of h^2 + x_i tan(theta_i) h - d_i (x_i - d_i)).  The walk is
translated to every center; the third-quadrant edges are its point
reflection, which makes edge symmetry exact by construction.

The walk W alone decides the grid (``certify``).  If every offset lies in
1 <= y <= x <= g // 3, no index wraps and every vertex's neighbor offsets
lie in +-W; in integer arithmetic the conflict test depends only on
offsets, and every center holds all of +-W.  So the grid is a locally
Gabriel graph iff the 2|W| offsets +-W are pairwise ``conflict_free`` at
the origin, and its edge count is a sum over W.  Neither needs the graph.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import PointSet, conflict_free
from .graph import Graph, InvariantViolation


#: The largest grid side g with g**4 < 2**63, so that the int64 edge keys
#: i * n + j of ``build`` (n = g * g) cannot wrap.
MAX_SIDE = 55108


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
        # numpy ints pass as Python ints; a float side would fail far off, in build
        try:
            object.__setattr__(self, "g", operator.index(self.g))
        except TypeError:
            raise ValueError(f"grid side must be an integer, got {self.g!r}") from None
        if self.g < 9:
            raise ValueError("grid side must be at least 9")
        if self.g > MAX_SIDE:
            raise ValueError(f"grid side must be at most {MAX_SIDE}")
        if not 0.0 < self.theta0 < math.pi / 4:
            raise ValueError("theta0 must lie in (0, pi/4)")
        if not 1.0 < self.c1 < math.inf:
            raise ValueError("c1 must be finite and exceed 1")

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


def h_from_eq1(x_i: int, tan_theta_i: float, d_i: int) -> float:
    """Positive root of h^2 + x tan(theta) h - d (x - d) = 0."""
    if not 0 < d_i < x_i:
        raise ValueError("need 0 < d_i < x_i")
    if tan_theta_i < 0:
        raise ValueError("tan(theta) must be nonnegative")
    b = x_i * tan_theta_i
    return (math.sqrt(b * b + 4.0 * d_i * (x_i - d_i)) - b) / 2.0


def _feasible(qx, qy, rx, ry):
    """Exact feasibility of offset r after offset q; ints or int64 arrays."""
    return (
        (ry >= 1)  # open first quadrant, angle <= pi/4
        & (ry <= rx)
        # counter-clockwise progress past q
        & (qx * ry - qy * rx > 0)
        # the edges 0q and 0r coexist: r strictly outside the closed disk
        # with diameter 0q, and strictly below the tangent to that disk at
        # q (angle at q < pi/2, that is, q outside the disk on 0r)
        & conflict_free(0, 0, qx, qy, rx, ry)
    )


def next_neighbor(q: tuple[int, int], params: GridParams) -> tuple[int, int] | None:
    """Offset after ``q`` in the counter-clockwise walk, or None at its end.

    The walk ends when no feasible offset remains (greedy mode) or the
    closed-form step is infeasible (analysis mode).
    """
    qx, qy = q
    if params.mode is Mode.ANALYSIS_GUIDED:
        # ends when ceil(c1 sqrt(x)) >= x; tested before ceil, which a huge c1 overflows
        if params.c1 * math.sqrt(qx) > qx - 1:
            return None
        d = math.ceil(params.c1 * math.sqrt(qx))
        r = qx - d, qy + math.floor(h_from_eq1(qx, qy / qx, d) + 1.0)
        return r if _feasible(qx, qy, *r) else None

    # Greedy: the feasible offset nearest to q, ties broken by smaller y,
    # then smaller x.  Every feasible r has 1 <= r.x < q.x: q outside the
    # disk on 0 r means q . r < |q|^2, while r left of 0 q with r.x >= q.x
    # would give r.y > q.y and so q . r > |q|^2.  In column r.x = x the
    # feasible y form one interval [lo, hi]: r outside the disk on 0 q means
    # 2y - q.y > sqrt(q.y^2 + 4x(q.x - x)), as the lower root is negative
    # (this also puts r left of 0 q, which crosses the column inside the
    # disk); then y <= x and q . r < |q|^2.
    x = np.arange(1, qx, dtype=np.int64)
    disc = qy * qy + 4 * x * (qx - x)
    t = np.sqrt(disc).astype(np.int64)  # isqrt(disc), after a +-1 fix-up
    t -= t * t > disc
    t += (t + 1) * (t + 1) <= disc
    lo = (qy + t + 2) // 2
    # at q.y = 0, q . r < |q|^2 is x < q.x, and the bound below is >= x
    hi = np.minimum(x, (qx * qx + qy * qy - qx * x - 1) // max(qy, 1))
    ok = lo <= hi
    if not ok.any():
        return None
    # the nearest y of each column, then the nearest column
    x, y = x[ok], np.clip(qy, lo[ok], hi[ok])
    k = np.lexsort((x, y, (x - qx) ** 2 + (y - qy) ** 2))[0]
    return int(x[k]), int(y[k])


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


def certify(params: GridParams) -> GridBuildStats:
    """Certify the grid from its Q1 walk alone, and count its edges.

    Raises ``InvariantViolation`` if the grid would not be locally Gabriel;
    nothing of size n = g * g is built.
    """
    return _certify(params.g, neighbors_q1(params))


def _certify(g: int, walk: list[tuple[int, int]]) -> GridBuildStats:
    s = g // 3
    for x, y in walk:  # then no index wraps and +-W holds every neighbor offset
        if not 1 <= y <= x <= s:
            raise InvariantViolation(
                f"grid walk offset {(x, y)} lies outside 1 <= y <= x <= {s}"
            )
    offsets = np.array(walk + [(-x, -y) for x, y in walk], dtype=np.int64)
    i, j = np.triu_indices(len(offsets), 1)
    (ax, ay), (bx, by) = offsets[i].T, offsets[j].T
    if (bad := ~conflict_free(0, 0, ax, ay, bx, by)).any():
        k = int(bad.argmax())
        raise InvariantViolation(
            f"grid walk offsets {tuple(offsets[i[k]].tolist())} and "
            f"{tuple(offsets[j[k]].tolist())} conflict at the center"
        )
    # offset (x, y) joins the w x w center block C to C + (x, y): 2 w^2 edges
    # less the (w - x)(w - y) centers in both; x, y <= s <= w
    w = (2 * g) // 3 - g // 3
    total = sum(2 * w * w - (w - x) * (w - y) for x, y in walk)
    return GridBuildStats(len(walk), total)


def build(params: GridParams) -> tuple[Graph, GridBuildStats]:
    """Construct the certified grid LGG; n = g * g points.

    Every center point (both coordinates in [floor(g/3), floor(2g/3))) gets
    the Q1 offsets of the walk, and their point reflection as Q3 offsets.
    Raises ``InvariantViolation`` if the walk fails ``certify``, before
    anything of size n is built.
    """
    g = params.g
    n = g * g
    walk = neighbors_q1(params)
    stats = _certify(g, walk)
    points = PointSet(*np.divmod(np.arange(n, dtype=np.int64), g))
    side = np.arange(g // 3, (2 * g) // 3)
    centres = (side[:, None] * g + side).reshape(-1, 1)
    # index steps d > 0, so (c, c + d) and (c - d, c) are already canonical;
    # as keys i * n + j they sort lexicographically
    steps = np.array([x * g + y for x, y in walk])
    ahead, behind = centres * n + centres + steps, (centres - steps) * n + centres
    # sort and drop repeats: numpy 2.4's hash-based np.unique is about 40x
    # slower than sorting on these keys
    keys = np.sort(np.concatenate((ahead, behind), axis=None))
    keys = keys[np.r_[True, keys[1:] != keys[:-1]]]
    return Graph(points, np.column_stack(np.divmod(keys, n))), stats
