"""Dense locally Gabriel graphs on the integer grid.

Each center point of a g x g grid is assigned neighbors in its first
quadrant by one walk over integer offsets (x, y) from the center: it
starts from a nearly horizontal first offset and turns counter-clockwise
until the edge direction reaches 45 degrees.  Every step places the next
offset strictly outside the current edge's diametral disk and strictly
below the tangent to that disk at the current offset, which is exactly
what keeps the union locally Gabriel.  One column rule, ``_columns``,
decides that step in both modes: ``GREEDY_FEASIBLE`` takes the feasible
offset nearest to the current one, ``ANALYSIS_GUIDED`` takes the
closed-form step (x-offset ceil(c1 * sqrt(x_i)), y-offset floor(h_i + 1)
with h_i the positive root of h^2 + x_i tan(theta_i) h - d_i (x_i - d_i)).
The walk is translated to every center; the third-quadrant edges are its
point reflection, which makes edge symmetry exact by construction.

The walk W alone decides the grid (``certify``).  If every offset lies in
1 <= y <= x <= g // 3, no index wraps and every vertex's neighbor offsets
lie in +-W; in integer arithmetic the conflict test depends only on
offsets, and every center holds all of +-W.  So the grid is a locally
Gabriel graph iff the star of +-W at the origin (the origin joined to each
offset) is one, and ``graph.verify`` decides that: on a valid walk its
angular-neighbour certificate makes the 2|W| cyclically consecutive pair
tests of the origin's row.  The edge count is a sum over W.  Neither
needs the grid graph.  ``build`` hands each edge once to ``Graph``, which
keys, sorts and checks them: for an offset (x, y) the lower ends are the
center block C and the part of C - (x, y) outside C, the two blocks that
the edge count sums.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar

import numpy as np

from .geometry import PointSet
from .graph import Graph, InvariantViolation, verify


#: The largest grid side g with g**4 < 2**63, so that the int64 edge keys
#: i * n + j that ``Graph`` makes of the grid's edges (n = g * g) cannot wrap.
MAX_SIDE = 55108


class Mode(Enum):
    GREEDY_FEASIBLE = "greedy"
    ANALYSIS_GUIDED = "analysis"


@dataclass(frozen=True)
class GridParams:
    """Construction parameters of a g x g grid: its side and the walk's mode.

    The walk starts at angle ``theta0`` = 1.74e-3 and the analysis-guided
    step uses ``c1`` = 1.01; both are fixed constants of the construction.
    """

    g: int
    mode: Mode = Mode.GREEDY_FEASIBLE
    theta0: ClassVar[float] = 1.74e-3
    c1: ClassVar[float] = 1.01

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

    @property
    def s(self) -> int:
        """Initial x-offset floor(g / 3); it bounds every walk offset."""
        return self.g // 3


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


def _columns(qx, qy, x):
    """Bounds (lo, hi) of the feasible y of an offset (x, y) after q.

    ``x`` is a column 1 <= x < q.x, an int or an int64 array.  No other
    column holds a feasible r: q outside the disk on 0 r means
    q . r < |q|^2, while r left of 0 q with r.x >= q.x gives q . r > |q|^2.
    In column x, r outside the disk on 0 q means
    2y - q.y > sqrt(q.y^2 + 4x(q.x - x)), as the lower root is negative
    (this also puts r left of 0 q, which crosses the column inside the
    disk); then y <= x and q . r < |q|^2 (r below the tangent at q).
    """
    disc = qy * qy + 4 * x * (qx - x)
    t = np.sqrt(disc).astype(np.int64)  # isqrt(disc), after a +-1 fix-up
    t -= t * t > disc
    t += (t + 1) * (t + 1) <= disc
    # at q.y = 0, q . r < |q|^2 is x < q.x, and the bound below is >= x
    hi = np.minimum(x, (qx * qx + qy * qy - qx * x - 1) // max(qy, 1))
    return (qy + t + 2) // 2, hi


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
        rx, ry = qx - d, qy + math.floor(h_from_eq1(qx, qy / qx, d) + 1.0)
        lo, hi = _columns(qx, qy, rx)
        return (rx, ry) if lo <= ry <= hi else None

    # Greedy: the feasible offset nearest to q, ties broken by smaller y,
    # then smaller x
    x = np.arange(1, qx, dtype=np.int64)
    lo, hi = _columns(qx, qy, x)
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


def certify(params: GridParams) -> GridBuildStats:
    """Certify the grid by the star of +-W at the origin, decided by
    ``verify``, and count its edges; both need only the Q1 walk W.

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
    # the star of +-W at the origin: vertex 0 joined to each offset
    offsets = np.array(walk, dtype=np.int64)
    offsets = np.concatenate(([[0, 0]], offsets, -offsets))
    leaves = np.arange(1, len(offsets))
    star = Graph(PointSet(*offsets.T), np.column_stack((0 * leaves, leaves)))
    if bad := verify(star).violations:
        v = bad[0]
        raise InvariantViolation(
            f"grid walk offsets {tuple(offsets[v.v].tolist())} and "
            f"{tuple(offsets[v.w].tolist())} conflict at the center"
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
    walk = neighbors_q1(params)
    stats = _certify(g, walk)
    points = PointSet(*np.divmod(np.arange(g * g, dtype=np.int64), g))
    side = np.arange(g // 3, (2 * g) // 3)
    block = side[:, None] * g + side  # the center block C
    edges = []
    for x, y in walk:
        # outside C: the shifted first x rows of C and first y columns of the rest
        d = x * g + y
        lower = np.concatenate((block, block[:x] - d, block[x:, :y] - d), axis=None)
        edges.append(np.column_stack((lower, lower + d)))
    return Graph(points, np.concatenate(edges)), stats
