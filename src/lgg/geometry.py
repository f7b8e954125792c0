"""Exact geometric primitives for locally Gabriel graphs.

Points carry either exact integer coordinates (all predicates are then
decided with exact integer arithmetic) or double-precision coordinates
tagged with a relative tolerance ``eps``.  The two kinds never mix inside
one computation.

The central predicate is the diametral-disk test: a point ``r`` lies in the
closed disk with segment ``pq`` as diameter iff ``(p - r) . (q - r) <= 0``.
Two edges sharing an endpoint ``p`` conflict iff one of the other endpoints
lies in the closed diametral disk of the other edge; conflicting edges
cannot coexist in a locally Gabriel graph.  ``outside_disk`` is the one
definition of this test; every scalar and vectorised caller goes through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

#: Exact integer coordinates are bounded so that the predicates' dot products
#: fit int64: differences are at most 2**31 per axis, and for p != q one
#: factor of a . b is at most 2**31 - 1, so |a . b| <= 2**63 - 2**31.
MAX_EXACT_COORD = 2**30

#: Default relative tolerance of real-coordinate points.
DEFAULT_EPSILON = 1e-9

INTERIOR = "interior"
BOUNDARY = "boundary"


class CoordinateKindError(TypeError):
    """Raised when exact-integer and real points meet in one predicate."""


@dataclass(frozen=True)
class Point:
    """A point of the plane.

    ``x`` and ``y`` are either both ``int`` (exact mode, ``eps`` must be 0)
    or both ``float`` (real mode, ``eps`` is a nonnegative relative
    tolerance used by the predicates).
    """

    x: int | float
    y: int | float
    eps: float = 0.0

    def __post_init__(self) -> None:
        ix = isinstance(self.x, int) and not isinstance(self.x, bool)
        iy = isinstance(self.y, int) and not isinstance(self.y, bool)
        if ix != iy:
            raise CoordinateKindError(
                f"mixed coordinate kinds in point ({self.x!r}, {self.y!r})"
            )
        if ix:
            if abs(self.x) > MAX_EXACT_COORD or abs(self.y) > MAX_EXACT_COORD:
                raise ValueError(
                    f"exact coordinate magnitude exceeds {MAX_EXACT_COORD}"
                )
            if self.eps != 0.0:
                raise ValueError("exact points carry eps = 0")
        else:
            if not (isinstance(self.x, float) and isinstance(self.y, float)):
                raise CoordinateKindError(
                    f"coordinates must be int or float, got {type(self.x)}"
                )
            if not (math.isfinite(self.x) and math.isfinite(self.y)):
                raise ValueError(f"non-finite coordinate ({self.x!r}, {self.y!r})")
            if not 0.0 <= self.eps < math.inf:
                raise ValueError("eps must be finite and nonnegative")

    @property
    def is_exact(self) -> bool:
        return isinstance(self.x, int)


@dataclass(frozen=True)
class PointSet:
    """An ordered sequence of distinct points of one coordinate kind and eps."""

    points: tuple[Point, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("point set must be nonempty")
        if len({p.is_exact for p in self.points}) > 1:
            raise CoordinateKindError("point set mixes exact and real points")
        if len({p.eps for p in self.points}) > 1:
            raise ValueError("point set mixes tolerances eps")
        seen = set()
        for i, p in enumerate(self.points):
            key = (p.x, p.y)
            if key in seen:
                raise ValueError(f"point {i} duplicates an earlier point {key}")
            seen.add(key)

    @classmethod
    def of(cls, coords: Sequence[tuple], eps: float = 0.0) -> "PointSet":
        return cls(tuple(Point(x, y, eps) for x, y in coords))

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int) -> Point:
        return self.points[i]

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    @property
    def is_exact(self) -> bool:
        return self.points[0].is_exact

    @property
    def eps(self) -> float:
        return self.points[0].eps

    def xs(self) -> list:
        return [p.x for p in self.points]

    def ys(self) -> list:
        return [p.y for p in self.points]


def coord_arrays(ps: PointSet) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate arrays on which ``outside_disk`` decides as on the points.

    int64 for integer points (exact by the ``MAX_EXACT_COORD`` bound on
    distinct points), float64 for real points.
    """
    dtype = np.int64 if ps.is_exact else np.float64
    return np.array(ps.xs(), dtype=dtype), np.array(ps.ys(), dtype=dtype)


def outside_disk(ax, ay, bx, by, eps: float = 0.0):
    """Whether ``r`` lies strictly outside the closed disk on diameter ``pq``.

    ``a = p - r``, ``b = q - r``; the test is ``a . b > eps * (|a| * |b|)``
    (``a . b > 0`` when ``eps == 0``).  Only arithmetic and ``np.sqrt``, so
    Python numbers and int64 or float64 arrays decide bit for bit alike.
    """
    dot = ax * bx + ay * by
    if not eps:
        return dot > 0
    return dot > eps * (np.sqrt(ax * ax + ay * ay) * np.sqrt(bx * bx + by * by))


def _check_kinds(*pts: Point) -> None:
    kind = pts[0].is_exact
    for p in pts[1:]:
        if p.is_exact != kind:
            raise CoordinateKindError("predicate arguments mix coordinate kinds")


def _coincident(a: Point, b: Point) -> bool:
    return a.x == b.x and a.y == b.y


def disk_side(p: Point, q: Point, r: Point) -> int:
    """Position of ``r`` relative to the closed disk with diameter ``pq``.

    Returns +1 strictly outside, 0 on the boundary (within the tolerance
    band for real points) and -1 strictly inside.
    """
    _check_kinds(p, q, r)
    if _coincident(p, q):
        raise ValueError("disk endpoints coincide")
    if _coincident(r, p) or _coincident(r, q):
        raise ValueError("query point coincides with a disk endpoint")
    ax, ay = p.x - r.x, p.y - r.y
    bx, by = q.x - r.x, q.y - r.y
    eps = max(p.eps, q.eps, r.eps)
    if outside_disk(ax, ay, bx, by, eps):
        return 1
    # negating a is exact, so this is the mirror test a . b < -band
    return -1 if outside_disk(-ax, -ay, bx, by, eps) else 0


def in_closed_disk(p: Point, q: Point, r: Point) -> bool:
    """True iff ``r`` lies in the closed disk with ``pq`` as diameter."""
    return disk_side(p, q, r) <= 0


def edges_conflict(p: Point, q: Point, r: Point) -> bool:
    """Conflict test for the two edges (p, q) and (p, r) sharing ``p``.

    Equivalent to the angle formulation: the edges conflict iff the angle
    at ``q`` or at ``r`` in triangle pqr is at least a right angle.
    """
    return conflict_kind(p, q, r) is not None


def conflict_kind(p: Point, q: Point, r: Point) -> str | None:
    """Classify the conflict between edges (p, q) and (p, r).

    Returns ``"interior"`` when one endpoint lies strictly inside the other
    edge's diametral disk, ``"boundary"`` when the sharpest containment is
    on the boundary, and ``None`` when the edges do not conflict.
    """
    if _coincident(q, r):
        raise ValueError("edge endpoints q and r coincide")
    s1 = disk_side(p, q, r)
    s2 = disk_side(p, r, q)
    if s1 < 0 or s2 < 0:
        return INTERIOR
    if s1 == 0 or s2 == 0:
        return BOUNDARY
    return None


# --- point-set classification -------------------------------------------


class ConvexKind(Enum):
    UPPER_RIGHT_MONOTONIC = "UpperRightMonotonic"
    UPPER_LEFT_MONOTONIC = "UpperLeftMonotonic"
    LOWER_RIGHT_MONOTONIC = "LowerRightMonotonic"
    LOWER_LEFT_MONOTONIC = "LowerLeftMonotonic"
    RIGHT_HALF_CONVEX = "RightHalfConvex"
    LEFT_HALF_CONVEX = "LeftHalfConvex"
    ON_COMMON_CIRCLE = "OnCommonCircle"
    CENTRALLY_SYMMETRIC_CONVEX = "CentrallySymmetricConvex"
    GENERAL_CONVEX = "GeneralConvex"
    NON_CONVEX = "NonConvex"


_MONOTONIC_KINDS = {
    ConvexKind.UPPER_RIGHT_MONOTONIC,
    ConvexKind.UPPER_LEFT_MONOTONIC,
    ConvexKind.LOWER_RIGHT_MONOTONIC,
    ConvexKind.LOWER_LEFT_MONOTONIC,
}


@dataclass(frozen=True)
class ConvexClass:
    kind: ConvexKind
    strict: bool

    @property
    def is_monotonic(self) -> bool:
        return self.kind in _MONOTONIC_KINDS


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_chains(pts: list[tuple]) -> tuple[list[tuple], list[tuple]]:
    """Lower and upper hull chains, left to right, with the points on hull edges.

    Andrew's monotone chain, popping only on right turns.
    """
    pts = sorted(set(pts))
    lower: list[tuple] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) < 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) < 0:
            upper.pop()
        upper.append(p)
    return lower, upper[::-1]


def _monotone_flags(vals: list) -> tuple[bool, bool, bool, bool]:
    """(non-decreasing, strictly increasing, non-increasing, strictly decreasing)."""
    nondec = all(a <= b for a, b in zip(vals, vals[1:]))
    inc = all(a < b for a, b in zip(vals, vals[1:]))
    noninc = all(a >= b for a, b in zip(vals, vals[1:]))
    dec = all(a > b for a, b in zip(vals, vals[1:]))
    return nondec, inc, noninc, dec


def _classify_monotonic(ps: PointSet) -> ConvexClass | None:
    """Monotonic kind read off the given sequence order, or None.

    The kind depends on the traversal direction: x non-decreasing with y
    non-increasing is upper-right, and reflections permute the kinds
    accordingly (x-axis swaps upper/lower, y-axis swaps right/left).
    """
    xs, ys = ps.xs(), ps.ys()
    x_nondec, x_inc, x_noninc, x_dec = _monotone_flags(xs)
    y_nondec, y_inc, y_noninc, y_dec = _monotone_flags(ys)
    table = [
        (x_nondec and y_noninc, x_inc and y_dec, ConvexKind.UPPER_RIGHT_MONOTONIC),
        (x_noninc and y_noninc, x_dec and y_dec, ConvexKind.UPPER_LEFT_MONOTONIC),
        (x_nondec and y_nondec, x_inc and y_inc, ConvexKind.LOWER_RIGHT_MONOTONIC),
        (x_noninc and y_nondec, x_dec and y_inc, ConvexKind.LOWER_LEFT_MONOTONIC),
    ]
    # Prefer a strictly satisfied kind over a weakly satisfied earlier one.
    for weak, strict, kind in table:
        if strict:
            return ConvexClass(kind, True)
    for weak, strict, kind in table:
        if weak:
            return ConvexClass(kind, False)
    return None


def _classify_half(lower: list[tuple], upper: list[tuple]) -> ConvexClass | None:
    """Right or left half-convex class of strictly convex hull chains, or None."""
    # the shared end points count as lower-chain points, except the top of
    # a vertical right edge
    up, low = upper[1:-1], lower
    if lower[-2][0] == lower[-1][0]:
        up, low = upper[1:], lower[:-1]
    u_nondec, u_inc, u_noninc, u_dec = _monotone_flags([c[1] for c in up])
    l_nondec, l_inc, l_noninc, l_dec = _monotone_flags([c[1] for c in low])
    if u_noninc and l_nondec:
        return ConvexClass(ConvexKind.RIGHT_HALF_CONVEX, u_dec and l_inc)
    if u_nondec and l_noninc:
        return ConvexClass(ConvexKind.LEFT_HALF_CONVEX, u_inc and l_dec)
    return None


def _is_centrally_symmetric(ps: PointSet) -> bool:
    n = len(ps)
    if n % 2 != 0:
        return False
    if ps.is_exact:
        sx = sum(p.x for p in ps)
        sy = sum(p.y for p in ps)
        cx2, cy2 = Fraction(2 * sx, n), Fraction(2 * sy, n)
        have = {(Fraction(p.x), Fraction(p.y)) for p in ps}
        return all((cx2 - p.x, cy2 - p.y) in have for p in ps)
    cx2 = 2.0 * sum(p.x for p in ps) / n
    cy2 = 2.0 * sum(p.y for p in ps) / n
    scale = max(max(abs(p.x), abs(p.y)) for p in ps) or 1.0
    tol = max(ps.eps, 1e-12) * 4.0 * scale
    pts = [(p.x, p.y) for p in ps]
    for p in ps:
        mx, my = cx2 - p.x, cy2 - p.y
        if not any(abs(mx - qx) <= tol and abs(my - qy) <= tol for qx, qy in pts):
            return False
    return True


def _circumcenter(a, b, c):
    """Circumcenter of three non-collinear points; exact for Fractions."""
    d = 2 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
    if d == 0:
        return None
    a2 = a[0] * a[0] + a[1] * a[1]
    b2 = b[0] * b[0] + b[1] * b[1]
    c2 = c[0] * c[0] + c[1] * c[1]
    ux = (a2 * (b[1] - c[1]) + b2 * (c[1] - a[1]) + c2 * (a[1] - b[1])) / d
    uy = (a2 * (c[0] - b[0]) + b2 * (a[0] - c[0]) + c2 * (b[0] - a[0])) / d
    return ux, uy


def _on_common_circle(ps: PointSet) -> bool:
    if len(ps) <= 2:
        return True
    if ps.is_exact:
        coords = [(Fraction(p.x), Fraction(p.y)) for p in ps]
    else:
        coords = [(p.x, p.y) for p in ps]
    center = None
    a = coords[0]
    for i in range(1, len(coords) - 1):
        center = _circumcenter(a, coords[i], coords[i + 1])
        if center is not None:
            break
    if center is None:
        return False  # all collinear
    cx, cy = center
    r2 = (a[0] - cx) ** 2 + (a[1] - cy) ** 2
    if ps.is_exact:
        return all((x - cx) ** 2 + (y - cy) ** 2 == r2 for x, y in coords)
    tol = max(ps.eps, 1e-12) * 8.0 * float(r2)
    return all(abs((x - cx) ** 2 + (y - cy) ** 2 - r2) <= tol for x, y in coords)


def classify(ps: PointSet) -> ConvexClass:
    """Most specific convex class of ``ps``.

    Monotonic kinds are read off the sequence order of the point set and do
    not require convex position; all other classes are order-insensitive.
    ``strict`` is True when the defining comparisons hold strictly (and, for
    the convex-position classes, no point lies on a hull edge).
    """
    # Monotonic kinds are purely sequence properties: a monotone staircase
    # need not be in convex position to admit the n - 1 edge path.
    mono = _classify_monotonic(ps)
    if mono is not None:
        return mono
    lower, upper = _hull_chains([(p.x, p.y) for p in ps.points])
    if len(set(lower + upper)) < len(ps):  # a point strictly inside the hull
        return ConvexClass(ConvexKind.NON_CONVEX, False)
    # strict: no point lies inside a hull edge
    conv_strict = all(_cross(a, b, c) != 0 for ch in (lower, upper)
                      for a, b, c in zip(ch, ch[1:], ch[2:]))
    if conv_strict:
        # Collinear triples degenerate the hull chains; such sets fall
        # through to the order-insensitive classes below.
        half = _classify_half(lower, upper)
        if half is not None:
            return half
    if _is_centrally_symmetric(ps):
        return ConvexClass(ConvexKind.CENTRALLY_SYMMETRIC_CONVEX, conv_strict)
    if _on_common_circle(ps):
        return ConvexClass(ConvexKind.ON_COMMON_CIRCLE, conv_strict)
    return ConvexClass(ConvexKind.GENERAL_CONVEX, conv_strict)
