"""Exact geometric primitives for locally Gabriel graphs.

Points carry either exact integer coordinates (all predicates are then
decided with exact integer arithmetic) or double-precision coordinates
tagged with a relative tolerance ``eps``.  The two kinds never mix inside
one computation.  A ``PointSet`` stores its coordinates as two read-only
arrays, int64 or float64, which the vectorised layers use directly;
``Point`` is the scalar form that ``ps[i]`` returns and the scalar
predicates take.

The central predicate is the diametral-disk test: a point ``r`` lies in the
closed disk with segment ``pq`` as diameter iff ``(p - r) . (q - r) <= 0``;
``outside_disk`` is the one disk test.  Edges (p, q) and (p, r) coexist in
a locally Gabriel graph iff each of q, r lies outside the other's disk;
``conflict_free`` is the one pair rule, which the verifier, the grid walk,
the extremal conflict graph and ``conflict_kind`` all decide with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

#: Exact integer coordinates are bounded so that the predicates' dot products
#: fit int64: differences are at most 2**31 per axis, and for p != q one
#: factor of a . b is at most 2**31 - 1, so |a . b| <= 2**63 - 2**31.
MAX_EXACT_COORD = 2**30

#: Real coordinates are bounded so that the predicates' squared distances
#: stay clear of float64 overflow: differences are at most 2**257 per axis,
#: so dot products and squared norms are at most 2**515.
MAX_REAL_COORD = 2.0**256

#: Default relative tolerance of real-coordinate points.
DEFAULT_EPSILON = 1e-9

INTERIOR = "interior"
BOUNDARY = "boundary"


class CoordinateKindError(TypeError):
    """Raised when exact-integer and real points meet in one predicate."""


def _dtype(values) -> type:
    """int64 when every value is a Python int, float64 when every one is a float."""
    kinds = set(map(type, values))
    for dtype, base in ((np.int64, int), (np.float64, float)):
        if all(issubclass(k, base) and k is not bool for k in kinds):
            return dtype
    names = sorted(k.__name__ for k in kinds)
    raise CoordinateKindError(f"coordinates must be all int or all float, got {names}")


def _in_range(xs, ys, eps: float, exact: bool):
    """Which points (scalars or arrays) lie in their kind's range, and the rule."""
    if exact:
        if eps != 0.0:
            raise ValueError("exact points carry eps = 0")
        lim = MAX_EXACT_COORD
        ok = (-lim <= xs) & (xs <= lim) & (-lim <= ys) & (ys <= lim)
        return ok, f"exact coordinate magnitude exceeds {lim}"
    if not 0.0 <= eps < math.inf:
        raise ValueError("eps must be finite and nonnegative")
    # false for nan as well as for infinities
    lim = MAX_REAL_COORD
    ok = (abs(xs) <= lim) & (abs(ys) <= lim)
    return ok, "non-finite coordinate or magnitude above 2**256"


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
        exact = _dtype((self.x, self.y)) is np.int64
        ok, problem = _in_range(self.x, self.y, self.eps, exact)
        if not ok:
            raise ValueError(f"{problem} ({self.x!r}, {self.y!r})")

    @property
    def is_exact(self) -> bool:
        return isinstance(self.x, int)


@dataclass(frozen=True, eq=False)
class PointSet:
    """Distinct points of one kind and eps, as read-only int64 or float64 arrays.

    ``ps[i]`` and iteration give ``Point`` objects, built on first use.
    """

    xs: np.ndarray
    ys: np.ndarray
    eps: float = 0.0

    def __post_init__(self) -> None:
        xs, ys, eps = np.array(self.xs), np.array(self.ys), float(self.eps)
        if xs.ndim != 1 or xs.shape != ys.shape:
            shapes = f"{xs.shape} and {ys.shape}"
            raise ValueError(f"coordinates must be 1-D and of one length: {shapes}")
        if not xs.size:
            raise ValueError("point set must be nonempty")
        if xs.dtype != ys.dtype or xs.dtype not in (np.int64, np.float64):
            got = f"{xs.dtype} and {ys.dtype}"
            raise CoordinateKindError(f"coordinates must be int64 or float64: {got}")
        ok, problem = _in_range(xs, ys, eps, xs.dtype == np.int64)
        if not ok.all():
            i = int(ok.argmin())
            raise ValueError(f"point {i}: {problem} {(xs[i].item(), ys[i].item())}")
        # a stable sort keeps equal points (-0.0 equals 0.0) in index order
        order = np.lexsort((xs, ys))
        sx, sy = xs[order], ys[order]
        if (dup := (sx[1:] == sx[:-1]) & (sy[1:] == sy[:-1])).any():
            i = int(order[1:][dup].min())
            key = (xs[i].item(), ys[i].item())
            raise ValueError(f"point {i} duplicates an earlier point {key}")
        xs.flags.writeable = ys.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "eps", eps)

    @classmethod
    def of(cls, coords: Sequence[tuple], eps: float = 0.0) -> "PointSet":
        """Points from (x, y) pairs of Python ints, or of Python floats."""
        coords = list(coords)
        xy = pair_array(coords, _dtype(chain.from_iterable(coords)), "point")
        return cls(xy[:, 0], xy[:, 1], eps)

    @cached_property
    def points(self) -> tuple[Point, ...]:
        xy = zip(self.xs.tolist(), self.ys.tolist())
        return tuple(Point(x, y, self.eps) for x, y in xy)

    def __len__(self) -> int:
        return len(self.xs)

    def __getitem__(self, i: int) -> Point:
        return self.points[i]

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PointSet)
            and (self.eps, self.xs.dtype) == (other.eps, other.xs.dtype)
            and np.array_equal(self.xs, other.xs)
            and np.array_equal(self.ys, other.ys)
        )

    @property
    def is_exact(self) -> bool:
        return self.xs.dtype == np.int64


def pair_array(items, dtype, name: str) -> np.ndarray:
    """Pairs as an (m, 2) ``dtype`` array; the first bad item is named.

    A list or tuple of two-element lists or tuples is read in one
    ``np.fromiter`` pass over its values; anything else by ``np.array``.
    """
    pairs = isinstance(items, (list, tuple)) and set(map(type, items)) <= {list, tuple}
    try:
        if pairs and set(map(len, items)) <= {2}:
            arr = np.fromiter(chain.from_iterable(items), dtype, 2 * len(items))
            return arr.reshape(-1, 2)
        arr = np.array(items, dtype=dtype)
    except (OverflowError, TypeError, ValueError):
        _name_bad_item(items, dtype, name)
        raise
    if arr.size and (arr.ndim != 2 or arr.shape[1] != 2):
        if arr.ndim:
            _name_bad_item(items, dtype, name)
        raise ValueError(f"each {name} must be a pair, got shape {arr.shape}")
    return arr.reshape(-1, 2)


def _name_bad_item(items, dtype, name: str) -> None:
    """Raise for the first item that is not a pair or holds a value ``dtype`` cannot."""
    for k, item in enumerate(items):
        try:
            pair = np.array(item, dtype=dtype)
        except OverflowError as exc:
            raise ValueError(f"{name} {k}: {tuple(item)} out of range") from exc
        except ValueError:
            pair = None
        if pair is None or pair.shape != (2,):
            raise ValueError(f"{name} {k}: expected a pair, got {item!r}")


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


def _coincident(a: Point, b: Point) -> bool:
    return a.x == b.x and a.y == b.y


def _check_disk(p: Point, q: Point, r: Point) -> None:
    if len({p.is_exact, q.is_exact, r.is_exact}) > 1:
        raise CoordinateKindError("predicate arguments mix coordinate kinds")
    if _coincident(p, q):
        raise ValueError("disk endpoints coincide")
    if _coincident(r, p) or _coincident(r, q):
        raise ValueError("query point coincides with a disk endpoint")


def conflict_free(px, py, qx, qy, rx, ry, eps: float = 0.0):
    """Whether the edges (p, q) and (p, r) can coexist in a locally Gabriel graph.

    ``r`` strictly outside the closed disk on ``pq`` and ``q`` strictly
    outside the one on ``pr``; takes what ``outside_disk`` takes.
    """
    r_out = outside_disk(px - rx, py - ry, qx - rx, qy - ry, eps)
    return r_out & outside_disk(px - qx, py - qy, rx - qx, ry - qy, eps)


def _interior_conflict(px, py, qx, qy, rx, ry, eps: float = 0.0):
    """``r`` strictly inside the disk on ``pq``, or ``q`` inside the one on ``pr``."""
    # negation is exact: each term mirrors a conflict_free term, a . b < -band
    r_in = outside_disk(rx - px, ry - py, qx - rx, qy - ry, eps)
    return r_in | outside_disk(qx - px, qy - py, rx - qx, ry - qy, eps)


def disk_side(p: Point, q: Point, r: Point) -> int:
    """Position of ``r`` relative to the closed disk with diameter ``pq``.

    Returns +1 strictly outside, 0 on the boundary (within the tolerance
    band for real points) and -1 strictly inside.
    """
    _check_disk(p, q, r)
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


def conflict_kind(p: Point, q: Point, r: Point) -> str | None:
    """Classify the conflict between edges (p, q) and (p, r).

    Returns ``"interior"`` when one endpoint lies strictly inside the other
    edge's diametral disk, ``"boundary"`` when the sharpest containment is
    on the boundary, and ``None`` when the edges do not conflict.
    """
    if _coincident(q, r):
        raise ValueError("edge endpoints q and r coincide")
    _check_disk(p, q, r)
    args = (p.x, p.y, q.x, q.y, r.x, r.y, max(p.eps, q.eps, r.eps))
    if conflict_free(*args):
        return None
    return INTERIOR if _interior_conflict(*args) else BOUNDARY


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

    def chain(seq) -> list[tuple]:
        out: list[tuple] = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) < 0:
                out.pop()
            out.append(p)
        return out

    pts = sorted(set(pts))
    return chain(pts), chain(reversed(pts))[::-1]


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
    x_nondec, x_inc, x_noninc, x_dec = _monotone_flags(ps.xs.tolist())
    y_nondec, y_inc, y_noninc, y_dec = _monotone_flags(ps.ys.tolist())
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
    xs, ys = ps.xs.tolist(), ps.ys.tolist()
    pts = list(zip(xs, ys))
    if ps.is_exact:
        cx2, cy2 = Fraction(2 * sum(xs), n), Fraction(2 * sum(ys), n)
        have = {(Fraction(x), Fraction(y)) for x, y in pts}
        return all((cx2 - x, cy2 - y) in have for x, y in pts)
    cx2, cy2 = 2.0 * sum(xs) / n, 2.0 * sum(ys) / n
    scale = max(max(abs(x), abs(y)) for x, y in pts) or 1.0
    tol = max(ps.eps, 1e-12) * 4.0 * scale
    for x, y in pts:
        mx, my = cx2 - x, cy2 - y
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
    coords = list(zip(ps.xs.tolist(), ps.ys.tolist()))
    if ps.is_exact:
        coords = [(Fraction(x), Fraction(y)) for x, y in coords]
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
    lower, upper = _hull_chains(list(zip(ps.xs.tolist(), ps.ys.tolist())))
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
