"""Exact geometric primitives for locally Gabriel graphs.

Points carry either exact integer coordinates (all predicates are then
decided with exact integer arithmetic) or double-precision coordinates
tagged with a relative tolerance ``eps``.  The two kinds never mix inside
one computation.  A ``PointSet`` stores its coordinates as two read-only
arrays, int64 or float64, which the vectorised layers use directly;
``Point`` is the scalar form that ``ps[i]`` returns.

The central predicate is the diametral-disk test: a point ``r`` lies in the
closed disk with segment ``pq`` as diameter iff ``(p - r) . (q - r) <= 0``;
``outside_disk`` is the one disk test.  Edges (p, q) and (p, r) coexist in
a locally Gabriel graph iff each of q, r lies outside the other's disk;
``conflict_free`` is the one pair rule, which the verifier, the grid walk,
the extremal conflict graph and ``conflict_kind`` all decide with.  Both
take Python numbers or arrays; ``conflict_kind`` is the one predicate on
``Point`` objects, for classifying a single pair of edges.

``classify`` names the paper's point classes in O(n log n) with one formula
per class: exact for integer points, banded for real points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import Iterator

import numpy as np

#: Exact integer coordinates are bounded so that the predicates' dot products
#: fit int64: differences are at most 2**31 per axis, and for p != q one
#: factor of a . b is at most 2**31 - 1, so |a . b| <= 2**63 - 2**31.
MAX_EXACT_COORD = 2**30

#: Nonzero real coordinates lie in these magnitudes, so that the predicates'
#: products stay clear of float64 overflow and underflow (2**-1022): nonzero
#: differences lie in [2**-436, 2**257] per axis (2**-436 is an ulp of
#: 2**-384), so dot products and squared norms lie in [2**-872, 2**515].
MIN_REAL_COORD, MAX_REAL_COORD = 2.0**-384, 2.0**256

#: Default relative tolerance of real-coordinate points.
DEFAULT_EPSILON = 1e-9

INTERIOR = "interior"
BOUNDARY = "boundary"


class CoordinateKindError(TypeError, ValueError):
    """A value of the wrong type (a float for an int, a bool, a str), or
    exact-integer and real points in one predicate; bad input, so a ValueError."""


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
    lo, hi, ax, ay = MIN_REAL_COORD, MAX_REAL_COORD, abs(xs), abs(ys)
    # false for nan as well as for infinities
    ok = (ax <= hi) & (ay <= hi) & ((ax >= lo) | (xs == 0)) & ((ay >= lo) | (ys == 0))
    return ok, "non-finite coordinate or nonzero magnitude outside [2**-384, 2**256]"


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
        if (kinds := {type(self.x), type(self.y)}) not in ({int}, {float}):
            names = sorted(k.__name__ for k in kinds)
            raise CoordinateKindError(
                f"coordinates must be all int or all float, got {names}"
            )
        ok, problem = _in_range(self.x, self.y, self.eps, int in kinds)
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
    def of(cls, coords: list | tuple, eps: float = 0.0) -> "PointSet":
        """Points from a list or tuple of (x, y) pairs of Python ints, or of floats.

        The first value picks the kind; ``pair_array`` names any other.
        """
        try:
            kind = float if isinstance(coords[0][0], float) else int
        except (LookupError, TypeError):
            kind = int  # not a list of pairs: pair_array names the fault
        xy = pair_array(coords, (kind,), "point")
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


def pair_array(items, kinds: tuple, name: str) -> np.ndarray:
    """Outside pairs as an (m, 2) array: int64, or float64 if a float is present.

    The library's one conversion of pairs from outside: point coordinates,
    edge endpoints and the arrays of graph JSON.  ``items`` is a list or
    tuple of two-element lists or tuples whose values have one of the exact
    types ``kinds`` (a ``bool`` is not an ``int``), checked over the whole
    list and read in one ``np.fromiter`` pass.  An integer (m, 2) ndarray
    passes straight through as int64; any other ndarray is read as its
    ``tolist()``.  When a check fails, the items are walked once and a
    ``ValueError`` names the first bad one: not a pair, a value of another
    type (``CoordinateKindError``) or out of range.
    """
    if isinstance(items, np.ndarray):
        whole = items.dtype.kind in "iu" and np.can_cast(items.dtype, np.int64)
        if whole and items.ndim == 2 and items.shape[1] == 2:
            return items.astype(np.int64, copy=False)
        items = items.tolist()
    # the walk's range test: float64 holds every int64, so until the checks
    # pick a dtype, the walk flags only values that no dtype holds
    dtype = np.float64
    pairs = type(items) in (list, tuple) and set(map(type, items)) <= {list, tuple}
    if pairs and set(map(len, items)) <= {2}:
        found = set(map(type, chain.from_iterable(items)))
        if found <= set(kinds):
            dtype = np.float64 if float in found else np.int64
            try:
                arr = np.fromiter(chain.from_iterable(items), dtype, 2 * len(items))
                return arr.reshape(-1, 2)
            except OverflowError:
                pass
    if type(items) not in (list, tuple):
        raise ValueError(f"{name}s: expected an array, got {items!r:.40}")
    for k, item in enumerate(items):
        if type(item) not in (list, tuple) or len(item) != 2:
            raise ValueError(f"{name} {k}: expected a pair, got {item!r:.40}")
        if not set(map(type, item)) <= set(kinds):
            names = " or ".join(t.__name__ for t in kinds)
            got = f"expected {names}, got {item!r:.40}"
            raise CoordinateKindError(f"{name} {k}: {got}")
        try:
            np.fromiter(item, dtype, 2)
        except OverflowError:
            raise ValueError(f"{name} {k}: {tuple(item)} out of range") from None


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


def conflict_kind(p: Point, q: Point, r: Point) -> str | None:
    """Classify the conflict between edges (p, q) and (p, r).

    Returns ``"interior"`` when one endpoint lies strictly inside the other
    edge's diametral disk, ``"boundary"`` when the sharpest containment is
    on the boundary, and ``None`` when the edges do not conflict.  Points
    of mixed kinds raise ``CoordinateKindError``, and two coincident
    points ``ValueError``.
    """
    if len({p.is_exact, q.is_exact, r.is_exact}) > 1:
        raise CoordinateKindError("predicate arguments mix coordinate kinds")
    if len({(p.x, p.y), (q.x, q.y), (r.x, r.y)}) < 3:
        raise ValueError("conflict_kind takes three distinct points")
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


#: The (x, y) sign of every step of a monotonic sequence, per kind.
_STEP_SIGNS = {
    ConvexKind.UPPER_RIGHT_MONOTONIC: (1, -1),
    ConvexKind.UPPER_LEFT_MONOTONIC: (-1, -1),
    ConvexKind.LOWER_RIGHT_MONOTONIC: (1, 1),
    ConvexKind.LOWER_LEFT_MONOTONIC: (-1, 1),
}


@dataclass(frozen=True)
class ConvexClass:
    kind: ConvexKind
    strict: bool

    @property
    def is_monotonic(self) -> bool:
        return self.kind in _STEP_SIGNS


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_cycle(pts: list[tuple]) -> list[tuple]:
    """Counter-clockwise hull cycle from the lowest leftmost point, with the
    points on hull edges; a collinear set runs out and back (2n - 2 points).

    Andrew's monotone chains, popping only on right turns.
    """

    def chain(seq) -> list[tuple]:
        out: list[tuple] = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) < 0:
                out.pop()
            out.append(p)
        return out

    pts = sorted(set(pts))
    return chain(pts) + chain(reversed(pts))[1:-1]


def _classify_monotonic(ps: PointSet) -> ConvexClass | None:
    """Monotonic kind read off the given sequence order, or None.

    The kind depends on the traversal direction: x non-decreasing with y
    non-increasing is upper-right, and reflections permute the kinds
    accordingly (x-axis swaps upper/lower, y-axis swaps right/left).  A
    kind holds when no step's signs oppose its ``_STEP_SIGNS`` entry, and
    strictly when they all equal it (float differences are exact in sign).
    """
    steps = np.sign(np.diff([ps.xs, ps.ys]))
    signs = np.array(list(_STEP_SIGNS.values()))[:, :, None]
    # Prefer a strictly satisfied kind over a weakly satisfied earlier one.
    for holds, strict in ((steps == signs, True), (steps != -signs, False)):
        if (kinds := holds.all(axis=(1, 2))).any():
            return ConvexClass(list(_STEP_SIGNS)[int(kinds.argmax())], strict)
    return None


def _cocircular(pts: list[tuple], band) -> bool:
    """Whether every point satisfies ``(D x - Ux)^2 + (D y - Uy)^2 = r^2 D^2``
    within the relative band ``8 * band``: the circle through the first
    turning triple ``pts[0], pts[i], pts[i + 1]``, ``D = 2 cross``, centre U / D."""
    a = pts[0]
    for b, c in zip(pts[1:], pts[2:]):
        if d := 2 * _cross(a, b, c):
            break
    else:
        return False  # all collinear
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    a2, b2, c2 = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    ux = a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)
    uy = a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)
    r2 = (d * ax - ux) ** 2 + (d * ay - uy) ** 2
    tol = 8 * band * r2
    return all(abs((d * x - ux) ** 2 + (d * y - uy) ** 2 - r2) <= tol for x, y in pts)


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
    n, xs, ys = len(ps), ps.xs.tolist(), ps.ys.tolist()
    cycle = _hull_cycle(list(zip(xs, ys)))
    if len(set(cycle)) < n:  # a point strictly inside the hull
        return ConvexClass(ConvexKind.NON_CONVEX, False)
    # strict: no zero turn along the cycle, so no point inside a hull edge
    after = cycle[1:] + cycle[:1]
    conv_strict = all(map(_cross, cycle, after, after[1:] + after[:1]))
    # exact for integer points (band 0); real points pass within a band
    # relative to their largest magnitude
    band = 0 if ps.is_exact else max(ps.eps, 1e-12)
    scale = max(map(abs, xs + ys)) or 1
    # The cycle runs the lower chain left to right and the upper one right
    # to left, so a right half set (upper chain descending, lower one
    # ascending) never falls but on vertical steps, and a left one never
    # rises.  A set with a zero turn, or whose non-vertical steps are all
    # flat, is neither and falls through to the classes below.
    flat = band * scale
    dys = [by - ay for (ax, ay), (bx, by) in zip(cycle, after) if abs(bx - ax) > flat]
    rise, fall = any(dy > flat for dy in dys), any(dy < -flat for dy in dys)
    if conv_strict and rise != fall:
        kind = ConvexKind.RIGHT_HALF_CONVEX if rise else ConvexKind.LEFT_HALF_CONVEX
        return ConvexClass(kind, all(abs(dy) > flat for dy in dys))
    # each point of the cycle and the one half a cycle later sum to twice the
    # centroid; an odd set is never symmetric, though a collinear one pairs up
    h, tol, sx, sy = len(cycle) // 2, n * 4 * band * scale, sum(xs), sum(ys)
    if n % 2 == 0 and all(
        abs(n * (px + qx) - 2 * sx) <= tol and abs(n * (py + qy) - 2 * sy) <= tol
        for (px, py), (qx, qy) in zip(cycle[:h], cycle[h:])
    ):
        return ConvexClass(ConvexKind.CENTRALLY_SYMMETRIC_CONVEX, conv_strict)
    # scaling real points by a power of two is exact, and keeps the circle
    # test's degree-six terms inside float64 range
    unit = 1 if ps.is_exact else 2.0 ** -math.frexp(scale)[1]
    if _cocircular([(x * unit, y * unit) for x, y in zip(xs, ys)], band):
        return ConvexClass(ConvexKind.ON_COMMON_CIRCLE, conv_strict)
    return ConvexClass(ConvexKind.GENERAL_CONVEX, conv_strict)
