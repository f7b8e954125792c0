"""Extremal constructions on convex point sets.

Each builder returns a ``Construction``: the point set, the graph, and the
convex class of the points.  ``ConstructionError`` means the input was
rejected; a built graph that fails the verifier raises ``InvariantViolation``.

The real-coordinate builders (fan, cycle) place points on circles of a
large default radius so that all conflict margins dwarf the floating-point
tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import DEFAULT_EPSILON, MAX_REAL_COORD, ConvexClass, PointSet, classify
from .graph import Graph, checked

DEFAULT_RADIUS = float(2**20)


class ConstructionError(ValueError):
    """Input rejected: bad size, bad radius, or a point set of the wrong class."""


@dataclass(frozen=True)
class Construction:
    name: str
    points: PointSet
    graph: Graph
    claimed_class: ConvexClass


def _checked(name: str, ps: PointSet, edges) -> Construction:
    return Construction(name, ps, checked(ps, edges), classify(ps))


def _on_circle(radius: float, step: float, count: int) -> list[tuple[float, float]]:
    """``count`` points at angles 0, step, 2 step, ... on a circle about 0."""
    # keeps squared distances clear of float64 overflow and underflow
    if not 1.0 / MAX_REAL_COORD <= radius <= MAX_REAL_COORD:
        raise ConstructionError(
            f"radius must be finite and in [2**-256, 2**256], got {radius!r}"
        )
    return [
        (radius * math.cos(k * step), radius * math.sin(k * step)) for k in range(count)
    ]


def monotonic_path(ps: PointSet) -> Construction:
    """Path through a strictly monotonic convex set; n - 1 edges.

    Both terminal vertices end up with degree 1, matching the upper bound
    that monotonic sets admit at most n - 1 edges.
    """
    cls = classify(ps)
    if not (cls.is_monotonic and cls.strict):
        raise ConstructionError(
            f"monotonic_path needs a strictly monotonic set, got {cls.kind.value}"
            f" (strict={cls.strict})"
        )
    edges = [(i, i + 1) for i in range(len(ps) - 1)]
    return Construction("monotonic_path", ps, checked(ps, edges), cls)


def half_convex_fan(n: int, radius: float = DEFAULT_RADIUS) -> Construction:
    """Quarter-circle star plus path on a right half convex set; 2n - 3 edges.

    Points 0..n-2 sit equally spaced on the first-quadrant arc of a circle
    centered at point n-1 (the origin).  Edges: the path along the arc and
    the full star from the center.
    """
    # n = 3 would place the center at a right angle to the two arc points,
    # a boundary conflict under the closed-disk convention
    if n < 4:
        raise ConstructionError("half_convex_fan needs n >= 4")
    pts = _on_circle(radius, (math.pi / 2) / (n - 2), n - 1)
    pts.append((0.0, 0.0))
    center = n - 1
    edges = [(k, k + 1) for k in range(n - 2)]
    edges += [(center, k) for k in range(n - 1)]
    return _checked("half_convex_fan", PointSet.of(pts, DEFAULT_EPSILON), edges)


def circle_cycle(n: int, radius: float = DEFAULT_RADIUS) -> Construction:
    """Cycle through n equally spaced points on a circle; n edges.

    Tight for points on a common circle: no vertex can hold more than one
    neighbor per half-disk, so n edges is the maximum.
    """
    if n < 3:
        raise ConstructionError("circle_cycle needs n >= 3")
    pts = PointSet.of(_on_circle(radius, 2.0 * math.pi / n, n), DEFAULT_EPSILON)
    edges = [(k, (k + 1) % n) for k in range(n)]
    return _checked("circle_cycle", pts, edges)


def centrally_symmetric_ladder(n: int) -> Construction:
    """Two-line centrally symmetric construction with at least 2n - 8 edges.

    Points (+-1, i) for -n/4 <= i < n/4.  Edge families: vertical step-2
    edges on each line, and the two diagonal families ((-1, i), (1, i + 1))
    and ((-1, i), (1, i - 1)), clamped to endpoints that exist.
    """
    if n < 12 or n % 4 != 0:
        raise ConstructionError("ladder needs n >= 12 with n divisible by 4")
    h = n // 2  # point k + h is point k's twin on the right-hand line
    rows = range(-n // 4, n // 4)
    pts = [(-1, i) for i in rows] + [(1, i) for i in rows]
    edges = [(k, k + 2) for line in (0, h) for k in range(line, line + h - 2)]
    edges += [(k, k + h + 1) for k in range(h - 1)]
    edges += [(k, k + h - 1) for k in range(1, h)]
    # The clamped diagonal families yield 2n - 6 edges, above the 2n - 8
    # the index ranges nominally promise.
    return _checked("centrally_symmetric_ladder", PointSet.of(pts), edges)
