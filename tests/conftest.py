"""Shared generators for the test suite.

All generators take an explicit ``random.Random`` instance so every test
is reproducible from its own seed.
"""

from __future__ import annotations

import math
import random

from lgg.geometry import PointSet


def random_int_points(rng: random.Random, n: int, lim: int) -> PointSet:
    """n distinct integer points with coordinates in [-lim, lim]."""
    pts: set[tuple[int, int]] = set()
    while len(pts) < n:
        pts.add((rng.randint(-lim, lim), rng.randint(-lim, lim)))
    return PointSet.of(sorted(pts))


def strictly_monotonic_set(rng: random.Random, n: int, lim: int = 10**6) -> PointSet:
    """Strictly increasing abscissas with strictly monotone ordinates."""
    xs = sorted(rng.sample(range(lim), n))
    ys = sorted(rng.sample(range(lim), n))
    if rng.random() < 0.5:
        ys.reverse()
    return PointSet.of(list(zip(xs, ys)))


def monotonic_convex_set(rng: random.Random, n: int) -> PointSet:
    """Strictly monotonic points in convex position (decreasing slopes)."""
    slopes = sorted(rng.sample(range(1, 10**4), n - 1), reverse=True)
    x = y = 0
    coords = [(0, 0)]
    for s in slopes:
        dx = rng.randint(1, 5)
        x += dx
        y += s * dx
        coords.append((x, y))
    return PointSet.of(coords)


def centrally_symmetric_convex_set(rng: random.Random, n: int) -> PointSet:
    """Centrally symmetric convex polygon with n vertices (n even).

    Built from n/2 random edge vectors together with their negations,
    sorted by angle and accumulated; the resulting polygon is convex and
    symmetric about its centroid.
    """
    assert n % 2 == 0 and n >= 4
    vecs: list[tuple[int, int]] = []
    dirs: set[float] = set()
    while len(vecs) < n // 2:
        v = (rng.randint(-50, 50), rng.randint(1, 50))
        a = math.atan2(v[1], v[0])
        if a in dirs or (a - math.pi) in dirs:
            continue
        dirs.add(a)
        vecs.append(v)
    edges = vecs + [(-vx, -vy) for vx, vy in vecs]
    edges.sort(key=lambda v: math.atan2(v[1], v[0]))
    x = y = 0
    coords = []
    for vx, vy in edges:
        coords.append((x, y))
        x += vx
        y += vy
    return PointSet.of(coords)


def real_points(rng: random.Random, n: int, eps: float = 1e-9) -> PointSet:
    pts: set[tuple[float, float]] = set()
    while len(pts) < n:
        pts.add((rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)))
    return PointSet.of(sorted(pts), eps)
