"""Scalar reference implementations that the library is tested against.

Each one states a definition literally, in plain Python and with no
vectorisation, so that a test can hold the fast library path to it:

* ``disk_side``: the closed diametral-disk test, three-way, written out
  in Python arithmetic, against ``lgg.geometry.outside_disk``;
  ``in_closed_disk`` is its two-way form;
* ``verify_direct``: the per-edge disk definition of a locally Gabriel
  graph, against ``lgg.graph.verify``'s per-vertex pair pass; it decides
  and labels every conflict with ``disk_side`` alone, so it shares no
  predicate with the library;
* ``edges_conflict``: the two-edge conflict as a boolean, through the
  public ``lgg.geometry.conflict_kind``;
* ``feasibility_gap``: the vertical room the analysis of the grid walk
  needs at one step;
* ``box_greedy_step``: the greedy grid step as an argmin over the whole
  box of candidate offsets, against ``lgg.grid.next_neighbor``'s one
  interval per column;
* ``include_first_max``: an include-first DFS for the maximum independent
  set of a conflict graph, against ``lgg.extremal``'s branch and bound;
* ``lis_dp``: the O(n^2) dynamic programme for the longest monotone
  subsequence, against ``lgg.independence.longest_monotone_subsequence``.
"""

from __future__ import annotations

import math

import numpy as np

from lgg.geometry import (
    BOUNDARY,
    INTERIOR,
    CoordinateKindError,
    Point,
    conflict_kind,
)
from lgg.graph import ConflictReport, Graph, Violation
from lgg.grid import _feasible, h_from_eq1


def disk_side(p: Point, q: Point, r: Point) -> int:
    """Position of ``r`` relative to the closed disk with diameter ``pq``.

    +1 strictly outside, 0 on the boundary (within the tolerance band for
    real points) and -1 strictly inside.  With ``a = p - r`` and
    ``b = q - r`` it compares ``a . b`` with ``+-eps * (|a| * |b|)``,
    associated as ``outside_disk`` does, so the two agree bit for bit.
    """
    if len({p.is_exact, q.is_exact, r.is_exact}) > 1:
        raise CoordinateKindError("predicate arguments mix coordinate kinds")
    if len({(p.x, p.y), (q.x, q.y), (r.x, r.y)}) < 3:
        raise ValueError("disk_side takes three distinct points")
    ax, ay, bx, by = p.x - r.x, p.y - r.y, q.x - r.x, q.y - r.y
    dot = ax * bx + ay * by
    eps = max(p.eps, q.eps, r.eps)
    band = eps * (math.sqrt(ax * ax + ay * ay) * math.sqrt(bx * bx + by * by))
    if dot > band:
        return 1
    return -1 if dot < -band else 0


def in_closed_disk(p: Point, q: Point, r: Point) -> bool:
    """True iff ``r`` lies in the closed disk with ``pq`` as diameter."""
    return disk_side(p, q, r) <= 0


def conflict_label(p: Point, q: Point, r: Point) -> str | None:
    """The conflict of edges (p, q) and (p, r) from two ``disk_side`` tests.

    Interior when ``r`` is strictly inside the disk on ``pq`` or ``q``
    strictly inside the one on ``pr``, boundary when the nearer of the two
    is on a boundary, None when both are strictly outside.
    """
    side = min(disk_side(p, q, r), disk_side(p, r, q))
    return None if side > 0 else INTERIOR if side < 0 else BOUNDARY


def verify_direct(g: Graph) -> ConflictReport:
    """Per-edge cross-check oracle for ``verify``.

    Iterates edges (u, v) and tests every neighbor of u and of v for
    membership in the closed disk with uv as diameter; ``conflict_label``
    labels each conflicting pair.
    """
    pts = g.points
    found: set[tuple[int, int, int]] = set()
    for u, v in g.edges:
        for w in g.adjacency[u]:
            # w in d_uv conflicts edges (u, v) and (u, w) at shared vertex u
            if w != v and in_closed_disk(pts[u], pts[v], pts[w]):
                found.add((u, min(v, w), max(v, w)))
        for w in g.adjacency[v]:
            if w != u and in_closed_disk(pts[v], pts[u], pts[w]):
                found.add((v, min(u, w), max(u, w)))
    triples = sorted(found)
    kinds = [conflict_label(pts[u], pts[v], pts[w]) for u, v, w in triples]
    return ConflictReport(tuple(Violation(*t, k) for t, k in zip(triples, kinds)))


def edges_conflict(p: Point, q: Point, r: Point) -> bool:
    """Conflict test for the two edges (p, q) and (p, r) sharing ``p``.

    Equivalent to the angle formulation: the edges conflict iff the angle
    at ``q`` or at ``r`` in triangle pqr is at least a right angle.
    """
    return conflict_kind(p, q, r) is not None


def feasibility_gap(x_i: int, theta_i: float, d_i: int) -> float:
    """Vertical room for the next grid point: d cot(theta) - h.

    The step is feasible (a grid point exists between the disk and the
    tangent line on the chosen vertical) when the gap exceeds 1.
    """
    if not 0.0 < theta_i <= math.pi / 4:
        raise ValueError("theta must lie in (0, pi/4]")
    tan = math.tan(theta_i)
    return d_i / tan - h_from_eq1(x_i, tan, d_i)


def box_greedy_step(q: tuple[int, int]) -> tuple[int, int] | None:
    """The feasible offset nearest to ``q``, ties to smaller y, then smaller x.

    Every feasible offset lies in the box 1 <= y <= x < q.x, so this is the
    argmin of (dist^2, y, x) over all of it, O(q.x^2) per step.
    """
    qx, qy = q
    rx, ry = np.tril_indices(qx - 1)
    rx, ry = rx + 1, ry + 1
    ok = _feasible(qx, qy, rx, ry)
    if not ok.any():
        return None
    rx, ry = rx[ok], ry[ok]
    k = np.lexsort((rx, ry, (rx - qx) ** 2 + (ry - qy) ** 2))[0]
    return int(rx[k]), int(ry[k])


def _clique_cover_bound(adj, avail: int) -> int:
    """Number of cliques in a greedy cover of ``avail``; bounds the MIS size."""
    bound = 0
    rest = avail
    while rest:
        v = (rest & -rest).bit_length() - 1
        clique = 1 << v
        common = rest & adj[v]
        while common:
            u = (common & -common).bit_length() - 1
            clique |= 1 << u
            common &= adj[u]
        rest &= ~clique
        bound += 1
    return bound


def include_first_max(cg) -> list[int]:
    """Include-first DFS on the lowest candidate index of a conflict graph.

    It keeps the first set of each new best size, so it returns the
    lexicographically least maximum independent set.
    """
    adj = cg.adjacency
    best = []
    chosen = []

    def dfs(avail):
        nonlocal best
        if not avail:
            if len(chosen) > len(best):
                best = chosen.copy()
            return
        if len(chosen) + _clique_cover_bound(adj, avail) <= len(best):
            return
        v = (avail & -avail).bit_length() - 1
        chosen.append(v)
        dfs(avail & ~(1 << v) & ~adj[v])
        chosen.pop()
        dfs(avail & ~(1 << v))

    dfs((1 << cg.m) - 1)
    return best


def lis_dp(ps) -> int:
    """O(n^2) longest monotone subsequence length, both directions."""
    n = len(ps)
    best = 0
    for sign in (1, -1):
        # for the non-increasing direction ties in x must be scanned in
        # reversed y order so equal-x points can chain correctly
        seq = sorted(range(n), key=lambda i: (ps[i].x, sign * ps[i].y))
        ys = [sign * ps[i].y for i in seq]
        dp = [1] * n
        for i in range(n):
            for j in range(i):
                if ys[j] <= ys[i]:
                    dp[i] = max(dp[i], dp[j] + 1)
        best = max(best, max(dp))
    return best
