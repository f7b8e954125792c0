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
* ``random_maximal_direct``: the seeded greedy insertion, one candidate
  at a time with ``in_closed_disk``, against
  ``lgg.graph.random_maximal_lgg``'s rounds; ``greedy_rounds`` names
  the round that decides each candidate;
* ``edges_conflict``: the two-edge conflict as a boolean, through the
  public ``lgg.geometry.conflict_kind``;
* ``feasibility_gap``: the vertical room the analysis of the grid walk
  needs at one step;
* ``feasible``: the grid step's feasibility, offset by offset, through
  ``lgg.geometry.conflict_free``, against ``lgg.grid``'s one interval per
  column in both walk modes;
* ``box_greedy_step``: the greedy grid step as an argmin over the whole
  box of candidate offsets, against ``lgg.grid.next_neighbor``'s one
  interval per column;
* ``signed_walk_conflict``: the grid certificate as every pair of the
  2|W| neighbor offsets +-W of a center, through
  ``lgg.geometry.conflict_free``, against ``lgg.grid``'s star of +-W,
  which ``lgg.graph.verify`` decides by angular neighbours;
* ``include_first_max``: an include-first DFS for the maximum independent
  set of a conflict graph, against ``lgg.extremal``'s branch and bound;
* ``lis_dp``: the O(n^2) dynamic programme for the longest monotone
  subsequence, against ``lgg.independence.longest_monotone_subsequence``;
* ``min_degree_greedy_direct``: the minimum-degree greedy independent set
  with a heap keyed by ``(degree, vertex)`` tuples and one push per
  degree decrement, against ``lgg.independence._plain_greedy``'s integer
  keys and one push per touched vertex;
* ``neighborhood_coloring_direct``: the neighbourhood colouring with set
  intersections, against ``lgg.independence.neighborhood_coloring``'s one
  membership scan per member and colour bitmask;
* ``parse_points_csv_direct``: the points CSV read row by row, each row
  checked as a ``CheckedPoint`` and against the rows before it for a
  duplicate, against ``lgg.io.parse_points_csv``'s one ``PointSet.of``
  call whose error is mapped back to lines.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from lgg.geometry import (
    BOUNDARY,
    DEFAULT_EPSILON,
    INTERIOR,
    CoordinateKindError,
    Point,
    PointSet,
    _in_range,
    conflict_free,
    conflict_kind,
)
from lgg.graph import ConflictReport, Graph, InvariantViolation, Violation
from lgg.grid import h_from_eq1
from lgg.io import FormatError, _build, is_ascii_number


def disk_side(p: Point, q: Point, r: Point) -> int:
    """Position of ``r`` relative to the closed disk with diameter ``pq``.

    +1 strictly outside, 0 on the boundary (within the tolerance band for
    real points) and -1 strictly inside.  With ``a = p - r`` and
    ``b = q - r`` it compares ``a . b`` with ``+-eps * (|a| * |b|)``,
    associated as ``outside_disk`` does, so the two agree bit for bit.
    """
    if len({isinstance(t.x, int) for t in (p, q, r)}) > 1:
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
    pts = [g.points[i] for i in range(g.n)]  # ps[i] builds a new Point per call
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


def _seeded_greedy(ps, seed: int):
    """The seeded greedy insertion, one candidate at a time in key order.

    Yields ``(u, v, killers)`` per candidate: the earlier inserted edges at
    u or v that conflict with it, each decided with ``in_closed_disk``
    alone.  A candidate with no killer is inserted.
    """

    def mix(z):
        z = (z + 0x9E3779B97F4A7C15) & (2**64 - 1)
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & (2**64 - 1)
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & (2**64 - 1)
        return z ^ (z >> 31)

    n = len(ps)
    ps = [ps[i] for i in range(n)]  # ps[i] builds a new Point per call
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    base = mix(seed)
    order = sorted(range(len(pairs)), key=lambda i: (mix(base ^ i), i))
    adj = {i: [] for i in range(n)}
    for idx in order:
        u, v = pairs[idx]
        killers = [
            (a, w)
            for a, b in ((u, v), (v, u))
            for w in adj[a]
            if in_closed_disk(ps[a], ps[b], ps[w]) or in_closed_disk(ps[a], ps[w], ps[b])
        ]
        if not killers:
            adj[u].append(v)
            adj[v].append(u)
        yield u, v, killers


def random_maximal_direct(ps, seed: int) -> tuple[tuple[int, int], ...]:
    """Sequential oracle for ``random_maximal_lgg``: the seeded greedy order,
    one candidate at a time, decided with ``in_closed_disk`` alone."""
    return tuple(sorted((u, v) for u, v, killers in _seeded_greedy(ps, seed) if not killers))


def greedy_rounds(ps, seed: int) -> list[tuple[int, int, int, bool]]:
    """``(u, v, round, inserted)`` per candidate, in key order, for one block
    of all C(n, 2) candidates decided in rounds.

    A candidate is ready once every earlier candidate at u or v is decided,
    so an inserted one's round is one after the latest of theirs; a
    rejected one is decided in the earliest round of its killers.
    """
    latest = [0] * len(ps)
    inserted_in: dict[frozenset, int] = {}
    out = []
    for u, v, killers in _seeded_greedy(ps, seed):
        if killers:
            r = min(inserted_in[frozenset(e)] for e in killers)
        else:
            r = inserted_in[frozenset((u, v))] = max(latest[u], latest[v]) + 1
        latest[u], latest[v] = max(latest[u], r), max(latest[v], r)
        out.append((u, v, r, not killers))
    return out


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


def feasible(qx, qy, rx, ry):
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


def box_greedy_step(q: tuple[int, int]) -> tuple[int, int] | None:
    """The feasible offset nearest to ``q``, ties to smaller y, then smaller x.

    Every feasible offset lies in the box 1 <= y <= x < q.x, so this is the
    argmin of (dist^2, y, x) over all of it, O(q.x^2) per step.
    """
    qx, qy = q
    rx, ry = np.tril_indices(qx - 1)
    rx, ry = rx + 1, ry + 1
    ok = feasible(qx, qy, rx, ry)
    if not ok.any():
        return None
    rx, ry = rx[ok], ry[ok]
    k = np.lexsort((rx, ry, (rx - qx) ** 2 + (ry - qy) ** 2))[0]
    return int(rx[k]), int(ry[k])


def signed_walk_conflict(walk: list[tuple[int, int]]):
    """First pair of the offsets +-W whose edges from the origin conflict.

    Pairs are taken in the order of the upper triangle over ``W + (-W)``;
    returns None when every pair coexists.
    """
    offsets = walk + [(-x, -y) for x, y in walk]
    for i, a in enumerate(offsets):
        for b in offsets[i + 1:]:
            if not conflict_free(0, 0, *a, *b):
                return a, b
    return None


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
    ps = [ps[i] for i in range(n)]  # ps[i] builds a new Point per call
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


def min_degree_greedy_direct(g: Graph) -> frozenset[int]:
    """Minimum-degree greedy independent set over the whole graph.

    Repeatedly takes the live vertex of least (live degree, index) and
    removes it with its neighbors.  Degrees only fall, so a lazy min-heap
    holds the current key of every live vertex; stale entries are skipped.
    """
    deg = [len(nbrs) for nbrs in g.adjacency]
    heap = [(d, u) for u, d in enumerate(deg)]
    heapq.heapify(heap)
    alive = [True] * g.n
    chosen = set()
    while heap:
        d, u = heapq.heappop(heap)
        if not alive[u] or d != deg[u]:
            continue
        chosen.add(u)
        gone = [u] + [v for v in g.adjacency[u] if alive[v]]
        for v in gone:
            alive[v] = False
        for v in gone:
            for w in g.adjacency[v]:
                if alive[w]:
                    deg[w] -= 1
                    heapq.heappush(heap, (deg[w], w))
    return frozenset(chosen)


def neighborhood_coloring_direct(g: Graph, u: int) -> dict[int, int]:
    """Greedy coloring of the subgraph induced on {u} and its neighbors.

    In a valid LGG every neighbor of u has at most two further neighbors
    inside N(u), so the induced degree is at most 3 and four colors always
    suffice.  Returns vertex -> color (colors 0..3).  The induced degree
    check is the only one needed: a neighbor colored before u sees at most
    two colored vertices, so u gets a color of at most 3, and a neighbor
    colored after u sees at most three.
    """
    members = {u, *g.adjacency[u]}
    colors: dict[int, int] = {}
    for v in sorted(members):
        near = members.intersection(g.adjacency[v])
        if v != u and len(near) > 3:
            raise InvariantViolation(
                f"vertex {v} has induced degree {len(near)} > 3 in the "
                f"neighborhood of {u}; input graph is not a valid LGG"
            )
        used = {colors[w] for w in near if w in colors}
        colors[v] = next(c for c in range(4) if c not in used)
    return colors


@dataclass(frozen=True)
class CheckedPoint:
    """A point that checks its kind and range on construction: ``PointSet``'s
    rule applied to one point at a time, in Python scalars."""

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


def parse_points_csv_direct(text: str) -> PointSet:
    """The points CSV read row by row: each row is checked as a
    ``CheckedPoint``, and against the rows before it for a duplicate, so
    that a bad value or a repeated point names its line."""
    rows: list[tuple[int, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'x,y', got {raw!r}")
        if not all(map(is_ascii_number, parts)):
            raise FormatError(f"line {lineno}: not an ASCII decimal number in {raw!r}")
        rows.append((lineno, parts[0], parts[1]))
    if not rows:
        raise FormatError("no points in file")
    real = any("." in t or "e" in t.lower() for _, x, y in rows for t in (x, y))
    num, eps = (float, DEFAULT_EPSILON) if real else (int, 0.0)
    line_of: dict[tuple, int] = {}  # -0.0 and 0.0 are one key, as in PointSet
    for lineno, x, y in rows:
        try:  # a bad value names its line
            p = CheckedPoint(num(x), num(y), eps)
        except (ValueError, TypeError, OverflowError) as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        if (first := line_of.setdefault((p.x, p.y), lineno)) != lineno:
            raise FormatError(f"line {lineno}: duplicates line {first} {(p.x, p.y)}")
    return _build(PointSet.of, list(line_of), eps)
