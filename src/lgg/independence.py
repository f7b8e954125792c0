"""Independent sets in locally Gabriel graphs.

In any LGG on a monotone sequence of points, the terminal (first or last)
vertex has degree at most one, so peeling terminals yields an independent
set of half the sequence.  Combined with a longest monotone subsequence of
length at least sqrt(n), any LGG yields an independent set of ceil(sqrt(n))/2
vertices.  Neighborhoods of LGG vertices induce subgraphs of maximum
degree 3 and are therefore 4-colorable.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import PointSet
from .graph import Graph, InvariantViolation


class Direction(Enum):
    NON_DECREASING = "non-decreasing"
    NON_INCREASING = "non-increasing"


@dataclass(frozen=True)
class MonotoneSeq:
    """Vertex indices ordered by abscissa with monotone ordinates."""

    indices: tuple[int, ...]
    direction: Direction


class Method(Enum):
    MONOTONE_GREEDY = "MonotoneGreedy"
    PLAIN_GREEDY = "PlainGreedy"


@dataclass(frozen=True)
class IndependentSetResult:
    vertices: frozenset[int]
    method: Method
    guarantee: int


def _longest_weak_nondec(vals: list) -> list[int]:
    """Positions of a longest non-decreasing subsequence (patience piles)."""
    tails: list = []  # smallest tail value per pile length
    tail_pos: list[int] = []
    parent = [-1] * len(vals)
    for i, v in enumerate(vals):
        k = bisect_right(tails, v)
        if k == len(tails):
            tails.append(v)
            tail_pos.append(i)
        else:
            tails[k] = v
            tail_pos[k] = i
        parent[i] = tail_pos[k - 1] if k > 0 else -1
    out = []
    i = tail_pos[-1]
    while i != -1:
        out.append(i)
        i = parent[i]
    return out[::-1]


def longest_monotone_subsequence(ps: PointSet) -> MonotoneSeq:
    """Longest monotone-ordinate subsequence; length at least ceil(sqrt(n)).

    Points are taken in abscissa order; the longer of the longest
    non-decreasing and longest non-increasing ordinate subsequences wins
    (non-decreasing on ties).  O(n log n).
    """
    xs, ys = ps.xs, ps.ys
    up_order = np.lexsort((ys, xs)).tolist()
    down_order = np.lexsort((-ys, xs)).tolist()
    up = _longest_weak_nondec(ys[up_order].tolist())
    down = _longest_weak_nondec((-ys)[down_order].tolist())
    if len(up) >= len(down):
        return MonotoneSeq(
            tuple(up_order[k] for k in up), Direction.NON_DECREASING
        )
    return MonotoneSeq(
        tuple(down_order[k] for k in down), Direction.NON_INCREASING
    )


def monotone_greedy_is(g: Graph, seq: MonotoneSeq) -> IndependentSetResult:
    """Terminal-vertex peeling over the induced subgraph on ``seq``.

    Repeatedly moves the first remaining vertex of the sequence into the
    independent set and deletes it together with its unique neighbor.  In a
    valid LGG the terminal vertex of a monotone sequence has degree at most
    one; more signals an invalid input graph.
    """
    members = set(seq.indices)
    adj = {
        u: {v for v in g.adjacency[u] if v in members} for u in seq.indices
    }
    alive = list(seq.indices)
    removed: set[int] = set()
    chosen: set[int] = set()
    for u in alive:
        if u in removed:
            continue
        nbrs = adj[u] - removed
        if len(nbrs) > 1:
            raise InvariantViolation(
                f"terminal vertex {u} has degree {len(nbrs)} > 1; "
                "input graph is not a valid LGG on a monotone sequence"
            )
        chosen.add(u)
        removed.add(u)
        removed.update(nbrs)
    assert 2 * len(chosen) >= len(seq.indices)
    return IndependentSetResult(
        frozenset(chosen), Method.MONOTONE_GREEDY, math.ceil(len(seq.indices) / 2)
    )


def _plain_greedy(g: Graph) -> frozenset[int]:
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


def independent_set(g: Graph) -> IndependentSetResult:
    """Larger of the monotone-peeling and plain-greedy independent sets.

    The reported guarantee is the constructive floor ceil(ceil(sqrt(n))/2),
    valid for any LGG on n points.
    """
    n = g.n
    guarantee = math.ceil(math.ceil(math.sqrt(n)) / 2)
    seq = longest_monotone_subsequence(g.points)
    mono = monotone_greedy_is(g, seq)
    plain = _plain_greedy(g)
    if len(plain) > len(mono.vertices):
        return IndependentSetResult(plain, Method.PLAIN_GREEDY, guarantee)
    return IndependentSetResult(mono.vertices, Method.MONOTONE_GREEDY, guarantee)


def neighborhood_coloring(g: Graph, u: int) -> dict[int, int]:
    """Greedy coloring of the subgraph induced on {u} and its neighbors.

    In a valid LGG every neighbor of u has at most two further neighbors
    inside N(u), so the induced degree is at most 3 and four colors always
    suffice.  Returns vertex -> color (colors 0..3).
    """
    nbrs = set(g.adjacency[u])
    members = {u} | nbrs
    cluster = sorted(members)
    induced = {v: [w for w in g.adjacency[v] if w in members] for v in cluster}
    for v in nbrs:
        if len(induced[v]) > 3:
            raise InvariantViolation(
                f"vertex {v} has induced degree {len(induced[v])} > 3 in the "
                f"neighborhood of {u}; input graph is not a valid LGG"
            )
    colors: dict[int, int] = {}
    for v in cluster:
        used = {colors[w] for w in induced[v] if w in colors}
        c = next(c for c in range(len(cluster) + 1) if c not in used)
        colors[v] = c
    if max(colors.values()) > 3:
        raise InvariantViolation("neighborhood required more than 4 colors")
    return colors
