"""Independent sets in locally Gabriel graphs.

In any LGG on a monotone sequence of points, the terminal (first or last)
vertex has degree at most one, so peeling terminals yields an independent
set of half the sequence.  Combined with a longest monotone subsequence of
length at least sqrt(n), any LGG yields an independent set of ceil(sqrt(n))/2
vertices.  Neighborhoods of LGG vertices induce subgraphs of maximum
degree 3, so one greedy pass, a scan per member, colors them with four colors.
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
    (non-decreasing on ties).  A non-increasing run of ``ys`` is a
    non-decreasing run of ``-ys``.  O(n log n).
    """
    runs = []
    for direction, ys in (
        (Direction.NON_DECREASING, ps.ys),
        (Direction.NON_INCREASING, -ps.ys),
    ):
        order = np.lexsort((ys, ps.xs)).tolist()
        run = _longest_weak_nondec(ys[order].tolist())
        runs.append(MonotoneSeq(tuple(order[k] for k in run), direction))
    return max(runs, key=lambda seq: len(seq.indices))  # the first on ties


def monotone_greedy_is(g: Graph, seq: MonotoneSeq) -> IndependentSetResult:
    """Terminal-vertex peeling over the induced subgraph on ``seq``.

    One pass in sequence order: each vertex not yet removed is the terminal
    vertex of what remains, so it is chosen, and it is removed together
    with its remaining neighbor in the sequence.  In a valid LGG the
    terminal vertex of a monotone sequence has degree at most one; more
    signals an invalid input graph.
    """
    left = set(seq.indices)  # neither chosen nor removed yet
    chosen = []
    for u in seq.indices:
        if u not in left:
            continue
        nbrs = left.intersection(g.adjacency[u])
        if len(nbrs) > 1:
            raise InvariantViolation(
                f"terminal vertex {u} has degree {len(nbrs)} > 1; "
                "input graph is not a valid LGG on a monotone sequence"
            )
        chosen.append(u)
        left -= nbrs | {u}
    assert 2 * len(chosen) >= len(seq.indices)
    return IndependentSetResult(
        frozenset(chosen), Method.MONOTONE_GREEDY, math.ceil(len(seq.indices) / 2)
    )


def _plain_greedy(g: Graph) -> frozenset[int]:
    """Minimum-degree greedy independent set over the whole graph.

    Repeatedly takes the live vertex of least key deg * n + u (the order of
    (live degree, index)) and removes it with its neighbors.  Degrees only
    fall, so a lazy min-heap holds the key of every live vertex, pushed once
    per removal that touches it; stale entries are skipped.
    """
    n, adj = g.n, g.adjacency
    deg = [len(nbrs) for nbrs in adj]
    heap = [d * n + u for u, d in enumerate(deg)]
    heapq.heapify(heap)
    alive = [True] * n
    chosen = set()
    while heap:
        d, u = divmod(heapq.heappop(heap), n)
        if not alive[u] or d != deg[u]:
            continue
        chosen.add(u)
        gone = [u] + [v for v in adj[u] if alive[v]]
        for v in gone:
            alive[v] = False
        touched = set()
        for v in gone:
            for w in adj[v]:
                if alive[w]:
                    deg[w] -= 1
                    touched.add(w)
        for w in touched:
            heapq.heappush(heap, deg[w] * n + w)
    return frozenset(chosen)


def independent_set(g: Graph) -> IndependentSetResult:
    """Larger of the monotone-peeling and plain-greedy independent sets.

    The reported guarantee is the constructive floor ceil(ceil(sqrt(n))/2),
    valid for any LGG on n points.
    """
    guarantee = math.ceil(math.ceil(math.sqrt(g.n)) / 2)
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
    suffice.  Returns vertex -> color (colors 0..3), ascending; a member takes
    the least color its neighbors leave, found in one adjacency scan.  The
    induced degree check is the only one needed: a neighbor colored before u
    sees at most two colored vertices, so u gets a color of at most 3, and a
    neighbor colored after u sees at most three.
    """
    if not 0 <= u < g.n:
        raise ValueError(f"vertex {u} is out of range [0, n = {g.n})")
    members = {u, *g.adjacency[u]}
    colors: dict[int, int] = {}
    for v in sorted(members):
        near = used = 0
        for w in g.adjacency[v]:
            if w in members:
                near += 1
                if w in colors:
                    used |= 1 << colors[w]
        if v != u and near > 3:
            raise InvariantViolation(
                f"vertex {v} has induced degree {near} > 3 in the "
                f"neighborhood of {u}; input graph is not a valid LGG"
            )
        colors[v] = (~used & (used + 1)).bit_length() - 1
    return colors
