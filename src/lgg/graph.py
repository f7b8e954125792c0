"""Geometric graphs, the locally-Gabriel verifier, and a random generator.

A graph is valid (locally Gabriel) when no edge's closed diametral disk
contains a neighbor of either endpoint.  ``verify`` checks the equivalent
per-vertex formulation (every pair of edges at a shared vertex is
conflict-free) in one vectorised pass; ``verify_direct`` checks the
per-edge disk definition literally with the scalar predicates.  The two
must agree on every input and tests hold them to that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .geometry import (
    PointSet,
    conflict_kind,
    coord_arrays,
    in_closed_disk,
    outside_disk,
)


class GraphError(ValueError):
    """Structurally malformed graph (bad indices, duplicates, self-loops)."""


@dataclass(frozen=True)
class Graph:
    """A point set with an undirected edge list over point indices.

    Edges are canonicalized to ``i < j`` and sorted lexicographically, so
    equal graphs compare equal and serialized output is byte-stable.
    """

    points: PointSet
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = len(self.points)
        canon = []
        for k, e in enumerate(self.edges):
            i, j = e
            if i == j:
                raise GraphError(f"edge {k}: self-loop at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise GraphError(f"edge {k}: {e} out of range for {n} points")
            canon.append((i, j) if i < j else (j, i))
        canon.sort()
        for a, b in zip(canon, canon[1:]):
            if a == b:
                raise GraphError(f"duplicate edge {a}")
        object.__setattr__(self, "edges", tuple(canon))
        adj: list[list[int]] = [[] for _ in range(n)]
        for i, j in canon:
            adj[i].append(j)
            adj[j].append(i)
        object.__setattr__(self, "adjacency", tuple(tuple(sorted(a)) for a in adj))

    @property
    def n(self) -> int:
        return len(self.points)

    def degree(self, u: int) -> int:
        return len(self.adjacency[u])


@dataclass(frozen=True)
class Violation:
    """One conflicting edge pair: edges (u, v) and (u, w) share vertex u."""

    u: int
    v: int
    w: int
    kind: str  # "interior" or "boundary"


@dataclass(frozen=True)
class ConflictReport:
    violations: tuple[Violation, ...]

    @property
    def valid(self) -> bool:
        return not self.violations


# Neighbor pairs per vectorised step of ``verify``; bounds its temporaries.
_VERIFY_CHUNK = 1 << 12


def verify(g: Graph) -> ConflictReport:
    """All conflicting neighbor pairs, one record per (u, {v, w}).

    One vectorised pass, quadratic in vertex degrees: vertices are grouped
    by degree d, their neighbor pairs come from ``triu_indices(d, 1)``, and
    both disk tests run on bounded chunks of those pairs.
    """
    xs, ys = coord_arrays(g.points)
    eps = g.points.eps
    adj = g.adjacency
    deg = np.fromiter(map(len, adj), dtype=np.intp, count=g.n)
    found: list[tuple[int, int, int]] = []
    for d in np.unique(deg[deg >= 2]).tolist():
        ia, ib = np.triu_indices(d, 1)
        verts = np.flatnonzero(deg == d)
        step = max(1, _VERIFY_CHUNK // len(ia))
        for lo in range(0, len(verts), step):
            rows = verts[lo : lo + step]
            flat = chain.from_iterable(map(adj.__getitem__, rows.tolist()))
            nbrs = np.fromiter(flat, np.intp, len(rows) * d).reshape(-1, d)
            u = np.repeat(rows, len(ia))
            v, w = nbrs[:, ia].ravel(), nbrs[:, ib].ravel()
            xu, yu, xv, yv, xw, yw = xs[u], ys[u], xs[v], ys[v], xs[w], ys[w]
            # w outside the disk on uv, and v outside the disk on uw
            ok = outside_disk(xu - xw, yu - yw, xv - xw, yv - yw, eps)
            ok &= outside_disk(xu - xv, yu - yv, xw - xv, yw - yv, eps)
            bad = np.flatnonzero(~ok)
            found += zip(u[bad].tolist(), v[bad].tolist(), w[bad].tolist())
    return _report(g.points, found)


def _report(pts: PointSet, triples) -> ConflictReport:
    """Sorted violations of the conflicting triples (u, v, w), v < w."""
    return ConflictReport(
        tuple(
            Violation(u, v, w, conflict_kind(pts[u], pts[v], pts[w]))
            for u, v, w in sorted(triples)
        )
    )


def verify_direct(g: Graph) -> ConflictReport:
    """Per-edge cross-check oracle for ``verify``.

    Iterates edges (u, v) and tests every neighbor of u and of v for
    membership in the closed disk with uv as diameter.
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
    return _report(pts, found)


# --- seeded random maximal LGGs -------------------------------------------

_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_M1 = 0xBF58476D1CE4E5B9
_SM_M2 = 0x94D049BB133111EB
_U64 = (1 << 64) - 1


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64 output for each uint64 state ``z`` (wrapping arithmetic)."""
    with np.errstate(over="ignore"):
        z = z + np.uint64(_SM_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_SM_M1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_SM_M2)
        return z ^ (z >> np.uint64(31))


def _candidate_keys(seed: int, count: int) -> np.ndarray:
    """splitmix64 key stream, key_i = mix(mix(seed) xor i), vectorized."""
    base = _mix(np.uint64(seed & _U64))
    return _mix(np.arange(count, dtype=np.uint64) ^ base)


def candidate_edges(n: int) -> list[tuple[int, int]]:
    """All C(n, 2) index pairs in lexicographic order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


# Candidates examined per vectorised scan step of ``_insert``.
_SCAN_CHUNK = 256


def _insert(xs, ys, eps: float, us, vs) -> list[tuple[int, int]]:
    """Greedy conflict-free insertion of the candidates (us[t], vs[t]) in order.

    ``alive[a, b]`` holds while the edge (a, b) conflicts with no edge
    already inserted at ``a``.  Conflicts only accumulate, so a dead entry
    stays dead and a candidate (u, v) is inserted iff ``alive[u, v]`` and
    ``alive[v, u]``.  Candidates are scanned in chunks; after each insertion
    rows u and v are narrowed with one vectorised predicate over all points.
    """
    n = xs.shape[0]
    alive = np.ones((n, n), dtype=bool)
    flat = alive.reshape(-1)
    fwd = us * n + vs
    bwd = vs * n + us
    total = fwd.shape[0]
    edges: list[tuple[int, int]] = []
    t = 0
    while t < total:
        stop = t + _SCAN_CHUNK
        live = flat[fwd[t:stop]] & flat[bwd[t:stop]]
        k = int(live.argmax())
        if not live[k]:
            t = stop
            continue
        t += k
        u, v = int(us[t]), int(vs[t])
        edges.append((u, v))
        # the edge uv kills (u, b) unless b is outside the disk on uv
        # (vectors b - u, b - v) and v is outside the disk on ub (u - v,
        # b - v); likewise (v, b) with u and v swapped.  Negation is exact,
        # so each test decides as the scalar one; at b = u or v the edge
        # terms may wrap in int64, but ``outside`` is False there.
        ex, ey = xs[u] - xs[v], ys[u] - ys[v]
        dxu, dyu = xs - xs[u], ys - ys[u]
        dxv, dyv = xs - xs[v], ys - ys[v]
        outside = outside_disk(dxu, dyu, dxv, dyv, eps)
        alive[u] &= outside & outside_disk(ex, ey, dxv, dyv, eps)
        alive[v] &= outside & outside_disk(-ex, -ey, dxu, dyu, eps)
        t += 1
    return edges


def random_maximal_lgg(ps: PointSet, seed: int) -> Graph:
    """Deterministic seeded maximal locally Gabriel graph on ``ps``.

    The candidate order is a permutation of all C(n, 2) pairs obtained by
    sorting on 64-bit splitmix64 keys (key_i = mix(mix(seed) xor i), with
    the usual 0x9E3779B97F4A7C15 / 0xBF58476D1CE4E5B9 / 0x94D049BB133111EB
    constants), ties broken by candidate index.  Each candidate is inserted
    iff it conflicts with no already-inserted edge sharing an endpoint, so
    the result is a valid LGG and no absent edge can be added.
    """
    n = len(ps)
    if n < 2:
        raise ValueError("need at least two points")
    keys = _candidate_keys(seed, n * (n - 1) // 2)
    # splitmix64 is a bijection and mix(seed) xor i is distinct for each i,
    # so keys never tie and the unstable sort already gives the index order
    order = np.argsort(keys)
    cand_i, cand_j = np.triu_indices(n, 1)
    us = cand_i[order]
    vs = cand_j[order]
    xs, ys = coord_arrays(ps)
    return Graph(ps, tuple(_insert(xs, ys, ps.eps, us, vs)))
