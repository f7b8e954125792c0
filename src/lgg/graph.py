"""Geometric graphs, the locally-Gabriel verifier, and a random generator.

A ``Graph`` stores its edges as one canonical int64 array with a CSR
adjacency; the tuple views ``edges`` and ``adjacency`` are built only when
asked for.  A graph is valid (locally Gabriel) when no edge's closed
diametral disk contains a neighbor of either endpoint.  ``verify`` checks
the equivalent per-vertex formulation (every pair of edges at a shared
vertex passes ``geometry.conflict_free``) in one vectorised pass on the
CSR arrays.  It is the library's one formulation of the check; the tests
hold it to a scalar reference of the per-edge disk definition
(``tests/reference.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import (
    BOUNDARY,
    INTERIOR,
    PointSet,
    _interior_conflict,
    conflict_free,
    outside_disk,
    pair_array,
)


class GraphError(ValueError):
    """Structurally malformed graph (bad indices, duplicates, self-loops)."""


class InvariantViolation(RuntimeError):
    """A graph broke a consequence of LGG validity; it is not a valid LGG."""


class Graph:
    """A point set with an undirected edge list over point indices.

    ``edge_array`` holds the edges as a read-only (m, 2) int64 array,
    canonicalized to ``i < j`` and sorted lexicographically, so equal
    graphs compare equal and serialized output is byte-stable.  The
    neighbors of ``u`` are ``indices[indptr[u]:indptr[u + 1]]``, ascending
    (CSR).  ``edges`` and ``adjacency`` give the same data as tuples of
    Python ints, built on first use.
    """

    def __init__(self, points: PointSet, edges) -> None:
        n = len(points)
        try:
            given = pair_array(edges, (int,), "edge")
        except ValueError as exc:
            raise GraphError(str(exc)) from exc
        a, b = given.T
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        loop = lo == hi
        if (bad := loop | (lo < 0) | (hi >= n)).any():
            k = int(bad.argmax())
            i, j = given[k].tolist()
            if loop[k]:
                raise GraphError(f"edge {k}: self-loop at vertex {i}")
            raise GraphError(f"edge {k}: {(i, j)} out of range for {n} points")
        keys = np.sort(lo * n + hi)
        if (dup := keys[1:] == keys[:-1]).any():
            raise GraphError(f"duplicate edge {divmod(int(keys[1:][dup][0]), n)}")
        lo, hi = np.divmod(keys, n)
        # every edge from both ends, sorted by (vertex, neighbor): the edges
        # are sorted by (lo, hi), so a stable sort on the source alone lists
        # each vertex's lower neighbors (reversed half, first) and then its
        # higher ones, each in ascending order
        src = np.concatenate((hi, lo))
        indices = np.concatenate((lo, hi))[np.argsort(src, kind="stable")]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        edge_array = np.column_stack((lo, hi))
        for a in (edge_array, indptr, indices):
            a.flags.writeable = False
        vars(self).update(
            points=points, edge_array=edge_array, indptr=indptr, indices=indices
        )

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"Graph is immutable; cannot set {name!r}")

    @property
    def n(self) -> int:
        return len(self.points)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(map(tuple, self.edge_array.tolist()))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs, ptr = self.indices.tolist(), self.indptr.tolist()
        return tuple(tuple(nbrs[a:b]) for a, b in zip(ptr, ptr[1:]))

    def degree(self, u: int) -> int:
        return int(self.indptr[u + 1] - self.indptr[u])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.points == other.points
            and np.array_equal(self.edge_array, other.edge_array)
        )


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
    ``conflict_free`` runs on bounded chunks of those pairs.
    """
    xs, ys, eps = g.points.xs, g.points.ys, g.points.eps
    deg = np.diff(g.indptr)
    found: list[tuple[int, int, int]] = []
    # the degrees >= 2 in ascending order; numpy 2.4's hash-based np.unique
    # is about 40x slower than counting here
    for d in (np.flatnonzero(np.bincount(deg)[2:]) + 2).tolist():
        ia, ib = np.triu_indices(d, 1)
        verts = np.flatnonzero(deg == d)
        step = max(1, _VERIFY_CHUNK // len(ia))
        for lo in range(0, len(verts), step):
            rows = verts[lo : lo + step]
            nbrs = g.indices[g.indptr[rows, None] + np.arange(d)]
            u = np.repeat(rows, len(ia))
            v, w = nbrs[:, ia].ravel(), nbrs[:, ib].ravel()
            bad = ~conflict_free(xs[u], ys[u], xs[v], ys[v], xs[w], ys[w], eps)
            found += zip(u[bad].tolist(), v[bad].tolist(), w[bad].tolist())
    found.sort()  # then label only the conflicting triples
    u, v, w = np.array(found, dtype=np.int64).reshape(-1, 3).T
    inner = _interior_conflict(xs[u], ys[u], xs[v], ys[v], xs[w], ys[w], eps)
    kinds = [INTERIOR if i else BOUNDARY for i in inner.tolist()]
    return ConflictReport(tuple(Violation(*t, k) for t, k in zip(found, kinds)))


def checked(points: PointSet, edges) -> Graph:
    """``Graph(points, edges)``; raises ``InvariantViolation`` unless it verifies."""
    graph = Graph(points, edges)
    if bad := verify(graph).violations:
        v = bad[0]
        raise InvariantViolation(
            f"built graph has {len(bad)} conflicts, first at vertex {v.u}"
            f" with neighbors {v.v} and {v.w} ({v.kind})"
        )
    return graph


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
        # terms may wrap in int64, but ``outside`` is False there.  (Two
        # ``conflict_free`` calls make four disk tests and ran ~30% slower.)
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
    return Graph(ps, _insert(ps.xs, ps.ys, ps.eps, us, vs))
