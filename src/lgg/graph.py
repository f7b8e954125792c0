"""Geometric graphs, the locally-Gabriel verifier, and a random generator.

A ``Graph`` stores its edges as one canonical int64 array with a CSR
adjacency; the tuple views ``edges`` and ``adjacency`` are built only when
asked for.  A graph is valid (locally Gabriel) when no edge's closed
diametral disk contains a neighbor of either endpoint.  ``verify`` checks
the equivalent per-vertex formulation (every pair of edges at a shared
vertex passes ``geometry.conflict_free``) in one ragged pass over the CSR
rows, in (u, v, w) order.  It is the library's one formulation of the
check; the tests hold it to a scalar reference of the per-edge disk
definition (``tests/reference.py``).
"""

from __future__ import annotations

import operator
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


# About this many neighbor pairs per step of ``verify``; bounds its temporaries.
_VERIFY_CHUNK = 1 << 13


def verify(g: Graph) -> ConflictReport:
    """All conflicting neighbor pairs, one record per (u, {v, w}), sorted.

    Quadratic in vertex degrees: each position p of ``indices`` pairs with
    the later positions of its row, in chunks of about ``_VERIFY_CHUNK``
    pairs cut on one running count.  Rows and neighbors ascend, so the
    pairs come out in (u, v, w) order.
    """
    xs, ys, eps, indptr = g.points.xs, g.points.ys, g.points.eps, g.indptr
    deg = np.diff(indptr)
    # run[p]: the pairs of the positions before p.  Position p has d - 1
    # later positions at the start of a row of degree d, one less at each
    # step along it; one sum counts them, a second runs over positions
    run = np.full(len(g.indices) + 1, -1, dtype=np.int64)
    run[0] = 0
    run[indptr[:-1][deg > 0] + 1] = deg[deg > 0] - 1
    np.cumsum(np.cumsum(run, out=run), out=run)
    # each chunk starts at the position that holds its first pair
    firsts = np.append(np.arange(0, run[-1], _VERIFY_CHUNK), run[-1])
    cuts = (np.searchsorted(run, firsts, "right") - 1).tolist()
    found: list[tuple[int, int, int]] = []
    for a, b in zip(cuts, cuts[1:]):
        pos, later = np.arange(a, b), np.diff(run[a : b + 1])
        u = np.repeat(np.searchsorted(indptr, pos, "right") - 1, later)
        v = np.repeat(g.indices[pos], later)
        # pair t of the pass joins its position p to p + 1 + t - run[p]
        w = g.indices[np.arange(run[a], run[b]) + np.repeat(pos + 1 - run[a:b], later)]
        bad = ~conflict_free(xs[u], ys[u], xs[v], ys[v], xs[w], ys[w], eps)
        found += zip(u[bad].tolist(), v[bad].tolist(), w[bad].tolist())
    # then label only the conflicting triples
    u, v, w = np.array(found, dtype=np.int64).reshape(-1, 3).T
    inner = _interior_conflict(xs[u], ys[u], xs[v], ys[v], xs[w], ys[w], eps)
    kinds = [INTERIOR if i else BOUNDARY for i in inner.tolist()]
    return ConflictReport(tuple(Violation(*t, k) for t, k in zip(found, kinds)))


def checked(graph: Graph) -> Graph:
    """``graph``; raises ``InvariantViolation`` naming a conflict unless it verifies."""
    if bad := verify(graph).violations:
        v = bad[0]
        raise InvariantViolation(
            f"not a valid LGG: {len(bad)} conflict{'s' * (len(bad) > 1)}, first at"
            f" vertex {v.u} with neighbors {v.v} and {v.w} ({v.kind})"
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


# Live candidates taken, smallest keys first, per block of ``_greedy``.
_BLOCK = 1 << 14
# Cells of the (rows, n) arrays of one narrowing step of ``_narrow``; the
# temporaries stay in cache, whatever n and the number of new edges.
_NARROW_CELLS = 1 << 14


def _narrow(alive, xs, ys, eps: float, us, vs) -> None:
    """Narrow rows u and v of ``alive`` for the vertex-disjoint new edges uv."""
    rows = max(1, _NARROW_CELLS // xs.shape[0])
    for s in range(0, us.shape[0], rows):
        u, v = us[s : s + rows], vs[s : s + rows]
        # the edge uv kills (u, b) unless b is outside the disk on uv
        # (vectors b - u, b - v) and v is outside the disk on ub (u - v,
        # b - v); likewise (v, b) with u and v swapped.  Negation is exact,
        # so each test decides as the scalar one; at b = u or v the edge
        # terms may wrap in int64, but ``outside`` is False there.  (Two
        # ``conflict_free`` calls make four disk tests and ran ~30% slower.)
        ex, ey = (xs[u] - xs[v])[:, None], (ys[u] - ys[v])[:, None]
        dxu, dyu = xs - xs[u, None], ys - ys[u, None]
        dxv, dyv = xs - xs[v, None], ys - ys[v, None]
        outside = outside_disk(dxu, dyu, dxv, dyv, eps)
        alive[u] &= outside & outside_disk(ex, ey, dxv, dyv, eps)
        alive[v] &= outside & outside_disk(-ex, -ey, dxu, dyu, eps)


def _greedy(xs, ys, eps: float, keys) -> np.ndarray:
    """Greedy conflict-free insertion of the pairs i < j in ascending key order.

    ``keys`` holds one distinct key per pair, in ``np.triu_indices`` order.
    ``alive[a, b]`` holds while the edge (a, b) conflicts with no edge
    already inserted at ``a``; a pair (u, v) is live while ``alive[u, v]``
    and ``alive[v, u]``, and once dead stays dead.  The live pairs are
    taken ``_BLOCK`` smallest keys at a time, and each block is decided in
    rounds: a round inserts every ready pair (the earliest live pair at
    both its endpoints), narrows their rows, and drops the dead pairs.
    Returns the inserted pairs as an int64 (m, 2) array.
    """
    n = xs.shape[0]
    alive = np.ones((n, n), dtype=bool)
    # the pair i < j as the flat index i * n + j, in np.triu_indices order
    pairs = np.flatnonzero(~np.tri(n, dtype=bool))
    taken = []
    while keys.shape[0]:
        part = np.argpartition(keys, min(_BLOCK, keys.shape[0] - 1))
        block, rest = part[:_BLOCK], part[_BLOCK:]
        us, vs = np.divmod(pairs[block[np.argsort(keys[block])]], n)
        # every pair of the block is live here, in key order
        while us.shape[0]:
            at = np.arange(us.shape[0])
            first = np.full(n, us.shape[0])
            np.minimum.at(first, us, at)
            np.minimum.at(first, vs, at)
            ready = (first[us] == at) & (first[vs] == at)
            taken.append(np.column_stack((us[ready], vs[ready])))
            _narrow(alive, xs, ys, eps, us[ready], vs[ready])
            live = alive[us, vs] & alive[vs, us]
            us, vs = us[live], vs[live]
        pairs = pairs[rest]
        # alive[i, j] and, through a transposed copy, alive[j, i]
        live = alive.reshape(-1)[pairs] & alive.T.reshape(-1)[pairs]
        pairs, keys = pairs[live], keys[rest[live]]
    return np.concatenate(taken)


def random_maximal_lgg(ps: PointSet, seed: int) -> Graph:
    """Deterministic seeded maximal locally Gabriel graph on ``ps``.

    The candidate order is a permutation of all C(n, 2) pairs obtained by
    sorting on 64-bit splitmix64 keys (key_i = mix(mix(seed) xor i), with
    the usual 0x9E3779B97F4A7C15 / 0xBF58476D1CE4E5B9 / 0x94D049BB133111EB
    constants), ties broken by candidate index; ``seed`` is any integer,
    Python or numpy, taken modulo 2**64.  Each candidate is inserted iff it
    conflicts with no already-inserted edge sharing an endpoint, so the
    result is a valid LGG and no absent edge can be added.

    The candidates are decided in rounds, not one at a time, as greedy
    maximal independent set and matching can be (Blelloch, Fineman & Shun,
    SPAA 2012).  A candidate is ready when it is the earliest live one at
    both its endpoints; each round inserts every ready candidate at once.
    The result is the sequential one: every edge inserted at a vertex
    precedes every candidate still live there, so each kill comes from an
    earlier edge, and a ready candidate has no undecided earlier candidate
    at either endpoint.  Ready candidates share no vertex, so their updates
    commute.  A 1,024-point set takes 19-27 rounds for its 523,776 candidates.
    """
    n = len(ps)
    if n < 2:
        raise ValueError("need at least two points")
    # splitmix64 is a bijection and mix(seed) xor i is distinct for each i,
    # so keys never tie and need no tie rule in ``_greedy``
    keys = _candidate_keys(operator.index(seed), n * (n - 1) // 2)
    return Graph(ps, _greedy(ps.xs, ps.ys, ps.eps, keys))
