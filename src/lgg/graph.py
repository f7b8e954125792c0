"""Geometric graphs, the locally-Gabriel verifier, and a random generator.

A ``Graph`` stores its edges as one canonical int64 array; its CSR
adjacency (``indptr``, ``indices``) and the tuple views ``edges`` and
``adjacency`` are built only when asked for.  A graph is valid (locally
Gabriel) when no edge's closed diametral disk contains a neighbor of either
endpoint.  ``verify`` checks the equivalent per-vertex formulation (every
pair of edges at a shared vertex passes ``geometry.conflict_free``).  An
integer vertex is certified by its angular neighbours alone: with its
neighbours in exact angular order, d cyclically consecutive pairs decide
all C(d, 2) (the lemma is in ``verify``).  Every other vertex goes through
one ragged pass over its CSR rows, in (u, v, w) order.  It is the library's
one formulation of the check; the tests hold it to a scalar reference of
the per-edge disk definition (``tests/reference.py``).

``random_maximal_lgg`` keeps the n x n bool matrix ``alive``, one row slab
of candidates and one block of them: a candidate's key is a function of its
index, made again on each pass over the slabs, never stored for all C(n, 2).
A block's rounds decide on the block alone, with ``conflict_free``; the rows
of ``alive`` are narrowed only when another pass follows.
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
    (CSR, read-only).  The CSR, and ``edges`` and ``adjacency`` (the same
    data as tuples of Python ints), are built on first use.
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
        # a stable sort is linear on edges already in order, as the reader's are
        keys = np.sort(lo * n + hi, kind="stable")
        if (dup := keys[1:] == keys[:-1]).any():
            raise GraphError(f"duplicate edge {divmod(int(keys[1:][dup][0]), n)}")
        lo = keys // n
        edge_array = np.column_stack((lo, keys - lo * n))
        edge_array.flags.writeable = False
        vars(self).update(points=points, edge_array=edge_array)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"Graph is immutable; cannot set {name!r}")

    @property
    def n(self) -> int:
        return len(self.points)

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray]:
        # every edge from both ends as the arc key u * n + v: one sort
        # orders the arcs by (vertex, neighbor), and vertex u's arcs are
        # the keys in [u * n, (u + 1) * n)
        n, (lo, hi) = self.n, self.edge_array.T
        arcs = np.sort(np.concatenate((lo * n + hi, hi * n + lo)))
        indptr = np.searchsorted(arcs, np.arange(n + 1) * n)
        indices = arcs - arcs // n * n
        indptr.flags.writeable = indices.flags.writeable = False
        return indptr, indices

    @property
    def indptr(self) -> np.ndarray:
        return self._csr[0]

    @property
    def indices(self) -> np.ndarray:
        return self._csr[1]

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


# About this many neighbor pairs, or row positions, per step of ``verify``;
# bounds its temporaries.
_VERIFY_CHUNK = 1 << 13


def _by_angle(xs, ys, indptr, indices) -> np.ndarray:
    """Per row of an integer graph, whether its angular neighbours certify it.

    Rows go in blocks of about ``_VERIFY_CHUNK`` positions.  Each row's arcs
    a = v - u are ordered by the key (row, ``arctan2`` bin); the order is
    then checked exactly, and the d cyclically consecutive pairs get the
    pair test.  A row of degree 2 or more is certified when all pass.
    """
    ok = np.ones(len(indptr) - 1, dtype=bool)
    # each block starts at the row that holds its first position
    starts = np.searchsorted(indptr, np.arange(0, indptr[-1], _VERIFY_CHUNK), "right")
    cuts = sorted({*(starts - 1).tolist(), len(ok)})
    for r0, r1 in zip(cuts, cuts[1:]):
        ptr = indptr[r0 : r1 + 1] - indptr[r0]
        deg = np.diff(ptr)
        u = np.repeat(np.arange(r0, r1), deg)
        v = indices[indptr[r0] : indptr[r1]]
        ax, ay = xs[v] - xs[u], ys[v] - ys[u]
        # the row's first position above 2**32 bins of [0, 2 pi); a block
        # spans fewer than 2**31 positions, so the key fits int64.  The rows
        # are runs of the key already, which a stable sort merges fast
        turn = np.floor(np.arctan2(ay, ax) * (2**31 / np.pi)).astype(np.int64)
        key = np.repeat(ptr[:-1] << 32, deg) | turn & (2**32 - 1)
        order = np.argsort(key, kind="stable")
        ax, ay = ax[order], ay[order]
        # b: the next arc of the row, cyclically
        first, last = ptr[:-1][deg > 0], ptr[1:][deg > 0] - 1
        nxt = np.arange(1, len(ax) + 1)
        nxt[last] = first
        bx, by = ax[nxt], ay[nxt]
        # in order: b is in a later half plane, [0, pi) then [pi, 2 pi), or
        # in the same one and not clockwise of a.  The products are at most
        # 2**62 in size, and compared, not subtracted, so exact in int64
        half = (ay < 0) | ((ay == 0) & (ax < 0))
        good = (half < half[nxt]) | ((half == half[nxt]) & (ax * by >= ay * bx))
        good[last] = True
        # the pair test, u-relative: conflict_free(u, v, w) term for term
        # (a call decides alike, but costs about 1 ms per verify at g = 300)
        good &= outside_disk(ax, ay, ax - bx, ay - by)
        good &= outside_disk(bx, by, bx - ax, by - ay)
        ok[u[~good]] = False
    return ok


def verify(g: Graph) -> ConflictReport:
    """All conflicting neighbor pairs, one record per (u, {v, w}), sorted.

    Integer rows are first certified by their angular neighbours, by this
    lemma.  Let u's neighbours, as vectors a_1..a_d from u (d >= 2), be in
    strictly increasing angle, and let every cyclically consecutive pair,
    (a_i, a_i+1) and (a_d, a_1), pass the pair test: triangle u a_i a_i+1
    is acute at a_i and at a_i+1.  Then every pair passes.  Proof: the fan
    triangles make the polygon a_1..a_d locally convex, so it is convex
    (when one angular gap is 180 degrees or more, take the polygon u,
    a_1..a_d instead).  At each a_i the polygon lies in the cone of its two
    edges, which the ray a_i -> u splits into two acute parts, so the angle
    u a_i a_j is below 90 degrees for every j.  Two arcs on one ray are
    consecutive in the order and fail the pair test, so a row that passes
    has strictly increasing angles; a conflict-free row in order passes.

    Every other row (misordered by ``arctan2``, with a conflict, or of a
    real-coordinate graph) goes through the ragged pass: each of its
    positions p pairs with the later positions of its row, in chunks of
    about ``_VERIFY_CHUNK`` pairs cut on one running count.  Rows and
    neighbors ascend, so the pairs come out in (u, v, w) order.
    """
    xs, ys, eps, indptr = g.points.xs, g.points.ys, g.points.eps, g.indptr
    deg = np.diff(indptr)
    rows = np.flatnonzero(deg > 1)
    if g.points.is_exact:
        rows = rows[~_by_angle(xs, ys, indptr, g.indices)[rows]]
    # those rows alone, as a CSR (ptr, nbrs)
    deg = deg[rows]
    ptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(deg, out=ptr[1:])
    nbrs = g.indices[np.repeat(indptr[rows] - ptr[:-1], deg) + np.arange(ptr[-1])]
    # run[p]: the pairs of the positions before p.  Position p has d - 1
    # later positions at the start of a row of degree d, one less at each
    # step along it; one sum counts them, a second runs over positions
    run = np.full(len(nbrs) + 1, -1, dtype=np.int64)
    run[0] = 0
    run[ptr[:-1] + 1] = deg - 1
    np.cumsum(np.cumsum(run, out=run), out=run)
    # each chunk starts at the position that holds its first pair
    firsts = np.append(np.arange(0, run[-1], _VERIFY_CHUNK), run[-1])
    cuts = (np.searchsorted(run, firsts, "right") - 1).tolist()
    found: list[tuple[int, int, int]] = []
    for a, b in zip(cuts, cuts[1:]):
        pos, later = np.arange(a, b), np.diff(run[a : b + 1])
        u = np.repeat(rows[np.searchsorted(ptr, pos, "right") - 1], later)
        v = np.repeat(nbrs[pos], later)
        # pair t of the pass joins its position p to p + 1 + t - run[p]
        w = nbrs[np.arange(run[a], run[b]) + np.repeat(pos + 1 - run[a:b], later)]
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


# Live candidates taken, smallest keys first, per block of ``_greedy``.
_BLOCK = 1 << 14
# About this many pairs i < j per row slab of a pass of ``_next_block``; the
# slab's keys and index temporaries stay small, whatever n.
_STREAM_CELLS = 1 << 16
# Cells of the (rows, n) arrays of one narrowing step of ``_narrow``; the
# temporaries stay in cache, whatever n and the number of new edges.
_NARROW_CELLS = 1 << 14


def _narrow(alive, xs, ys, eps: float, us, vs) -> None:
    """Narrow rows u and v of ``alive`` for the vertex-disjoint new edges uv.

    Called once per round of a decided block, and only when another pass
    over the slabs follows to read ``alive``.
    """
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


def _next_block(alive, off, cuts, base, whole: bool) -> tuple[np.ndarray, int]:
    """The ``_BLOCK`` live pairs of smallest key, in key order, and the live count.

    One pass over the row slabs ``cuts``.  A pair is named by its index t
    in ``np.triu_indices`` order, and its key is mix(base xor t), made
    again on each pass.  When ``whole``, every pair is live and a slab's
    keys come from one range of t; otherwise from the live cells alone.
    The pass keeps a running top-``_BLOCK`` and, once that is full, drops
    every key above its largest (keys are distinct).
    """
    n = alive.shape[0]
    keys, ts = np.empty(0, np.uint64), np.empty(0, np.int64)
    count, cut = 0, None
    for i0, i1 in zip(cuts, cuts[1:]):
        if whole:
            t = np.arange(off[i0], off[i1])
        else:
            # the pair i < j is cell (i - i0, j - i0 - 1) of the slab, whose
            # square part also holds the pairs j <= i; t = off[i] + j - i - 1
            live = alive[i0:i1, i0 + 1 :] & alive[i0 + 1 :, i0:i1].T
            live[:, : i1 - i0] &= ~np.tri(i1 - i0, k=-1, dtype=bool)
            cols = n - 1 - i0
            cell = np.flatnonzero(live)
            r = cell // cols
            t = off[i0 + r] + cell - r * (cols + 1)
        count += t.shape[0]
        k = _mix(t.view(np.uint64) ^ base)
        if cut is not None:
            small = k < cut
            k, t = k[small], t[small]
        if keys.shape[0]:
            k, t = np.concatenate((keys, k)), np.concatenate((ts, t))
        if k.shape[0] > _BLOCK:
            part = np.argpartition(k, _BLOCK - 1)[:_BLOCK]
            k, t = k[part], t[part]
            cut = k[-1]  # the kth: the largest kept
        keys, ts = k, t
    return ts[np.argsort(keys)], count


def _greedy(xs, ys, eps: float, base) -> np.ndarray:
    """Greedy conflict-free insertion of the pairs i < j in ascending key order.

    The pair with index t in ``np.triu_indices`` order has the key
    mix(base xor t); splitmix64 is a bijection, so keys never tie.
    ``alive[a, b]`` holds while the edge (a, b) conflicts with no edge
    already inserted at ``a``; a pair (u, v) is live while ``alive[u, v]``
    and ``alive[v, u]``, and once dead stays dead.  Each block, the
    ``_BLOCK`` live pairs of smallest key (``_next_block``), is decided in
    rounds that read only the block: a round inserts every ready pair (the
    earliest live pair at both its endpoints), drops them from the block,
    and keeps a remaining pair (a, b) only if ``conflict_free`` holds
    against the new edge at a and at b, if any.  Then, unless the block was
    the last (its pass found at most ``_BLOCK`` live pairs), ``_narrow``
    narrows the rows of ``alive`` by each round's edges.  Its row tests are
    the rounds' tests term for term, so the decided block is all dead
    (``_narrow`` kills an inserted pair too) and the next block's keys are
    all above it, and each pass counts fewer live pairs than the one
    before; one that does not raises ``RuntimeError`` rather than repeat
    its block for ever.  Returns the inserted pairs as an int64 (m, 2) array.
    """
    n = xs.shape[0]
    alive = np.ones((n, n), dtype=bool)
    # off[i]: the index t of the pair (i, i + 1); row i holds n - 1 - i pairs
    off = np.zeros(n, dtype=np.int64)
    np.cumsum(np.arange(n - 1, 0, -1), out=off[1:])
    # m slabs of C(n, 2) / m pairs, m the nearest to C(n, 2) / _STREAM_CELLS;
    # each starts at the row that holds its first pair
    m = max(1, round(int(off[-1]) / _STREAM_CELLS))
    starts = np.searchsorted(off, np.arange(m) * off[-1] // m, "right") - 1
    cuts = sorted({*starts.tolist(), n - 1})
    partner = np.full(n, -1)
    taken, whole, last = [], True, float("inf")
    while True:
        ts, count = _next_block(alive, off, cuts, base, whole)
        if count >= last:
            raise RuntimeError(
                f"no progress: a pass found {count} live pairs, the one before {last}"
            )
        last = count
        # the row of t is n - 2 - q, q the largest with q(q + 1) / 2 <= the
        # C(n, 2) - 1 - t pairs after t: the float root is exact enough for
        # arguments below 2**51 (n < 2**24), and ~4x faster than a search
        q = (np.sqrt(8.0 * (off[-1] - 1 - ts) + 1) - 1) // 2
        us = n - 2 - q.astype(np.int64)
        vs = ts - off[us] + us + 1
        # every pair of the block is live here, in key order; the rounds
        # read only the block: the new edge az kills (a, b) unless
        # conflict_free(a, z, b), which is ``_narrow``'s test term for term
        rounds = []
        while us.shape[0]:
            at = np.arange(us.shape[0])
            first = np.full(n, us.shape[0])
            np.minimum.at(first, us, at)
            np.minimum.at(first, vs, at)
            ready = (first[us] == at) & (first[vs] == at)
            ru, rv = us[ready], vs[ready]
            rounds.append(np.column_stack((ru, rv)))
            partner[ru], partner[rv] = rv, ru
            us, vs = us[~ready], vs[~ready]
            live = np.ones(us.shape[0], dtype=bool)
            for a, b in ((us, vs), (vs, us)):
                hit = np.flatnonzero(partner[a] >= 0)
                a, b, z = a[hit], b[hit], partner[a[hit]]
                live[hit] &= conflict_free(xs[a], ys[a], xs[z], ys[z], xs[b], ys[b], eps)
            partner[ru] = partner[rv] = -1
            us, vs = us[live], vs[live]
        taken += rounds
        if count <= _BLOCK:
            return np.concatenate(taken)
        # another pass follows: it reads ``alive``, so narrow it by each
        # round's vertex-disjoint edges
        for e in rounds:
            _narrow(alive, xs, ys, eps, e[:, 0], e[:, 1])
        whole = False


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

    What is kept is ``alive`` (n**2 bools: which candidates are still live
    at each endpoint), one row slab of about ``_STREAM_CELLS`` candidates,
    one block of ``_BLOCK`` and the block's round edges.  No key is stored:
    a candidate's key is made again from its index on each pass over the
    slabs that picks the next block.  The rounds test each remaining
    candidate of the block against the new edge at each endpoint; the n
    columns of the new edges' rows in ``alive`` are narrowed once the block
    is decided, and only when another pass follows.  After the first block
    few candidates are live (7,627 of 523,776 on one 1,024-point set), so a
    handful of passes suffice, and the last block narrows no row.
    """
    n = len(ps)
    if n < 2:
        raise ValueError("need at least two points")
    base = _mix(np.uint64(operator.index(seed) & _U64))
    return Graph(ps, _greedy(ps.xs, ps.ys, ps.eps, base))
