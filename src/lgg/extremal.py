"""Exact maximum locally Gabriel graphs on small point sets.

Candidate edges are all C(n, 2) point pairs; two are adjacent in the
conflict graph, kept in bitsets, when they share an endpoint and fail
``conflict_free`` (one vectorised call tests them all).  Valid edge sets
are its independent sets, so the maximum LGG is a maximum independent set.

It is found by a coloured branch and bound over the candidates renumbered
by ascending conflict degree, with two bounds:

* colour bound: the available candidates are greedily partitioned into
  cliques, and the search branches on them from the last clique back; a
  vertex in clique ``c`` is pruned when ``c`` cliques cannot hold the
  candidates still needed, and so is a node with too few cliques;
* star-degree bound (per node): candidates conflict only at a shared point,
  so at point ``s`` a set holds at most ``cover_s`` of the candidates at
  ``s`` (a greedy clique cover), and as each candidate has two endpoints a
  node is pruned when ``floor(sum_s cover_s / 2)`` is below the need.

A node tests the cheap colour bound first and the star-degree bound only
if it survives.  One memo per call maps a star's available candidates to
their cover, so a node covers only the candidate sets that no earlier node
of the call (parent, sibling, decision search or fixing pass) has covered.

Decision searches for one more edge than the best set so far give the
maximum.  A fixing pass then walks the candidates in index order and takes
each one that some maximum set extending the taken ones contains, so the
witness is the lexicographically least maximum set.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .geometry import PointSet, conflict_free
from .graph import Graph, checked

MAX_POINTS = 16


class SizeError(ValueError):
    """Point set too large for exact search."""


@dataclass(frozen=True)
class ConflictGraph:
    points: PointSet
    candidates: tuple[tuple[int, int], ...]
    adjacency: tuple[int, ...]  # bitset per candidate

    @property
    def m(self) -> int:
        return len(self.candidates)


@dataclass(frozen=True)
class ExtremalResult:
    max_edges: int
    witness: Graph
    nodes_explored: int


def build_conflict_graph(ps: PointSet) -> ConflictGraph:
    n = len(ps)
    if n < 2:
        raise SizeError("need at least two points")
    if n > MAX_POINTS:
        raise SizeError(f"exact search capped at {MAX_POINTS} points, got {n}")
    ci, cj = np.triu_indices(n, 1)
    m = len(ci)
    index = np.zeros((n, n), dtype=np.int64)
    index[ci, cj] = index[cj, ci] = np.arange(m)
    # only candidates (s, q) and (s, r) sharing a point s can conflict
    s, q, r = np.repeat(np.arange(n), m), np.tile(ci, n), np.tile(cj, n)
    xs, ys = ps.xs, ps.ys
    hit = (q != s) & (r != s)
    hit &= ~conflict_free(xs[s], ys[s], xs[q], ys[q], xs[r], ys[r], ps.eps)
    adj = [0] * m
    for a, b in zip(index[s, q][hit].tolist(), index[s, r][hit].tolist()):
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return ConflictGraph(ps, tuple(zip(ci.tolist(), cj.tolist())), tuple(adj))


def _cliques(adj, avail: int) -> list[int]:
    """Greedy partition of ``avail`` into cliques, as bitsets.

    Each clique starts at the lowest remaining vertex and grows by the lowest
    common neighbour.  An independent set holds at most one vertex per clique.
    """
    cliques = []
    while avail:
        clique, common = 0, avail
        while common:
            low = common & -common
            clique |= low
            common &= adj[low.bit_length() - 1]
        avail ^= clique
        cliques.append(clique)
    return cliques


def max_independent_candidates(cg: ConflictGraph) -> tuple[list[int], int]:
    """Lexicographically least maximum independent set of candidates.

    Returns the set as ascending candidate indices, and the number of
    nodes of all the searches (see the module docstring).
    """
    m, conflicts = cg.m, cg.adjacency
    # search order: ascending conflict degree, ties by index
    order = sorted(range(m), key=lambda a: (conflicts[a].bit_count(), a))
    pos = [0] * m
    for v, a in enumerate(order):
        pos[a] = v
    adj = []
    for a in order:
        row, rest = 0, conflicts[a]
        while rest:
            low = rest & -rest
            row |= 1 << pos[low.bit_length() - 1]
            rest ^= low
        adj.append(row)
    # candidates incident to each point; they conflict only inside one star
    stars = [0] * len(cg.points)
    for a, (i, j) in enumerate(cg.candidates):
        stars[i] |= 1 << pos[a]
        stars[j] |= 1 << pos[a]
    nodes = 0
    # the cover of a star's available candidates, kept for the whole call
    cover = functools.cache(lambda here: len(_cliques(adj, here)))

    def find(avail: int, k: int) -> list[int] | None:
        """The first independent set of ``k`` vertices of ``avail`` found, or None."""
        nonlocal nodes
        nodes += 1
        if k <= 0:
            return []
        if avail.bit_count() < k:
            return None
        # colour bound: the vertices of the first c cliques hold at most c
        cliques = _cliques(adj, avail)
        if len(cliques) < k:
            return None
        # star-degree bound: a set takes at most cover(star) candidates at
        # each point, and every candidate lies in two stars
        if sum(cover(avail & star) for star in stars) // 2 < k:
            return None
        # branch from the last clique back, take before drop
        for c in range(len(cliques), k - 1, -1):
            clique = cliques[c - 1]
            while clique:
                v = clique.bit_length() - 1
                clique ^= 1 << v
                avail ^= 1 << v
                rest = find(avail & ~adj[v], k - 1)
                if rest is not None:
                    rest.append(v)
                    return rest
        return None

    full = (1 << m) - 1
    incumbent = need = 0  # the best set so far (bitset) and its size
    while (found := find(full, need + 1)) is not None:
        incumbent = sum(1 << v for v in found)
        for v in range(m):  # extend to a maximal set
            if not adj[v] & incumbent:
                incumbent |= 1 << v
        need = incumbent.bit_count()
    # fixing pass: ``need`` counts the edges still to take
    taken: list[int] = []
    avail = full
    for a in range(m):
        v = pos[a]
        if not need or not avail >> v & 1:
            continue
        avail ^= 1 << v
        if not incumbent >> v & 1:
            found = find(avail & ~adj[v], need - 1)
            if found is None:
                continue
            incumbent = sum(1 << u for u in found)
        taken.append(a)
        avail &= ~adj[v]
        need -= 1
    # ``find`` refers to itself, so the memo would outlive the call until the
    # next garbage collection
    cover.cache_clear()
    return taken, nodes


def max_lgg(ps: PointSet) -> ExtremalResult:
    """Exact maximum LGG edge count with a verifier-checked witness."""
    cg = build_conflict_graph(ps)
    best, nodes = max_independent_candidates(cg)
    witness = checked(Graph(ps, [cg.candidates[a] for a in best]))
    return ExtremalResult(len(best), witness, nodes)
