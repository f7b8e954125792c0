"""Exact maximum locally Gabriel graphs on small point sets.

Candidate edges are all C(n, 2) point pairs; two candidates are adjacent
in the conflict graph when they share an endpoint and conflict.  Valid
edge sets are exactly the independent sets of this graph, so the maximum
LGG is a maximum independent set, found here by branch and bound with a
greedy clique-cover upper bound.  Adjacency is kept in bitsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .geometry import PointSet, edges_conflict
from .graph import Graph, candidate_edges, checked

MAX_POINTS = 14


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

    def conflicts(self, a: int, b: int) -> bool:
        return bool(self.adjacency[a] >> b & 1)


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
    cands = candidate_edges(n)
    index = {e: a for a, e in enumerate(cands)}
    adj = [0] * len(cands)
    # only candidates sharing an endpoint s can conflict
    for s in range(n):
        for q, r in combinations([t for t in range(n) if t != s], 2):
            if edges_conflict(ps[s], ps[q], ps[r]):
                a, b = index[min(s, q), max(s, q)], index[min(s, r), max(s, r)]
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    return ConflictGraph(ps, tuple(cands), tuple(adj))


def _clique_cover_bound(cg: ConflictGraph, avail: int) -> int:
    """Number of cliques in a greedy cover of ``avail``; bounds the MIS size."""
    adj = cg.adjacency
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


def max_independent_candidates(cg: ConflictGraph) -> tuple[list[int], int]:
    """Lexicographically least maximum independent set of candidates.

    Depth-first search branches on the lowest remaining candidate index,
    include before exclude, keeping the first set of each new best size;
    that makes the witness the lexicographically least maximum set.
    """
    adj = cg.adjacency
    best: list[int] = []
    chosen: list[int] = []
    nodes = 0

    def dfs(avail: int) -> None:
        nonlocal best, nodes
        nodes += 1
        if not avail:
            if len(chosen) > len(best):
                best = chosen.copy()
            return
        if len(chosen) + _clique_cover_bound(cg, avail) <= len(best):
            return
        v = (avail & -avail).bit_length() - 1
        chosen.append(v)
        dfs(avail & ~(1 << v) & ~adj[v])
        chosen.pop()
        dfs(avail & ~(1 << v))

    dfs((1 << cg.m) - 1)
    return best, nodes


def max_lgg(ps: PointSet) -> ExtremalResult:
    """Exact maximum LGG edge count with a verifier-checked witness."""
    cg = build_conflict_graph(ps)
    best, nodes = max_independent_candidates(cg)
    witness = checked(ps, [cg.candidates[a] for a in best])
    return ExtremalResult(len(best), witness, nodes)
