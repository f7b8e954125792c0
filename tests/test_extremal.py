"""Exact maximum LGG search against a naive exhaustive oracle."""

import gc
import itertools
import random
import tracemalloc

import pytest

from conftest import monotonic_convex_set, random_int_points, real_points
from lgg.convex import circle_cycle
from lgg.extremal import (
    MAX_POINTS,
    SizeError,
    build_conflict_graph,
    max_independent_candidates,
    max_lgg,
)
from lgg.geometry import PointSet
from lgg.graph import Graph, verify
from reference import edges_conflict, include_first_max


def _naive_max(ps):
    """Largest valid edge subset by exhaustive enumeration (lex-least witness)."""
    cands = list(itertools.combinations(range(len(ps)), 2))
    for r in range(len(cands), -1, -1):
        for combo in itertools.combinations(range(len(cands)), r):
            edges = tuple(cands[i] for i in combo)
            if verify(Graph(ps, edges)).valid:
                return len(combo), combo
    return 0, ()


def _conflicts(cg, a, b):
    return bool(cg.adjacency[a] >> b & 1)


def _parity_sets():
    """Seeded point sets with n = 3..11 of four kinds."""
    rng = random.Random(71)
    lattice = [(x, y) for x in range(6) for y in range(6)]
    dense = [(x, y) for x in range(3) for y in range(3)]
    for trial in range(300):
        kind = trial % 3
        if kind == 0:
            yield PointSet.of(sorted(rng.sample(lattice, rng.randint(3, 11))))
        elif kind == 1:
            yield PointSet.of(sorted(rng.sample(dense, rng.randint(3, 9))))
        else:
            yield real_points(rng, rng.randint(3, 11))
    for n in range(3, 12):
        yield circle_cycle(n).points


class TestConflictGraph:
    def test_collinear_triple(self):
        ps = PointSet.of([(0, 0), (1, 0), (2, 0)])
        cg = build_conflict_graph(ps)
        assert cg.candidates == ((0, 1), (0, 2), (1, 2))
        # the long edge conflicts with both short edges; the short edges
        # only touch at vertex 1 with a straight angle, no conflict
        assert _conflicts(cg, 0, 1) and _conflicts(cg, 1, 2)
        assert not _conflicts(cg, 0, 2)

    def test_adjacency_is_symmetric(self):
        rng = random.Random(51)
        ps = random_int_points(rng, 8, 20)
        cg = build_conflict_graph(ps)
        for a in range(cg.m):
            for b in range(cg.m):
                assert _conflicts(cg, a, b) == _conflicts(cg, b, a)

    def test_matches_pairwise_predicate(self):
        rng = random.Random(53)
        # small integers, real points (eps 1e-9; on a lattice many tests
        # fall inside the band), and corners and near-corners at +-2**30,
        # where int64 dot products near their limit
        sets = [random_int_points(rng, 7, 15)]
        sets += [real_points(rng, rng.randint(5, 12)) for _ in range(4)]
        lattice = [(x * 0.1, y * 0.1) for x in range(5) for y in range(5)]
        sets += [PointSet.of(sorted(rng.sample(lattice, 10)), 1e-9) for _ in range(4)]
        lim = 2**30
        for _ in range(4):
            corners = {
                (sx * lim, sy * lim - d * sy) for sx in (-1, 1) for sy in (-1, 1)
                for d in (0, 1)
            }
            while len(corners) < 12:
                corners.add((rng.randint(-lim, lim), rng.randint(-lim, lim)))
            sets.append(PointSet.of(sorted(corners)))
        for ps in sets:
            cg = build_conflict_graph(ps)
            for a in range(cg.m):
                i, j = cg.candidates[a]
                for b in range(a + 1, cg.m):
                    k, l = cg.candidates[b]
                    shared = {i, j} & {k, l}
                    if not shared:
                        assert not _conflicts(cg, a, b)
                        continue
                    (p,) = shared
                    q = j if i == p else i
                    r = l if k == p else k
                    assert _conflicts(cg, a, b) == edges_conflict(ps[p], ps[q], ps[r])

    def test_size_limits(self):
        with pytest.raises(SizeError):
            build_conflict_graph(PointSet.of([(0, 0)]))
        rng = random.Random(55)
        with pytest.raises(SizeError):
            build_conflict_graph(random_int_points(rng, MAX_POINTS + 1, 10**4))


class TestMaxLgg:
    def test_matches_naive_oracle(self):
        rng = random.Random(61)
        for trial in range(12):
            n = rng.choice([3, 4, 5])
            ps = random_int_points(rng, n, 8)
            want, combo = _naive_max(ps)
            got = max_lgg(ps)
            assert got.max_edges == want
            assert verify(got.witness).valid

    def test_lexicographically_least_witness(self):
        rng = random.Random(63)
        for trial in range(8):
            ps = random_int_points(rng, 4, 6)
            _, combo = _naive_max(ps)
            got = max_lgg(ps)
            cands = list(itertools.combinations(range(len(ps)), 2))
            assert got.witness.edges == tuple(cands[i] for i in combo)

    def test_same_witness_as_reference_search(self):
        total = 0
        for ps in _parity_sets():
            cg = build_conflict_graph(ps)
            best, nodes = max_independent_candidates(cg)
            assert best == include_first_max(cg)
            total += nodes
        # the search tree itself: a change of bound or order moves this count
        assert total == 8131

    @pytest.mark.parametrize(
        "seed, max_edges, nodes", [(1, 25, 19403), (2, 26, 7796), (3, 27, 1009)]
    )
    def test_lattice_sets_at_size_cap(self, seed, max_edges, nodes):
        lattice = [(x, y) for x in range(16) for y in range(16)]
        ps = PointSet.of(sorted(random.Random(seed).sample(lattice, MAX_POINTS)))
        got = max_lgg(ps)
        assert (got.max_edges, got.nodes_explored) == (max_edges, nodes)
        assert len(got.witness.edges) == max_edges and verify(got.witness).valid

    def test_search_memo_freed_on_return(self):
        # the 14-point lattice set that the benchmark runs first; its search
        # covers thousands of star sets, which must not stay allocated while
        # no garbage collection runs
        lattice = [(x, y) for x in range(16) for y in range(16)]
        ps = PointSet.of(sorted(random.Random(14).sample(lattice, 14)))
        cg = build_conflict_graph(ps)
        gc.disable()
        tracemalloc.start()
        try:
            _, nodes = max_independent_candidates(cg)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert nodes == 3060
        assert kept < 64 * 1024

    def test_two_points(self):
        got = max_lgg(PointSet.of([(0, 0), (5, 5)]))
        assert got.max_edges == 1 and got.witness.edges == ((0, 1),)

    def test_collinear_points_maximum_is_matching(self):
        # only disjoint or straight-line-adjacent segments coexist
        ps = PointSet.of([(0, 0), (1, 0), (2, 0), (3, 0)])
        got = max_lgg(ps)
        assert got.max_edges == 3  # the path: consecutive segments never overlap

    def test_monotonic_convex_bound(self):
        rng = random.Random(67)
        for n in (3, 5, 7):
            ps = monotonic_convex_set(rng, n)
            assert max_lgg(ps).max_edges == n - 1

    def test_nodes_explored_positive(self):
        rng = random.Random(69)
        got = max_lgg(random_int_points(rng, 6, 30))
        assert got.nodes_explored >= 1
