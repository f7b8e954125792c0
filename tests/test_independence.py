"""Monotone subsequences, independent sets, and neighborhood coloring."""

import math
import random

import pytest

from conftest import random_int_points, real_points, strictly_monotonic_set
from lgg.convex import circle_cycle, half_convex_fan
from lgg.geometry import PointSet
from lgg.graph import Graph, random_maximal_lgg
from lgg.grid import GridParams, build
from lgg.independence import (
    Direction,
    InvariantViolation,
    _plain_greedy,
    independent_set,
    longest_monotone_subsequence,
    monotone_greedy_is,
    neighborhood_coloring,
)
from reference import lis_dp, min_degree_greedy_direct, neighborhood_coloring_direct


def _is_independent(g, vertices):
    vs = set(vertices)
    return all(not (i in vs and j in vs) for i, j in g.edges)


def _is_monotone(ps, seq):
    idx = seq.indices
    xs = [ps[i].x for i in idx]
    ys = [ps[i].y for i in idx]
    if any(a > b for a, b in zip(xs, xs[1:])):
        return False
    if seq.direction is Direction.NON_DECREASING:
        return all(a <= b for a, b in zip(ys, ys[1:]))
    return all(a >= b for a, b in zip(ys, ys[1:]))


class TestLongestMonotone:
    def test_matches_quadratic_dp(self):
        rng = random.Random(71)
        for _ in range(60):
            n = rng.randrange(1, 201)
            ps = random_int_points(rng, n, 10**3)
            seq = longest_monotone_subsequence(ps)
            assert _is_monotone(ps, seq)
            assert len(seq.indices) == lis_dp(ps)

    def test_length_at_least_sqrt_n(self):
        rng = random.Random(73)
        for _ in range(50):
            n = rng.randrange(1, 400)
            ps = random_int_points(rng, n, 10**6)
            seq = longest_monotone_subsequence(ps)
            assert len(seq.indices) >= math.ceil(math.sqrt(n))

    def test_fully_monotone_input(self):
        rng = random.Random(75)
        ps = strictly_monotonic_set(rng, 40)
        seq = longest_monotone_subsequence(ps)
        assert len(seq.indices) == 40

    def test_tie_goes_to_non_decreasing(self):
        # both directions have length 2: (0,0),(1,1) up and (1,1),(2,0) down
        ps = PointSet.of([(0, 0), (1, 1), (2, 0)])
        seq = longest_monotone_subsequence(ps)
        assert seq.direction is Direction.NON_DECREASING
        assert len(seq.indices) == 2
        mirrored = longest_monotone_subsequence(PointSet.of([(0, 0), (1, -1), (2, 0)]))
        assert mirrored.direction is Direction.NON_DECREASING


class TestMonotoneGreedy:
    def test_half_of_sequence(self):
        rng = random.Random(77)
        for seed in range(30):
            ps = random_int_points(rng, 64, 10**6)
            g = random_maximal_lgg(ps, seed)
            seq = longest_monotone_subsequence(ps)
            res = monotone_greedy_is(g, seq)
            assert _is_independent(g, res.vertices)
            assert 2 * len(res.vertices) >= len(seq.indices)

    def test_rejects_non_lgg(self):
        # path plus chords: vertex 0 keeps degree 3 among a monotone run
        ps = PointSet.of([(0, 0), (1, 0), (2, 0), (3, 0)])
        g = Graph(ps, ((0, 1), (0, 2), (0, 3)))
        seq = longest_monotone_subsequence(ps)
        with pytest.raises(InvariantViolation):
            monotone_greedy_is(g, seq)


class TestIndependentSet:
    def test_guarantee_met_on_maximal_graphs(self):
        rng = random.Random(79)
        for seed in range(25):
            n = rng.randrange(16, 200)
            ps = random_int_points(rng, n, 10**6)
            g = random_maximal_lgg(ps, seed)
            res = independent_set(g)
            assert _is_independent(g, res.vertices)
            assert res.guarantee == math.ceil(math.ceil(math.sqrt(n)) / 2)
            assert len(res.vertices) >= res.guarantee

    def test_empty_graph_returns_everything(self):
        ps = PointSet.of([(i, i * i % 97) for i in range(10)])
        g = Graph(ps, ())
        res = independent_set(g)
        assert res.vertices == frozenset(range(10))


class TestNeighborhoodColoring:
    def test_proper_and_at_most_four_colors(self):
        rng = random.Random(81)
        for seed in range(10):
            ps = random_int_points(rng, 100, 10**6)
            g = random_maximal_lgg(ps, seed)
            for u in range(g.n):
                colors = neighborhood_coloring(g, u)
                assert set(colors) == {u} | set(g.adjacency[u])
                assert max(colors.values()) <= 3
                members = set(colors)
                for v in colors:
                    for w in g.adjacency[v]:
                        if w in members:
                            assert colors[v] != colors[w]

    def test_pinned_colors_and_key_order(self):
        # K4 on {0, 1, 2, 3}, u = 2 with a fifth neighbor 5; vertex 6 is a
        # neighbor of 0 outside N(2) and does not count
        ps = PointSet.of([(0, 0), (4, 0), (2, 3), (2, 1), (9, 9), (-5, 2), (-1, -6)])
        g = Graph(ps, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (2, 5), (0, 6)))
        colors = neighborhood_coloring(g, 2)
        assert list(colors.items()) == [(0, 0), (1, 1), (2, 2), (3, 3), (5, 0)]
        assert list(neighborhood_coloring(g, 0).items()) == [(0, 0), (1, 1), (2, 2), (3, 3), (6, 1)]

    @pytest.mark.parametrize("u", [-1, -6, 6, 10**9])
    def test_vertex_out_of_range_rejected(self, u):
        # -1 would colour N(5) under the key -1, and 6 would raise IndexError
        g = circle_cycle(6).graph
        with pytest.raises(ValueError, match=rf"^vertex {u} is out of range \[0, n = 6\)$"):
            neighborhood_coloring(g, u)

    def test_rejects_dense_neighborhood(self):
        # K5 on points in convex position is far from locally Gabriel
        ps = PointSet.of([(0, 0), (10, 0), (13, 7), (5, 12), (-3, 7)])
        edges = tuple((i, j) for i in range(5) for j in range(i + 1, 5))
        g = Graph(ps, edges)
        with pytest.raises(InvariantViolation):
            neighborhood_coloring(g, 0)


def _parity_graphs():
    """Maximal LGGs on integer and real points, the g = 30 grid, the two
    convex constructions, and dense graphs that are far from LGGs."""
    rng = random.Random(83)
    for n in (2, 3, 5, 8, 13, 21, 40, 90, 300):
        yield random_maximal_lgg(random_int_points(rng, n, 10**6), n)
        yield random_maximal_lgg(real_points(rng, n), n)
    yield build(GridParams(g=30))[0]
    yield half_convex_fan(40).graph
    yield circle_cycle(40).graph
    for seed in range(20):
        r = random.Random(seed)
        n = r.randrange(6, 25)
        p = r.uniform(0.2, 0.7)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if r.random() < p]
        yield Graph(random_int_points(r, n, 100), edges)


def _coloring_outcome(coloring, g, u):
    try:
        return list(coloring(g, u).items())
    except InvariantViolation as exc:
        return str(exc)


class TestReferenceParity:
    def test_matches_the_set_based_references(self):
        raised = 0
        for g in _parity_graphs():
            assert _plain_greedy(g) == min_degree_greedy_direct(g)
            for u in range(g.n):
                want = _coloring_outcome(neighborhood_coloring_direct, g, u)
                assert _coloring_outcome(neighborhood_coloring, g, u) == want
                raised += isinstance(want, str)
        # the dense graphs reach the induced-degree error
        assert raised > 0
