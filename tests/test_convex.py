"""Extremal constructions on convex and monotone point sets."""

import random

import numpy as np
import pytest

import lgg.convex
from conftest import monotonic_convex_set, strictly_monotonic_set
from lgg.convex import (
    RADIUS,
    ConstructionError,
    centrally_symmetric_ladder,
    circle_cycle,
    half_convex_fan,
    monotonic_path,
)
from lgg.geometry import ConvexKind, PointSet, classify
from lgg.graph import Graph, verify


class TestMonotonicPath:
    def test_path_shape(self):
        ps = PointSet.of([(0, 9), (2, 6), (5, 5), (9, 0)])
        cons = monotonic_path(ps)
        assert cons.graph.edges == ((0, 1), (1, 2), (2, 3))
        assert len(cons.graph.edges) == 3
        assert verify(cons.graph).valid
        assert cons.claimed_class.is_monotonic and cons.claimed_class.strict

    def test_terminal_degrees(self):
        rng = random.Random(31)
        for _ in range(50):
            ps = strictly_monotonic_set(rng, rng.randrange(3, 40))
            g = monotonic_path(ps).graph
            assert len(g.adjacency[0]) == len(g.adjacency[-1]) == 1

    def test_weakly_monotonic_rejected(self):
        # the right angle at (0, -1) makes the two path edges conflict
        with pytest.raises(ConstructionError):
            monotonic_path(PointSet.of([(0, 0), (0, -1), (1, -1)]))

    def test_non_monotonic_rejected(self):
        with pytest.raises(ConstructionError):
            monotonic_path(PointSet.of([(0, 0), (2, 1), (1, 2)]))

    def test_convex_monotonic_inputs(self):
        rng = random.Random(33)
        for _ in range(50):
            ps = monotonic_convex_set(rng, rng.randrange(3, 10))
            cons = monotonic_path(ps)
            assert len(cons.graph.edges) == len(ps) - 1

    def test_classifies_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            lgg.convex, "classify", lambda ps: calls.append(ps) or classify(ps)
        )
        ps = PointSet.of([(0, 9), (2, 6), (5, 5), (9, 0)])
        assert monotonic_path(ps).claimed_class == classify(ps)
        assert calls == [ps]


class TestFan:
    @pytest.mark.parametrize("n", [4, 5, 8, 17, 64])
    def test_edge_count_and_validity(self, n):
        cons = half_convex_fan(n)
        assert len(cons.graph.edges) == 2 * n - 3
        assert verify(cons.graph).valid

    def test_degrees(self):
        n = 10
        g = half_convex_fan(n).graph
        # arc ends 0 and n - 2, inner arc points, then the center n - 1
        assert np.diff(g.indptr).tolist() == [2] + [3] * (n - 3) + [2, n - 1]

    def test_classification(self):
        cons = half_convex_fan(12)
        assert cons.claimed_class.kind is ConvexKind.RIGHT_HALF_CONVEX

    def test_bad_inputs(self):
        # n = 3 degenerates to a right angle at the center
        with pytest.raises(ConstructionError):
            half_convex_fan(3)


class TestCycle:
    @pytest.mark.parametrize("n", [3, 4, 7, 32, 256])
    def test_edge_count_and_validity(self, n):
        cons = circle_cycle(n)
        assert len(cons.graph.edges) == n
        assert verify(cons.graph).valid
        assert all(len(nbrs) == 2 for nbrs in cons.graph.adjacency)

    def test_classification(self):
        assert (
            circle_cycle(9).claimed_class.kind is ConvexKind.ON_COMMON_CIRCLE
        )
        # even cycles are additionally centrally symmetric, which wins
        assert (
            circle_cycle(8).claimed_class.kind
            is ConvexKind.CENTRALLY_SYMMETRIC_CONVEX
        )

    def test_bad_inputs(self):
        with pytest.raises(ConstructionError):
            circle_cycle(2)


@pytest.mark.parametrize("build", [half_convex_fan, circle_cycle])
def test_radius_bounds(build):
    for n in (4, 64, 1000):
        cons = build(n)
        ps = cons.points
        # the limits of real coordinates; a power of two scales points exactly
        for scale in (2.0**256 / RADIUS, 2.0**-256 / RADIUS):
            scaled = PointSet(ps.xs * scale, ps.ys * scale, ps.eps)
            assert verify(Graph(scaled, cons.graph.edge_array)).valid
            assert classify(scaled) == cons.claimed_class


class TestLadder:
    @pytest.mark.parametrize("n", [12, 16, 20, 40, 64])
    def test_edge_count_and_validity(self, n):
        cons = centrally_symmetric_ladder(n)
        assert len(cons.points) == n  # two columns of n/2 points
        assert len(cons.graph.edges) >= 2 * n - 8
        assert verify(cons.graph).valid

    def test_classification(self):
        cons = centrally_symmetric_ladder(16)
        assert (
            cons.claimed_class.kind is ConvexKind.CENTRALLY_SYMMETRIC_CONVEX
        )

    def test_reflection_symmetry(self):
        cons = centrally_symmetric_ladder(24)
        pts = list(zip(cons.points.xs.tolist(), cons.points.ys.tolist()))
        # symmetric about the centroid
        n = len(pts)
        cx2 = sum(x for x, _ in pts) * 2 // n
        cy2 = sum(y for _, y in pts) * 2 // n
        have = set(pts)
        assert all((cx2 - x, cy2 - y) in have for x, y in pts)

    def test_bad_inputs(self):
        with pytest.raises(ConstructionError):
            centrally_symmetric_ladder(10)
        with pytest.raises(ConstructionError):
            centrally_symmetric_ladder(14)
