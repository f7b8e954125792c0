"""Acceptance gate: one test per release criterion.

Each test prints a single ``criterion N (...): PASS`` or ``FAIL`` line
(visible with ``pytest -s`` or on failure) and enforces the stated
runtime budgets.
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np

from conftest import (
    centrally_symmetric_convex_set,
    monotonic_convex_set,
    strictly_monotonic_set,
)
from lgg.cli import ScalingSample, fit_exponent
from lgg.convex import (
    centrally_symmetric_ladder,
    circle_cycle,
    half_convex_fan,
    monotonic_path,
)
from lgg.extremal import max_lgg
from lgg.geometry import Point, PointSet
from lgg.graph import Graph, random_maximal_lgg, verify
from lgg.grid import GridParams, Mode, build, h_from_eq1
from lgg.independence import (
    independent_set,
    longest_monotone_subsequence,
    neighborhood_coloring,
)
from reference import edges_conflict, feasibility_gap, in_closed_disk, lis_dp


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    print(f"{label}: PASS")


def test_criterion_1_predicate_equivalence():
    with criterion("criterion 1 (predicate equivalence)"):
        start = time.monotonic()
        rng = np.random.default_rng(20260823)
        lim = 2**15
        need = 10**5
        coords = rng.integers(-lim, lim + 1, size=(int(need * 1.1), 6))
        distinct = (
            ((coords[:, 0] != coords[:, 2]) | (coords[:, 1] != coords[:, 3]))
            & ((coords[:, 0] != coords[:, 4]) | (coords[:, 1] != coords[:, 5]))
            & ((coords[:, 2] != coords[:, 4]) | (coords[:, 3] != coords[:, 5]))
        )
        coords = coords[distinct][:need]
        assert len(coords) == need
        px, py, qx, qy, rx, ry = (coords[:, k].astype(np.int64) for k in range(6))
        s1 = (px - rx) * (qx - rx) + (py - ry) * (qy - ry)  # r vs disk d_pq
        s2 = (px - qx) * (rx - qx) + (py - qy) * (ry - qy)  # q vs disk d_pr
        vec_conflict = (s1 <= 0) | (s2 <= 0)

        mismatches = 0
        for i in range(need):
            p = Point(int(px[i]), int(py[i]))
            q = Point(int(qx[i]), int(qy[i]))
            r = Point(int(rx[i]), int(ry[i]))
            got = edges_conflict(p, q, r)
            want = in_closed_disk(p, q, r) or in_closed_disk(p, r, q)
            if got != want or got != bool(vec_conflict[i]):
                mismatches += 1
        assert mismatches == 0

        # floating-point angle computation agrees away from the right angle
        def angles(ax, ay, bx, by, vx, vy):
            ux, uy = ax - vx, ay - vy
            wx, wy = bx - vx, by - vy
            cos = (ux * wx + uy * wy) / (
                np.hypot(ux, uy) * np.hypot(wx, wy)
            )
            return np.arccos(np.clip(cos, -1.0, 1.0))

        ang_q = angles(
            px.astype(float), py.astype(float), rx.astype(float),
            ry.astype(float), qx.astype(float), qy.astype(float),
        )
        ang_r = angles(
            px.astype(float), py.astype(float), qx.astype(float),
            qy.astype(float), rx.astype(float), ry.astype(float),
        )
        margin = np.minimum(
            np.abs(ang_q - math.pi / 2), np.abs(ang_r - math.pi / 2)
        )
        away = margin > 0.01
        float_conflict = (ang_q > math.pi / 2) | (ang_r > math.pi / 2)
        assert np.array_equal(vec_conflict[away], float_conflict[away])

        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_grid_validity_and_slope():
    with criterion("criterion 2 (grid construction validity)"):
        slopes = {}
        for mode in Mode:
            samples = []
            for g in (30, 90, 150):
                start = time.monotonic()
                graph, stats = build(GridParams(g=g, mode=mode))
                elapsed = time.monotonic() - start
                assert elapsed < 60.0, f"g={g} {mode} took {elapsed:.2f}s"
                assert graph.n == g * g
                # each center point gains at least one Q1 neighbor
                assert stats.q1_count >= 1
                assert stats.total_edges >= (2 * g // 3 - g // 3) ** 2
                samples.append(ScalingSample(graph.n, stats.total_edges))
            slopes[mode.value] = fit_exponent(samples).slope
        # recorded for the report, no numeric target
        print(
            "  measured log-log slopes: "
            + ", ".join(f"{m}={s:.4f}" for m, s in slopes.items())
        )


def test_criterion_3_exact_extremal_bounds():
    with criterion("criterion 3 (exact extremal bounds)"):
        rng = random.Random(303)

        start = time.monotonic()
        for n in range(3, 17):
            ps = monotonic_convex_set(rng, n)
            assert max_lgg(ps).max_edges == n - 1
        assert time.monotonic() - start < 30.0

        start = time.monotonic()
        for n in range(4, 17):
            ps = half_convex_fan(n).points
            assert max_lgg(ps).max_edges == 2 * n - 3
        assert time.monotonic() - start < 30.0

        start = time.monotonic()
        for n in range(4, 17):
            ps = circle_cycle(n).points
            assert max_lgg(ps).max_edges == n
        assert time.monotonic() - start < 30.0

        start = time.monotonic()
        for n in range(4, 17, 2):
            ps = centrally_symmetric_convex_set(rng, n)
            assert max_lgg(ps).max_edges <= 2 * n - 3
        assert time.monotonic() - start < 30.0


def test_criterion_4_constructions_achieve_bounds():
    with criterion("criterion 4 (constructions achieve the bounds)"):
        for n in range(5, 65):
            cons = half_convex_fan(n)
            assert len(cons.graph.edges) == 2 * n - 3
            _assert_margin(cons.graph)
        for n in range(4, 257):
            cons = circle_cycle(n)
            assert len(cons.graph.edges) == n
            _assert_margin(cons.graph)
        rng = random.Random(404)
        for _ in range(1000):
            ps = strictly_monotonic_set(rng, rng.randrange(2, 30))
            cons = monotonic_path(ps)
            assert len(cons.graph.edges) == len(ps) - 1
            assert verify(cons.graph).valid
        for n in range(12, 65, 4):
            cons = centrally_symmetric_ladder(n)
            assert len(cons.graph.edges) >= 2 * n - 8
            assert verify(cons.graph).valid


def _assert_margin(graph):
    """Real-mode constructions stay valid with a 10x larger tolerance."""
    ps = graph.points
    pts = PointSet(ps.xs, ps.ys, ps.eps * 10.0)
    assert verify(Graph(pts, graph.edges)).valid


def test_criterion_5_independent_sets():
    with criterion("criterion 5 (independent sets)"):
        start = time.monotonic()
        rng = random.Random(505)
        raw = set()
        while len(raw) < 1024:
            raw.add((rng.randrange(0, 2**20), rng.randrange(0, 2**20)))
        ps = PointSet.of(sorted(raw))
        target = math.ceil(math.ceil(math.sqrt(1024)) / 2)
        assert target == 16
        for seed in range(100):
            g = random_maximal_lgg(ps, seed)
            res = independent_set(g)
            assert len(res.vertices) >= 16
            vs = res.vertices
            assert all(not (i in vs and j in vs) for i, j in g.edges)
            for u in range(g.n):
                colors = neighborhood_coloring(g, u)
                assert max(colors.values()) <= 3

        for n in range(1, 201):
            qs = set()
            while len(qs) < n:
                qs.add((rng.randrange(10**6), rng.randrange(10**6)))
            sub = PointSet.of(sorted(qs))
            assert len(longest_monotone_subsequence(sub).indices) == lis_dp(sub)

        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_6_terminal_degree():
    with criterion("criterion 6 (terminal-degree lemma)"):
        rng = random.Random(606)
        failures = 0
        for seed in range(1000):
            ps = strictly_monotonic_set(rng, 50)
            g = random_maximal_lgg(ps, seed)
            if g.degree(0) > 1 or g.degree(49) > 1:
                failures += 1
        assert failures == 0


def test_criterion_7_analysis_formulas():
    with criterion("criterion 7 (analysis formulas)"):
        rng = random.Random(707)
        for _ in range(10**4):
            x = rng.randrange(2, 10**6)
            d = rng.randrange(1, x)
            tan = rng.uniform(0.0, 1.0)
            h = h_from_eq1(x, tan, d)
            assert abs(h * h + x * tan * h - d * (x - d)) < 1e-9 * x * x

        thetas = np.linspace(1.74e-3, math.pi / 4, 40)
        for x in np.geomspace(100, 10**6, 60):
            x = int(round(x))
            d = math.ceil(1.01 * math.sqrt(x))
            for theta in thetas:
                assert feasibility_gap(x, float(theta), d) > 1.0, (x, theta)
