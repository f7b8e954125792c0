"""Grid construction: step formulas, the walk, full builds and the certificate."""

import math
import random

import numpy as np
import pytest

import lgg.grid
from lgg.cli import main
from lgg.graph import InvariantViolation, verify
from lgg.grid import (
    MAX_SIDE,
    GridBuildStats,
    GridParams,
    Mode,
    _certify,
    build,
    certify,
    first_neighbor,
    h_from_eq1,
    neighbors_q1,
    next_neighbor,
)
from reference import box_greedy_step, feasibility_gap, feasible, signed_walk_conflict


class TestParams:
    def test_defaults(self):
        p = GridParams(g=30)
        assert p.s == 10 and p.mode is Mode.GREEDY_FEASIBLE
        assert p.theta0 == pytest.approx(1.74e-3) and p.c1 == pytest.approx(1.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridParams(g=8)
        # s is always floor(g / 3); theta0 and c1 are constants
        for knob in ("s", "theta0", "c1"):
            with pytest.raises(TypeError):
                GridParams(g=30, **{knob: 2})

    def test_side_keeps_edge_keys_in_int64(self):
        # build's edge keys i * n + j stay below n**2 = g**4 < 2**63
        assert MAX_SIDE**4 < 2**63 <= (MAX_SIDE + 1) ** 4
        assert GridParams(g=MAX_SIDE).g == MAX_SIDE  # no allocation here
        for g in (MAX_SIDE + 1, 3_000_000_000):
            with pytest.raises(ValueError, match=f"at most {MAX_SIDE}"):
                GridParams(g=g)


    def test_side_must_be_an_integer(self):
        # a float side once passed here and failed far off, in build
        for g in (30.0, 30.5, "30"):
            with pytest.raises(ValueError, match=f"must be an integer, got {g!r}"):
                GridParams(g=g)
        p = GridParams(g=np.int64(30))
        assert type(p.g) is int
        assert build(p)[0] == build(GridParams(g=30))[0]


class TestStepFormulas:
    def test_h_example(self):
        # x=100, tan(theta)=0.01, d=11: h = (sqrt(1 + 4*11*89) - 1) / 2
        h = h_from_eq1(100, 0.01, 11)
        assert h == pytest.approx((math.sqrt(1.0 + 4 * 11 * 89) - 1.0) / 2.0)
        assert h == pytest.approx(30.7929, abs=1e-4)

    def test_h_residuals_random_sweep(self):
        rng = random.Random(2)
        for _ in range(2000):
            x = rng.randrange(2, 10**6)
            d = rng.randrange(1, x)
            tan = rng.uniform(0.0, 1.0)
            h = h_from_eq1(x, tan, d)
            residual = h * h + x * tan * h - d * (x - d)
            assert h > 0.0
            assert abs(residual) < 1e-9 * x * x

    def test_h_domain(self):
        with pytest.raises(ValueError):
            h_from_eq1(10, 0.5, 10)
        with pytest.raises(ValueError):
            h_from_eq1(10, 0.5, 0)
        with pytest.raises(ValueError):
            h_from_eq1(10, -0.5, 5)

    def test_gap_example(self):
        # d=1, x=4, theta=pi/4: gap = 1 - (sqrt(28) - 4) / 2
        gap = feasibility_gap(4, math.pi / 4, 1)
        assert gap == pytest.approx(1.0 - (math.sqrt(28.0) - 4.0) / 2.0)
        assert gap == pytest.approx(0.35425, abs=1e-5)

    def test_gap_domain(self):
        with pytest.raises(ValueError):
            feasibility_gap(100, 1.0, 10)

    def test_gap_grows_with_cot_theta(self):
        assert feasibility_gap(10**4, 1.74e-3, 102) > feasibility_gap(
            10**4, math.pi / 4, 102
        )


class TestNextNeighbor:
    def test_analysis_closed_form_step(self):
        # x=100: d = ceil(1.01 * 10) = 11, h about 30.79, so r = (89, 32)
        r = next_neighbor((100, 1), GridParams(g=9, mode=Mode.ANALYSIS_GUIDED))
        assert r == (89, 32)

    def test_modes_stop_at_small_offsets(self):
        for mode in Mode:
            assert next_neighbor((2, 2), GridParams(g=9, mode=mode)) is None

    def test_greedy_matches_exhaustive_search(self):
        rng = random.Random(21)
        params = GridParams(g=9, mode=Mode.GREEDY_FEASIBLE)
        for _ in range(200):
            qx = rng.randrange(2, 40)
            qy = rng.randrange(1, qx + 1)
            got = next_neighbor((qx, qy), params)
            # exhaustive scan over a window far larger than the search box
            span = 2 * (qx + qy) + 6
            best = None
            for rx in range(qx - span, qx + span + 1):
                for ry in range(qy - span, qy + span + 1):
                    if feasible(qx, qy, rx, ry):
                        d2 = (rx - qx) ** 2 + (ry - qy) ** 2
                        cand = (d2, ry, rx)
                        if best is None or cand < best:
                            best = cand
            if best is None:
                assert got is None
            else:
                assert got == (best[2], best[1])

    def test_successor_is_feasible(self):
        r = next_neighbor((50, 3), GridParams(g=9))
        assert r is not None
        assert feasible(50, 3, *r)

    def test_greedy_matches_box_reference_on_small_offsets(self):
        params = GridParams(g=9)
        for qx in range(1, 101):
            for qy in range(qx + 1):
                assert next_neighbor((qx, qy), params) == box_greedy_step((qx, qy))

    @pytest.mark.parametrize("g", [300, 600, 1000, 3000])
    def test_greedy_walk_matches_box_reference(self, g):
        walk = neighbors_q1(GridParams(g=g))
        assert [box_greedy_step(q) for q in walk] == walk[1:] + [None]

    @pytest.mark.parametrize("c1", [1.01, 1.3, 2.0])
    def test_analysis_step_matches_feasibility_reference(self, monkeypatch, c1):
        # other values of the constant c1 vary the step, and so the column tested
        monkeypatch.setattr(GridParams, "c1", c1)
        params = GridParams(g=9, mode=Mode.ANALYSIS_GUIDED)
        steps = 0
        for qx in range(2, 151):
            for qy in range(1, qx + 1):
                want = None
                if c1 * math.sqrt(qx) <= qx - 1:
                    d = math.ceil(c1 * math.sqrt(qx))
                    r = qx - d, qy + math.floor(h_from_eq1(qx, qy / qx, d) + 1.0)
                    want = r if feasible(qx, qy, *r) else None
                    steps += want is not None
                assert next_neighbor((qx, qy), params) == want, (qx, qy)
        assert steps > 0


class TestWalk:
    def test_first_neighbor(self):
        params = GridParams(g=90)  # s = 30
        assert first_neighbor(params) == (30, 1)  # ceil(30 * tan(1.74e-3)) = 1

    def test_walk_angles_strictly_increase(self):
        for mode in Mode:
            seq = neighbors_q1(GridParams(g=150, mode=mode))
            assert len(seq) >= 2
            angles = [math.atan2(y, x) for x, y in seq]
            assert all(a < b for a, b in zip(angles, angles[1:]))
            assert all(0 < a <= math.pi / 4 + 1e-12 for a in angles)

    def test_walk_x_offsets_strictly_decrease(self):
        for mode in Mode:
            seq = neighbors_q1(GridParams(g=300, mode=mode))
            xs = [x for x, _ in seq]
            assert all(a > b for a, b in zip(xs, xs[1:]))

    def test_step_states_satisfy_eq1(self):
        walk = neighbors_q1(GridParams(g=300))
        assert walk[0] == first_neighbor(GridParams(g=300)) and len(walk) >= 2
        for (x, y), (next_x, _) in zip(walk, walk[1:]):
            d = x - next_x
            h = h_from_eq1(x, y / x, d)
            residual = h**2 + x * (y / x) * h - d * (x - d)
            assert abs(residual) < 1e-9 * x**2
            assert d * x / y > h  # tangent leaves room above the disk

    @pytest.mark.parametrize("mode", list(Mode))
    def test_walk_is_a_strictly_convex_chain(self, mode):
        # every turn is a strict left turn, so |W| = O(s^(2/3)) (Jarnik 1926)
        for g in [*range(9, 151), 300, 3000, 30000, MAX_SIDE]:
            walk = neighbors_q1(GridParams(g=g, mode=mode))
            for (ax, ay), (bx, by), (cx, cy) in zip(walk, walk[1:], walk[2:]):
                assert (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0, (g, walk)


def _reference_build(params):
    """Per-center neighbor coordinates: the walk's Q1 offsets and their reflection."""
    g, s = params.g, params.s
    lo, hi = g // 3, (2 * g) // 3
    walk = neighbors_q1(params)
    edges = set()
    for px in range(lo, hi):
        for py in range(lo, hi):
            q1 = [(px + x, py + y) for x, y in walk]
            q3 = [(px - x, py - y) for x, y in walk]
            for qx, qy in q1 + q3:
                assert 1 <= abs(qx - px) <= s and 1 <= abs(qy - py) <= s
                assert 0 <= qx < g and 0 <= qy < g
                a, b = px * g + py, qx * g + qy
                edges.add((min(a, b), max(a, b)))
    return tuple(sorted(edges)), GridBuildStats(len(walk), len(edges))


class TestBuild:
    @pytest.mark.parametrize("mode", list(Mode))
    def test_matches_per_center_reference(self, mode):
        for g in [*range(9, 41), 60, 150]:
            params = GridParams(g=g, mode=mode)
            graph, stats = build(params)
            assert (graph.edges, stats) == _reference_build(params)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_small_builds_are_valid(self, mode):
        for g in (9, 30):
            graph, stats = build(GridParams(g=g, mode=mode))
            assert graph.n == g * g
            assert stats.total_edges == len(graph.edges)
            # every center point has at least one first-quadrant neighbor
            assert stats.q1_count >= 1
            assert stats.total_edges >= (2 * g // 3 - g // 3) ** 2

    def test_edge_symmetry_under_point_reflection(self):
        params = GridParams(g=30)
        graph, _ = build(params)
        g = params.g
        coords = {(p.x, p.y) for p in graph.points}
        assert coords == {(x, y) for x in range(g) for y in range(g)}
        edge_set = {
            ((graph.points[i].x, graph.points[i].y),
             (graph.points[j].x, graph.points[j].y))
            for i, j in graph.edges
        }
        for (ax, ay), (bx, by) in edge_set:
            ra = (g - 1 - ax, g - 1 - ay)
            rb = (g - 1 - bx, g - 1 - by)
            assert (rb, ra) in edge_set or (ra, rb) in edge_set

    def test_verifier_confirms_build(self):
        graph, _ = build(GridParams(g=15, mode=Mode.ANALYSIS_GUIDED))
        assert verify(graph).valid

    def test_greedy_densest(self):
        _, greedy = build(GridParams(g=30))
        _, analysis = build(GridParams(g=30, mode=Mode.ANALYSIS_GUIDED))
        assert greedy.total_edges >= analysis.total_edges


def _with_offset(monkeypatch, extra):
    """Make every walk end with the offset ``extra(walk)``."""
    walk_of = lgg.grid.neighbors_q1

    def walk(params):
        w = walk_of(params)
        return w + [extra(w)]

    monkeypatch.setattr(lgg.grid, "neighbors_q1", walk)


class TestCertify:
    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("g, theta0, c1", [
        (30, 1.74e-3, 1.01), (90, 1.74e-3, 1.01), (150, 1.74e-3, 1.01),
        (300, 1.74e-3, 1.01), (150, 0.3, 1.7),
    ])
    def test_agrees_with_build_and_verify(self, monkeypatch, g, theta0, c1, mode):
        # other values of the constants give walks the defaults do not
        monkeypatch.setattr(GridParams, "theta0", theta0)
        monkeypatch.setattr(GridParams, "c1", c1)
        params = GridParams(g=g, mode=mode)
        graph, stats = build(params)
        assert certify(params) == stats
        assert stats.total_edges == len(graph.edge_array)
        assert verify(graph).valid

    def test_conflicting_offset_raises(self, monkeypatch):
        # (x, y + 1) after (x, y): the disk on 0 (x, y + 1) holds (x, y)
        _with_offset(monkeypatch, lambda w: (w[0][0], w[0][1] + 1))
        params = GridParams(g=30)
        with pytest.raises(InvariantViolation, match="conflict at the center"):
            certify(params)
        with pytest.raises(InvariantViolation, match="conflict at the center"):
            build(params)

    def test_pairs_of_w_decide_all_of_plus_minus_w(self):
        rng = random.Random(20)
        passed = failed = 0
        for k in range(400):
            s = rng.randint(3, 40)
            box = [(x, y) for x in range(1, s + 1) for y in range(1, x + 1)]
            if k % 2:  # a subset of a certified walk is certified
                walk = neighbors_q1(GridParams(g=3 * s, mode=rng.choice(list(Mode))))
                walk = rng.sample(walk, rng.randint(1, len(walk)))
            else:
                walk = rng.sample(box, rng.randint(1, min(8, len(box))))
            if (pair := signed_walk_conflict(walk)) is None:
                assert _certify(3 * s, walk).q1_count == len(walk)
                passed += 1
            else:
                a, b = pair
                with pytest.raises(InvariantViolation) as err:
                    _certify(3 * s, walk)
                want = f"grid walk offsets {a} and {b} conflict at the center"
                assert str(err.value) == want
                failed += 1
        assert passed > 100 and failed > 100

    def test_offset_outside_box_raises(self, monkeypatch):
        # x = s + 1 would reach past the grid from the last center
        _with_offset(monkeypatch, lambda w: (11, 1))
        with pytest.raises(InvariantViolation, match=r"outside 1 <= y <= x <= 10"):
            build(GridParams(g=30))

    def test_bad_walk_exits_1(self, monkeypatch, capsys, tmp_path):
        _with_offset(monkeypatch, lambda w: (w[0][0], w[0][1] + 1))
        out = tmp_path / "grid.json"
        assert main(["construct", "grid", "--side", "30", "-o", str(out)]) == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
