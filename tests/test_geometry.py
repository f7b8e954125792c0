"""Predicates and point-set classification."""

import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import centrally_symmetric_convex_set, random_int_points
from lgg.convex import circle_cycle, half_convex_fan
from lgg.geometry import (
    BOUNDARY,
    INTERIOR,
    MAX_EXACT_COORD,
    MAX_REAL_COORD,
    MIN_REAL_COORD,
    ConvexClass,
    ConvexKind,
    CoordinateKindError,
    Point,
    PointSet,
    classify,
    conflict_free,
    conflict_kind,
    outside_disk,
)
from reference import conflict_label, disk_side, edges_conflict, in_closed_disk


def P(x, y):
    return Point(x, y)


class TestPoint:
    def test_exact_flag(self):
        assert Point(1, 2).is_exact
        assert not Point(1.0, 2.0, 1e-9).is_exact

    def test_mixed_kinds_rejected(self):
        with pytest.raises(CoordinateKindError):
            Point(1, 2.0)

    def test_magnitude_bound(self):
        Point(MAX_EXACT_COORD, -MAX_EXACT_COORD)
        with pytest.raises(ValueError):
            Point(MAX_EXACT_COORD + 1, 0)
        Point(MAX_REAL_COORD, -MAX_REAL_COORD, 1e-9)
        Point(MIN_REAL_COORD, -MIN_REAL_COORD, 1e-9)
        Point(0.0, -0.0, 1e-9)
        for x, y in ((2 * MAX_REAL_COORD, 0.0), (0.0, -1e300),
                     (MIN_REAL_COORD / 2, 1.0), (1.0, -5e-324)):
            with pytest.raises(ValueError, match="non-finite"):
                Point(x, y)

    def test_exact_points_carry_no_eps(self):
        with pytest.raises(ValueError):
            Point(1, 2, 1e-9)

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            Point(1.0, 2.0, -1e-9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            Point(bad, 1.0)
        with pytest.raises(ValueError):
            Point(1.0, bad)
        with pytest.raises(ValueError):
            Point(1.0, 2.0, bad)


class TestPointSet:
    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match=r"point 2 duplicates .* \(0, 0\)"):
            PointSet.of([(0, 0), (1, 1), (0, 0)])
        with pytest.raises(ValueError, match=r"point 3 duplicates"):
            PointSet.of([(5, 5), (1, 1), (2, 2), (1, 1), (5, 5)])

    def test_duplicates_match_loop_reference(self):
        # the first point equal to an earlier one, as a set lookup finds it
        rng = random.Random(3)
        for _ in range(300):
            vals = [0.0, -0.0, 1.0, 2.5] if rng.random() < 0.5 else [0, 1, 2, -1]
            coords = [(rng.choice(vals), rng.choice(vals))
                      for _ in range(rng.randrange(1, 8))]
            seen, first = set(), None
            for i, c in enumerate(coords):
                if c in seen and first is None:
                    first = i
                seen.add(c)
            if first is None:
                assert len(PointSet.of(coords)) == len(coords)
            else:
                with pytest.raises(ValueError, match=f"point {first} duplicates"):
                    PointSet.of(coords)

    def test_negative_zero_duplicates_zero(self):
        with pytest.raises(ValueError, match=r"point 2 duplicates .* \(-0.0, 0.0\)"):
            PointSet.of([(0.0, 0.0), (1.0, 0.0), (-0.0, 0.0)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            PointSet.of([])
        with pytest.raises(ValueError, match="nonempty"):
            PointSet(np.array([], np.int64), np.array([], np.int64))

    def test_mixed_kinds_rejected(self):
        with pytest.raises(CoordinateKindError):
            PointSet.of([(0, 0), (1.0, 1.0)])
        with pytest.raises(CoordinateKindError):
            PointSet(np.array([0, 1]), np.array([0.0, 1.0]))

    @pytest.mark.parametrize("dtype", [bool, object, np.int32, np.float32])
    def test_wrong_dtype_rejected(self, dtype):
        with pytest.raises(CoordinateKindError):
            PointSet(np.array([0, 1], dtype), np.array([1, 0], dtype))

    def test_bool_values_rejected(self):
        with pytest.raises(CoordinateKindError):
            PointSet.of([(True, False), (2, 3)])

    def test_magnitude_bound(self):
        lim = MAX_EXACT_COORD
        ps = PointSet.of([(lim, -lim), (-lim, lim), (0, 0)])
        assert ps.xs.tolist() == [lim, -lim, 0]
        for x, y in ((lim + 1, 0), (0, -lim - 1), (10**30, 0)):
            with pytest.raises(ValueError, match="point 1: "):
                PointSet.of([(0, 0), (x, y)])

    def test_first_non_pair_named(self):
        cases = (
            ([(0, 0), (1, 2, 3)], r"point 1: expected a pair, got \(1, 2, 3\)"),
            ([(0, 0), (1,)], r"point 1: expected a pair, got \(1,\)"),
            ([(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)], r"point 0: expected a pair"),
        )
        for coords, message in cases:
            with pytest.raises(ValueError, match=message):
                PointSet.of(coords)

    def test_non_finite_named(self):
        with pytest.raises(ValueError, match="point 1: non-finite"):
            PointSet.of([(0.0, 0.0), (math.nan, 1.0)])

    def test_eps_rules(self):
        assert PointSet.of([(0.0, 0.0), (1.0, 1.0)], 1e-6).eps == 1e-6
        with pytest.raises(ValueError, match="eps"):
            PointSet.of([(0, 0), (1, 1)], 1e-9)
        for eps in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="eps"):
                PointSet.of([(0.0, 0.0), (1.0, 1.0)], eps)

    def test_arrays_are_read_only_copies(self):
        xs, ys = np.array([0, 1]), np.array([1, 0])
        ps = PointSet(xs, ys)
        xs[0] = 7
        assert ps.xs.tolist() == [0, 1]
        with pytest.raises(ValueError):
            ps.xs[0] = 7

    def test_points_view(self):
        ps = PointSet.of([(0.5, 1.5), (2.0, 3.0)], 1e-9)
        assert ps[1] == Point(2.0, 3.0, 1e-9)
        assert list(ps) == [Point(0.5, 1.5, 1e-9), ps[1]]
        assert ps == PointSet.of([(0.5, 1.5), (2.0, 3.0)], 1e-9)
        assert ps != PointSet.of([(0.5, 1.5), (2.0, 3.0)], 1e-6)

    def test_shape_mismatch_rejected(self):
        shapes = r"1-D and of one length: \(2,\) and \(1,\)"
        with pytest.raises(ValueError, match=shapes):
            PointSet(np.array([1, 2]), np.array([1]))
        with pytest.raises(ValueError, match="1-D"):
            PointSet(np.array([[1, 2]]), np.array([[1, 2]]))


def _side(p, q, r):
    """+1, 0 or -1 for ``r`` outside, on or inside the disk on ``pq``, from
    ``outside_disk`` and its mirror."""
    ax, ay, bx, by = p.x - r.x, p.y - r.y, q.x - r.x, q.y - r.y
    eps = max(p.eps, q.eps, r.eps)
    if outside_disk(ax, ay, bx, by, eps):
        return 1
    return -1 if outside_disk(-ax, -ay, bx, by, eps) else 0


def _free(p, q, r):
    return conflict_free(p.x, p.y, q.x, q.y, r.x, r.y, max(p.eps, q.eps, r.eps))


def _real_triples(rng, count, scale):
    """Random real triples, a third of them right-angled up to rounding."""
    out = []
    while len(out) < count:
        p, q = [(rng.uniform(-scale, scale), rng.uniform(-scale, scale)) for _ in "pq"]
        if rng.random() < 1 / 3:  # r on the circle on pq: a boundary case
            cx, cy = (p[0] + q[0]) / 2, (p[1] + q[1]) / 2
            rad, t = math.dist(p, q) / 2, rng.uniform(0, 2 * math.pi)
            r = (cx + rad * math.cos(t), cy + rad * math.sin(t))
        else:
            r = (rng.uniform(-scale, scale), rng.uniform(-scale, scale))
        if len({p, q, r}) == 3:
            out.append([Point(*t, 1e-9) for t in (p, q, r)])
    return out


class TestDiskSide:
    def test_inside_boundary_outside(self):
        p, q = P(0, 0), P(4, 0)
        assert [_side(p, q, P(2, y)) for y in (1, 2, 3)] == [-1, 0, 1]
        # q is outside the disk on pr, so the pair rule reads r's side alone
        assert [_free(p, q, P(2, y)) for y in (1, 2, 3)] == [False, False, True]
        assert [disk_side(p, q, P(2, y)) for y in (1, 2, 3)] == [-1, 0, 1]

    def test_symmetric_in_disk_endpoints(self):
        rng = random.Random(11)
        triples = [list(random_int_points(rng, 3, 2**15)) for _ in range(500)]
        for p, q, r in triples + _real_triples(rng, 500, 1e3):
            assert _side(p, q, r) == _side(q, p, r)
            assert _free(p, q, r) == _free(p, r, q)

    def test_degenerate_inputs_rejected(self):
        # a disk on coincident endpoints, or a query on an endpoint, is
        # rejected by the one scalar predicate and by the reference alike
        for pred in (conflict_kind, disk_side):
            with pytest.raises(ValueError):
                pred(P(0, 0), P(0, 0), P(1, 1))
            with pytest.raises(ValueError):
                pred(P(0, 0), P(2, 0), P(0, 0))
            with pytest.raises(ValueError):
                pred(P(0, 0), P(2, 0), P(2, 0))

    def test_real_mode_tolerance_band(self):
        eps = 1e-9
        p, q = Point(0.0, 0.0, eps), Point(4.0, 0.0, eps)
        # exactly on the circle, within the band, then displaced by much
        # more than the band, then by much less than it
        rs = [Point(2.0, y, eps) for y in (2.0, 2.0 + 1e-3, 2.0 - 1e-3, 2.0 + 1e-12)]
        assert [_side(p, q, r) for r in rs] == [0, 1, -1, 0]
        assert [_free(p, q, r) for r in rs] == [False, True, False, False]

    def test_scalars_and_arrays_decide_alike(self):
        # Python numbers and int64 or float64 arrays give the same answers,
        # also at the corners of the exact range, where int64 products
        # come within 2**31 of overflow
        c = MAX_EXACT_COORD
        corners = [(x, y) for x in (-c, 0, c - 1, c) for y in (-c, 1, c)]
        rng = random.Random(43)
        ints = rng.choices(corners, k=1200)
        ints += [(rng.randint(-c, c), rng.randint(-c, c)) for _ in range(1200)]
        reals = [(float(x), float(y)) for x, y in ints]
        for coords, dtype, eps in ((ints, np.int64, 0.0), (reals, np.float64, 1e-9)):
            arr = np.array(coords, dtype).reshape(-1, 3, 2)
            triples = [t for t in arr.tolist() if len({tuple(v) for v in t}) == 3]
            (px, py), (qx, qy), (rx, ry) = np.array(triples, dtype).transpose(1, 2, 0)
            a = (px - rx, py - ry, qx - rx, qy - ry)
            want_out = outside_disk(*a, eps)
            want_free = conflict_free(px, py, qx, qy, rx, ry, eps)
            for k, ((sx, sy), (tx, ty), (ux, uy)) in enumerate(triples):
                got = outside_disk(sx - ux, sy - uy, tx - ux, ty - uy, eps)
                assert got == want_out[k]
                assert conflict_free(sx, sy, tx, ty, ux, uy, eps) == want_free[k]

    def test_reference_agrees_with_library(self):
        # the literal disk test against outside_disk, and the labels it
        # gives against conflict_kind's, on all three sides
        rng = random.Random(47)
        triples = [list(random_int_points(rng, 3, 2**20)) for _ in range(1000)]
        sides = set()
        for p, q, r in triples + _real_triples(rng, 1000, 1e6):
            sides.add(side := disk_side(p, q, r))
            assert side == _side(p, q, r)
            assert conflict_label(p, q, r) == conflict_kind(p, q, r)
        assert sides == {-1, 0, 1}


class TestConflict:
    def test_right_angle_conflicts(self):
        assert edges_conflict(P(0, 0), P(1, 0), P(1, 1))
        assert conflict_kind(P(0, 0), P(1, 0), P(1, 1)) == BOUNDARY

    def test_acute_pair_is_free(self):
        assert not edges_conflict(P(0, 0), P(4, 0), P(0, 4))
        assert conflict_kind(P(0, 0), P(4, 0), P(0, 4)) is None

    def test_collinear_containment_conflicts(self):
        assert edges_conflict(P(0, 0), P(2, 0), P(1, 0))
        assert conflict_kind(P(0, 0), P(2, 0), P(1, 0)) == INTERIOR

    def test_symmetric_in_q_r(self):
        rng = random.Random(23)
        for _ in range(500):
            ps = random_int_points(rng, 3, 2**15)
            p, q, r = ps[0], ps[1], ps[2]
            assert edges_conflict(p, q, r) == edges_conflict(p, r, q)

    def test_coincident_other_endpoints_rejected(self):
        with pytest.raises(ValueError):
            conflict_kind(P(0, 0), P(1, 1), P(1, 1))

    def test_matches_disk_disjunction(self):
        rng = random.Random(37)
        for _ in range(2000):
            ps = random_int_points(rng, 3, 2**15)
            p, q, r = ps[0], ps[1], ps[2]
            want = in_closed_disk(p, q, r) or in_closed_disk(p, r, q)
            assert edges_conflict(p, q, r) == want

    def test_matches_angle_formulation(self):
        rng = random.Random(41)
        checked = 0
        while checked < 1000:
            ps = random_int_points(rng, 3, 2**10)
            p, q, r = ps[0], ps[1], ps[2]
            ang_q = _angle_at(q, p, r)
            ang_r = _angle_at(r, p, q)
            if min(abs(ang_q - math.pi / 2), abs(ang_r - math.pi / 2)) < 0.01:
                continue
            want = ang_q > math.pi / 2 or ang_r > math.pi / 2
            assert edges_conflict(p, q, r) == want
            checked += 1

    @given(
        st.integers(-1000, 1000), st.integers(-1000, 1000),
        st.integers(-1000, 1000), st.integers(-1000, 1000),
        st.integers(-1000, 1000), st.integers(-1000, 1000),
    )
    @settings(max_examples=300)
    def test_translation_invariance(self, px, py, qx, qy, dx, dy):
        q = (qx + 2001, qy)  # keep q distinct from p and r
        r = (px + 2003, py + 2003)
        before = edges_conflict(P(px, py), P(*q), P(*r))
        after = edges_conflict(
            P(px + dx, py + dy), P(q[0] + dx, q[1] + dy), P(r[0] + dx, r[1] + dy)
        )
        assert before == after

    def test_mixed_kinds_rejected(self):
        with pytest.raises(CoordinateKindError, match="mix coordinate kinds"):
            conflict_kind(P(0, 0), P(1, 0), Point(0.5, 1.0, 1e-9))
        with pytest.raises(CoordinateKindError, match="mix coordinate kinds"):
            conflict_kind(Point(0.0, 0.0, 1e-9), P(1, 0), P(0, 1))


def _angle_at(v, a, b):
    ax, ay = a.x - v.x, a.y - v.y
    bx, by = b.x - v.x, b.y - v.y
    cosv = (ax * bx + ay * by) / (math.hypot(ax, ay) * math.hypot(bx, by))
    return math.acos(max(-1.0, min(1.0, cosv)))


class TestClassify:
    @pytest.mark.parametrize(
        "coords,kind,strict",
        [
            ([(0, 3), (1, 1), (3, 0)], ConvexKind.UPPER_RIGHT_MONOTONIC, True),
            ([(3, 0), (1, 1), (0, 3)], ConvexKind.LOWER_LEFT_MONOTONIC, True),
            ([(0, 0), (1, 2), (3, 5)], ConvexKind.LOWER_RIGHT_MONOTONIC, True),
            ([(3, 5), (1, 2), (0, 0)], ConvexKind.UPPER_LEFT_MONOTONIC, True),
            ([(0, 0), (1, 0), (2, 1)], ConvexKind.LOWER_RIGHT_MONOTONIC, False),
            (
                [(1, 0), (0, 1), (-1, 0), (0, -1)],
                ConvexKind.CENTRALLY_SYMMETRIC_CONVEX,
                True,
            ),
            ([(0, 0), (1, 0), (2, 0), (1, 1)], ConvexKind.GENERAL_CONVEX, False),
            ([(0, 0), (4, 0), (3, 3), (2, 1)], ConvexKind.NON_CONVEX, False),
            ([(0, 0), (5, 1), (6, 3), (5, 5), (0, 4)], ConvexKind.GENERAL_CONVEX, True),
            # a point inside the upper, left vertical and right vertical edge
            ([(0, 0), (2, 2), (1, 2), (0, 2), (2, 0)], ConvexKind.GENERAL_CONVEX, False),
            ([(1, 0), (0, 2), (2, 1), (0, 1), (0, 0)], ConvexKind.GENERAL_CONVEX, False),
            ([(1, 1), (3, 0), (3, 2), (3, 1), (0, 0)], ConvexKind.GENERAL_CONVEX, False),
            # collinear out of order: an odd set is never centrally symmetric
            ([(1, 0), (0, 0), (2, 0)], ConvexKind.GENERAL_CONVEX, False),
            (
                [(1, 0), (0, 0), (3, 0), (2, 0)],
                ConvexKind.CENTRALLY_SYMMETRIC_CONVEX,
                False,
            ),
        ],
    )
    def test_examples(self, coords, kind, strict):
        got = classify(PointSet.of(coords))
        assert (got.kind, got.strict) == (kind, strict)

    def test_monotonic_does_not_need_convex_position(self):
        # a staircase with both turn directions
        got = classify(PointSet.of([(0, 0), (1, 10), (2, 11), (3, 20)]))
        assert got.kind is ConvexKind.LOWER_RIGHT_MONOTONIC and got.strict

    def test_half_convex_right(self):
        # right half of a circle: upper chain descends, lower chain ascends
        coords = [(0, 5), (3, 4), (5, 0), (3, -4), (0, -5)]
        got = classify(PointSet.of(coords))
        assert got.kind is ConvexKind.RIGHT_HALF_CONVEX and got.strict

    def test_half_convex_left(self):
        coords = [(0, 5), (-3, 4), (-5, 0), (-3, -4), (0, -5)]
        got = classify(PointSet.of(coords))
        assert got.kind is ConvexKind.LEFT_HALF_CONVEX and got.strict

    def test_bottom_half_is_not_an_axis_half(self):
        # a convex valley: neither a right nor a left half shape
        got = classify(PointSet.of([(0, 5), (1, 2), (2, 0), (3, 1), (4, 4)]))
        assert got.kind is ConvexKind.GENERAL_CONVEX and got.strict

    def test_common_circle_exact(self):
        # 3-4-5 style integer points on a circle about the origin
        coords = [(5, 0), (4, 3), (0, 5), (-3, 4), (3, -4)]
        got = classify(PointSet.of(coords))
        assert got.kind is ConvexKind.ON_COMMON_CIRCLE and got.strict

    def test_reflection_maps_monotonic_kinds(self):
        rng = random.Random(5)
        swaps_x = {  # y -> -y swaps upper/lower
            ConvexKind.UPPER_RIGHT_MONOTONIC: ConvexKind.LOWER_RIGHT_MONOTONIC,
            ConvexKind.LOWER_RIGHT_MONOTONIC: ConvexKind.UPPER_RIGHT_MONOTONIC,
            ConvexKind.UPPER_LEFT_MONOTONIC: ConvexKind.LOWER_LEFT_MONOTONIC,
            ConvexKind.LOWER_LEFT_MONOTONIC: ConvexKind.UPPER_LEFT_MONOTONIC,
        }
        swaps_y = {  # x -> -x swaps right/left
            ConvexKind.UPPER_RIGHT_MONOTONIC: ConvexKind.UPPER_LEFT_MONOTONIC,
            ConvexKind.UPPER_LEFT_MONOTONIC: ConvexKind.UPPER_RIGHT_MONOTONIC,
            ConvexKind.LOWER_RIGHT_MONOTONIC: ConvexKind.LOWER_LEFT_MONOTONIC,
            ConvexKind.LOWER_LEFT_MONOTONIC: ConvexKind.LOWER_RIGHT_MONOTONIC,
        }
        for _ in range(100):
            n = rng.randrange(3, 12)
            xs = sorted(rng.sample(range(1000), n))
            ys = sorted(rng.sample(range(1000), n), reverse=True)
            ps = PointSet.of(list(zip(xs, ys)))
            base = classify(ps)
            assert base.kind in swaps_x
            refl_x = classify(PointSet.of([(p.x, -p.y) for p in ps]))
            refl_y = classify(PointSet.of([(-p.x, p.y) for p in ps]))
            assert refl_x.kind is swaps_x[base.kind]
            assert refl_y.kind is swaps_y[base.kind]
            assert refl_x.strict == refl_y.strict == base.strict

    def test_generated_centrally_symmetric_sets(self):
        # a step of a symmetric polygon that rises has an opposite that
        # falls, so no symmetric set is half convex
        rng = random.Random(17)
        for _ in range(50):
            ps = centrally_symmetric_convex_set(rng, rng.choice([4, 6, 8, 10]))
            got = classify(ps)
            assert got.kind is ConvexKind.CENTRALLY_SYMMETRIC_CONVEX
            # the reflection about the centroid maps the set onto itself
            n, sx, sy = len(ps), int(ps.xs.sum()), int(ps.ys.sum())
            pts = set(zip(ps.xs.tolist(), ps.ys.tolist()))
            assert {(2 * sx - n * x, 2 * sy - n * y) for x, y in pts} == {
                (n * x, n * y) for x, y in pts
            }

    def test_translation_and_point_reflection_invariance(self):
        rng = random.Random(23)
        r = 1105  # 5 * 13 * 17: 108 integer points lie on this circle
        roots = ((x, math.isqrt(r * r - x * x)) for x in range(-r, r + 1))
        circle = sorted({(x, s * y) for x, y in roots if x * x + y * y == r * r
                         for s in (1, -1)})
        K = ConvexKind
        ur, ul = K.UPPER_RIGHT_MONOTONIC, K.UPPER_LEFT_MONOTONIC
        lr, ll = K.LOWER_RIGHT_MONOTONIC, K.LOWER_LEFT_MONOTONIC
        right, left = K.RIGHT_HALF_CONVEX, K.LEFT_HALF_CONVEX
        # (x sign, y sign) of each map and the kinds it swaps; a translation
        # keeps every kind
        maps = {
            (-1, -1): {right: left, left: right, ur: ll, ll: ur, ul: lr, lr: ul},
            (-1, 1): {right: left, left: right, ur: ul, ul: ur, lr: ll, ll: lr},
            (1, -1): {ur: lr, lr: ur, ul: ll, ll: ul},
        }
        seen = set()
        for k in range(400):
            if k % 3 == 0:
                pts = rng.sample(circle, rng.randint(3, 12))
            elif k % 3 == 1:
                ps = centrally_symmetric_convex_set(rng, rng.choice([4, 6, 8, 10]))
                pts = list(zip(ps.xs.tolist(), ps.ys.tolist()))
                if rng.random() < 0.5:
                    pts[0] = (pts[0][0] + 1, pts[0][1])
            else:
                side = rng.randint(2, 6)
                pts = rng.sample([(x, y) for x in range(side) for y in range(side)],
                                 rng.randint(3, min(10, side * side)))
            rng.shuffle(pts)
            base = classify(PointSet.of(pts))
            seen.add(base.kind)
            tx, ty = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
            moved = classify(PointSet.of([(x + tx, y + ty) for x, y in pts]))
            assert moved == base, pts
            for (fx, fy), swaps in maps.items():
                got = classify(PointSet.of([(fx * x, fy * y) for x, y in pts]))
                if base.is_monotonic and not base.strict:
                    # a weak staircase can satisfy two kinds; the first wins
                    assert got.is_monotonic and not got.strict, pts
                else:
                    want = ConvexClass(swaps.get(base.kind, base.kind), base.strict)
                    assert got == want, (pts, fx, fy)
        assert seen >= {
            right,
            left,
            K.CENTRALLY_SYMMETRIC_CONVEX,
            K.ON_COMMON_CIRCLE,
            K.GENERAL_CONVEX,
            K.NON_CONVEX,
        }

    def test_reflected_triangle_stays_cocircular(self):
        # a triangle with no vertical side is half convex in no orientation
        tri = [(-1092, -169), (1104, -47), (700, -855)]
        for pts in (tri, [(-x, -y) for x, y in tri]):
            got = classify(PointSet.of(pts))
            assert got == ConvexClass(ConvexKind.ON_COMMON_CIRCLE, True)

    def test_reflected_fans_read_half_convex(self):
        # the arc's top point lies within about 2e-10 of the centre's
        # vertical, on either side, which the band reads as vertical
        right, left = ConvexKind.RIGHT_HALF_CONVEX, ConvexKind.LEFT_HALF_CONVEX
        for n in range(4, 65):
            fan = half_convex_fan(n).points
            pts = list(zip(fan.xs.tolist(), fan.ys.tolist()))
            for (fx, fy), kind in (((1, 1), right), ((-1, -1), left),
                                   ((-1, 1), left), ((1, -1), right)):
                ps = PointSet.of([(fx * x, fy * y) for x, y in pts], fan.eps)
                assert classify(ps) == ConvexClass(kind, False), (n, fx, fy)

    def test_cycle_of_10000_points_within_budget(self):
        ps = circle_cycle(10000).points
        start = time.perf_counter()
        got = classify(ps)
        assert time.perf_counter() - start < 2.0
        assert got == ConvexClass(ConvexKind.CENTRALLY_SYMMETRIC_CONVEX, True)

    def test_extreme_radius_cycles_stay_cocircular(self):
        # the circle test's degree-six terms would leave float64 range here
        for radius in (2.0**200, 2.0**-200):
            for n, kind in ((9, ConvexKind.ON_COMMON_CIRCLE),
                            (10, ConvexKind.CENTRALLY_SYMMETRIC_CONVEX)):
                got = classify(circle_cycle(n, radius).points)
                assert got == ConvexClass(kind, True)

    def test_single_point_and_pair(self):
        assert classify(PointSet.of([(0, 0)])).is_monotonic
        assert classify(PointSet.of([(0, 0), (1, 1)])).is_monotonic
