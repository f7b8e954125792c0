"""Points CSV parsing, graph JSON round-trips, and SVG output."""

import json
import math
import random

import numpy as np
import pytest

from conftest import random_int_points
from lgg.geometry import MAX_EXACT_COORD, MAX_REAL_COORD, PointSet, pair_array
from lgg.graph import Graph, random_maximal_lgg
from lgg.io import (
    FormatError,
    graph_from_json,
    graph_to_json,
    graph_to_svg,
    load_graph,
    parse_points_csv,
    save_graph,
)


class TestPointsCsv:
    def test_integer_points(self):
        ps = parse_points_csv("0,0\n3, 4\n# comment\n\n10,-2  # trailing\n")
        assert ps.is_exact
        assert [(p.x, p.y) for p in ps] == [(0, 0), (3, 4), (10, -2)]

    def test_real_mode_switch(self):
        ps = parse_points_csv("0,0\n1.5,2\n")
        assert not ps.is_exact
        assert ps[0].x == 0.0 and ps[1].x == 1.5

    def test_scientific_notation_is_real(self):
        ps = parse_points_csv("1e3,0\n2,1\n", epsilon=1e-6)
        assert not ps.is_exact and ps.eps == 1e-6

    def test_errors(self):
        with pytest.raises(FormatError):
            parse_points_csv("")
        with pytest.raises(FormatError):
            parse_points_csv("1,2,3\n")
        with pytest.raises(FormatError):
            parse_points_csv("a,b\n")


class TestGraphJson:
    def test_round_trip_exact(self):
        rng = random.Random(83)
        ps = random_int_points(rng, 20, 10**6)
        g = random_maximal_lgg(ps, 1)
        back = graph_from_json(graph_to_json(g, {"generator": "test"}))
        assert back == g

    def test_round_trip_real(self):
        ps = PointSet.of([(0.5, 1.5), (2.0, 3.0)], 1e-9)
        g = Graph(ps, ((0, 1),))
        back = graph_from_json(graph_to_json(g))
        assert [(p.x, p.y, p.eps) for p in back.points] == [
            (0.5, 1.5, 1e-9),
            (2.0, 3.0, 1e-9),
        ]

    def test_output_is_byte_stable(self):
        rng = random.Random(85)
        ps = random_int_points(rng, 15, 100)
        g = random_maximal_lgg(ps, 2)
        assert graph_to_json(g) == graph_to_json(Graph(ps, tuple(g.edges)))

    def test_bad_json(self):
        with pytest.raises(FormatError):
            graph_from_json("{not json")
        with pytest.raises(FormatError):
            graph_from_json('{"points": [[0, 0]]}')

    @pytest.mark.parametrize("eps", ["-1", "-0.5", "NaN", "Infinity", "1e400"])
    @pytest.mark.parametrize("points", ["[[0, 0], [1, 1]]", "[[0.5, 0], [1, 1]]"])
    def test_bad_epsilon_is_named(self, points, eps):
        text = f'{{"points": {points}, "edges": [], "meta": {{"epsilon": {eps}}}}}'
        with pytest.raises(FormatError, match="meta.epsilon"):
            graph_from_json(text)

    def test_meta_cannot_override_epsilon(self):
        ps = PointSet.of([(0.5, 1.5), (2.0, 3.0)], 1e-9)
        g = Graph(ps, ((0, 1),))
        text = graph_to_json(g, {"epsilon": 0.25, "generator": "test"})
        assert json.loads(text)["meta"] == {"epsilon": 1e-9, "generator": "test"}
        assert graph_from_json(text) == g

    def test_save_and_load(self, tmp_path):
        ps = PointSet.of([(0, 0), (5, 1), (9, 7)])
        g = Graph(ps, ((0, 1), (1, 2)))
        path = str(tmp_path / "g.json")
        save_graph(g, path, {"generator": "unit"})
        assert load_graph(path) == g


def _reference_json(g, meta=None):
    """Scalar reference writer: ``json.dumps`` of the arrays' ``tolist()``."""
    ps = g.points
    obj = {
        "points": np.column_stack((ps.xs, ps.ys)).tolist(),
        "edges": g.edge_array.tolist(),
        "meta": {**(meta or {}), "epsilon": ps.eps},
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _int_graphs():
    lim = MAX_EXACT_COORD
    corners = PointSet.of([(-lim, -lim), (lim, -lim), (-lim, lim), (lim, lim), (0, 0)])
    yield "corners", Graph(corners, [(0, 4), (1, 4), (2, 4), (3, 4), (0, 1)])
    yield "no-edges", Graph(corners, ())
    yield "one-point", Graph(PointSet.of([(-7, 3)]), ())
    for seed in (1, 2):
        ps = random_int_points(random.Random(90 + seed), 40, 10**6)
        yield f"random-{seed}", random_maximal_lgg(ps, seed)


def _real_graphs():
    odd = [(-0.0, 5e-324), (1e16, 1 / 3), (-1e16, -5e-324), (0.1, 2.5), (-1.5, 1e-300)]
    ps = PointSet.of(odd, 1e-9)
    yield "odd-floats", Graph(ps, [(0, 1), (0, 3), (2, 4), (1, 4)])
    lattice = [(i * 0.1, j * 0.1) for i in range(-4, 5) for j in range(5)]
    ps = PointSet.of(lattice, 1e-6)
    yield "lattice", Graph(ps, [(i, i + 1) for i in range(0, len(lattice) - 1, 2)])
    yield "real-no-edges", Graph(ps, ())


GRAPHS = dict((*_int_graphs(), *_real_graphs()))
METAS = [
    None,
    {"generator": "test", "seed": 3},
    {"params": [[1, [2.5, None]], []], "name": "caf\u00e9", "flag": True},
]


class TestWriterParity:
    """``graph_to_json`` writes what ``json.dumps`` of Python lists writes."""

    @pytest.mark.parametrize("meta", METAS, ids=["none", "flat", "nested"])
    @pytest.mark.parametrize("name", GRAPHS)
    def test_matches_json_dumps(self, name, meta):
        g = GRAPHS[name]
        assert graph_to_json(g, meta) == _reference_json(g, meta)

    @pytest.mark.parametrize("name", GRAPHS)
    def test_round_trip(self, name):
        g = GRAPHS[name]
        assert graph_from_json(graph_to_json(g, METAS[2])) == g


class TestPairArray:
    @pytest.mark.parametrize("items, message", [
        ([(0, 1), (1, 2**63)], r"edge 1: \(1, 9223372036854775808\) out of range"),
        ([[0, 1], [1e300, 1]], r"edge 1: \(1e\+300, 1\) out of range"),
        ([[0, 1], [math.nan, 1]], r"edge 1: expected a pair, got \[nan, 1\]"),
    ])
    def test_int64_overflow_named(self, items, message):
        with pytest.raises(ValueError, match=message):
            pair_array(items, np.int64, "edge")


class TestSvg:
    def test_contains_all_elements(self):
        ps = PointSet.of([(0, 0), (10, 0), (10, 10)])
        g = Graph(ps, ((0, 1), (1, 2)))
        svg = graph_to_svg(g, width=400)
        assert svg.startswith("<svg")
        assert svg.count("<line") == 2
        assert svg.count("<circle") == 3

    def test_disk_overlay(self):
        ps = PointSet.of([(0, 0), (10, 0), (10, 10)])
        g = Graph(ps, ((0, 1),))
        svg = graph_to_svg(g, width=400, disk_edge=(0, 1))
        assert svg.count("<circle") == 4  # 3 vertices + the disk

    def test_coordinates_at_the_real_bound(self):
        lim = MAX_REAL_COORD
        ps = PointSet.of([(-lim, -lim), (lim, lim), (lim, -lim)], 1e-9)
        svg = graph_to_svg(Graph(ps, ((0, 1),)), width=100, disk_edge=(0, 1))
        height = float(svg.split('height="')[1].split('"')[0])
        assert math.isfinite(height) and "nan" not in svg and "inf" not in svg

    def test_y_axis_points_up(self):
        ps = PointSet.of([(0, 0), (0, 10)])
        g = Graph(ps, ())
        svg = graph_to_svg(g, width=100)
        lines = [ln for ln in svg.splitlines() if "<circle" in ln]
        cy0 = float(lines[0].split('cy="')[1].split('"')[0])
        cy1 = float(lines[1].split('cy="')[1].split('"')[0])
        assert cy1 < cy0  # larger y drawn nearer the top
