"""Points CSV parsing, graph JSON round-trips, and SVG output."""

import random

import pytest

from conftest import random_int_points
from lgg.geometry import PointSet
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

    def test_save_and_load(self, tmp_path):
        ps = PointSet.of([(0, 0), (5, 1), (9, 7)])
        g = Graph(ps, ((0, 1), (1, 2)))
        path = str(tmp_path / "g.json")
        save_graph(g, path, {"generator": "unit"})
        assert load_graph(path) == g


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

    def test_y_axis_points_up(self):
        ps = PointSet.of([(0, 0), (0, 10)])
        g = Graph(ps, ())
        svg = graph_to_svg(g, width=100)
        lines = [ln for ln in svg.splitlines() if "<circle" in ln]
        cy0 = float(lines[0].split('cy="')[1].split('"')[0])
        cy1 = float(lines[1].split('cy="')[1].split('"')[0])
        assert cy1 < cy0  # larger y drawn nearer the top
