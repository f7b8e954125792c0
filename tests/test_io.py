"""Points CSV parsing, graph JSON round-trips, and SVG output."""

import contextlib
import io
import json
import math
import random

import numpy as np
import pytest

from conftest import random_int_points
from lgg.geometry import (
    DEFAULT_EPSILON,
    MAX_EXACT_COORD,
    MAX_REAL_COORD,
    MIN_REAL_COORD,
    PointSet,
    pair_array,
)
import lgg.io
from lgg.cli import main
from lgg.graph import Graph, GraphError, random_maximal_lgg
from lgg.io import (
    FormatError,
    graph_from_json,
    graph_to_json,
    graph_to_svg,
    load_graph,
    load_points,
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
        ps = parse_points_csv("1e3,0\n2,1\n")
        assert not ps.is_exact and ps.eps == DEFAULT_EPSILON

    def test_errors(self):
        with pytest.raises(FormatError):
            parse_points_csv("")
        with pytest.raises(FormatError):
            parse_points_csv("1,2,3\n")
        with pytest.raises(FormatError):
            parse_points_csv("a,b\n")
        # forms only Python reads: digit separators and non-ASCII digits
        for bad in ("1_0,2", "1_0.5,2.0", "\u0661,2"):
            with pytest.raises(FormatError, match=r"^line 2: "):
                parse_points_csv("0,0\n" + bad + "\n")
        # a duplicate names both lines, not point indices; -0.0 equals 0.0
        with pytest.raises(FormatError, match=r"^line 5: duplicates line 2 \(0, 0\)$"):
            parse_points_csv("# header\n0,0\n\n1,1\n0,0\n")
        with pytest.raises(FormatError, match=r"^line 2: duplicates line 1 "):
            parse_points_csv("0.0,0.0\n-0.0,0.0\n")


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
        compact = '{"edges":[],"meta":{"epsilon":%s},"points":%s}' % (
            eps, points.replace(" ", ""))
        want = _error(FormatError, graph_from_json, text)
        assert want.startswith("bad graph file: meta.epsilon")
        assert _error(FormatError, graph_from_json, compact) == want

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


class TestByteOrderMark:
    """A file that starts with a UTF-8 byte-order mark reads as one without it."""

    @pytest.mark.parametrize("load, text", [
        pytest.param(load_points, "# x,y\n0,5\n1,3\n", id="int-csv"),
        pytest.param(load_points, "0.5,5\n1,3e2\n", id="real-csv"),
        pytest.param(load_graph, '{"edges":[[0,1]],"meta":{"epsilon":0.0},'
                     '"points":[[0,0],[5,1]]}\n', id="compact-json"),
        pytest.param(load_graph, '{"points": [[0.5, 0], [5, 1]], "edges": [[1, 0]]}',
                     id="general-json"),
    ])
    def test_reads_as_without(self, tmp_path, load, text):
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        assert load(str(marked)) == load(str(plain))


def test_tuning_arguments_are_gone(tmp_path):
    # the real-coordinate CSV tolerance and the SVG width are constants
    path = tmp_path / "pts.csv"
    path.write_text("0.5,1\n2,3\n")
    g = Graph(PointSet.of([(0, 0), (1, 1)]), ((0, 1),))
    for call in (lambda: parse_points_csv("0.5,1\n", epsilon=1e-6),
                 lambda: load_points(str(path), epsilon=1e-6),
                 lambda: graph_to_svg(g, width=400)):
        with pytest.raises(TypeError):
            call()


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
    tiny = MIN_REAL_COORD
    odd = [(-0.0, tiny), (1e16, 1 / 3), (-1e16, -tiny), (0.1, 2.5), (-1.5, 1e-100)]
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


def _outcome(text: str):
    """What ``graph_from_json`` makes of ``text``: the graph's bytes or the error."""
    try:
        g = graph_from_json(text)
    except FormatError as exc:
        return "error", str(exc)
    ps = g.points
    arrays = (ps.xs, ps.ys, g.edge_array)
    return "graph", ps.eps, *((a.dtype, a.tobytes()) for a in arrays)


def _general(text: str):
    """The outcome of the general reader alone, with the fast path switched off.

    A leading space also leaves the fast path, but it moves the position that
    a ``json`` syntax error names by one.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lgg.io, "_read_compact", lambda text: None)
        return _outcome(text)


@pytest.fixture
def loads_lengths(monkeypatch):
    """Lengths of the texts that ``json.loads`` is given during the test."""
    lengths = []
    loads = json.loads

    def record(text, *args, **kwargs):
        lengths.append(len(text))
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", record)
    return lengths


#: small documents in the writer's layout, one per coordinate kind
CANONICAL = [
    '{"edges":[[0,1],[1,2]],"meta":{"epsilon":0.0},"points":[[0,0],[3,1],[5,-2]]}\n',
    '{"edges":[[0,2]],"meta":{"epsilon":1e-9,"g":"x"},"points":[[0.5,1],[-2,3e2],[4,7]]}'
    "\n",
]
#: inserted and replacement characters: JSON's structural, number and literal
#: characters, its whitespace, and characters that are whitespace to Python only
ALPHABET = sorted(set('0123456789-+.eE,:[]{}" \t\n\rtrufalsNInyéx\x0c\xa0'))


class TestCompactReader:
    """The writer's own layout reads exactly as ``json.loads`` reads it."""

    @pytest.mark.parametrize("meta", METAS, ids=["none", "flat", "nested"])
    @pytest.mark.parametrize("name", GRAPHS)
    def test_writer_output_takes_the_fast_path(self, name, meta, loads_lengths):
        text = graph_to_json(GRAPHS[name], meta)
        assert _outcome(text) == _outcome(graph_to_json(GRAPHS[name]))
        assert max(loads_lengths) < len(text)
        assert _outcome(text) == _general(text) == _outcome(" " + text)

    @pytest.mark.parametrize("text", CANONICAL, ids=["int", "real"])
    def test_single_byte_edits_read_as_the_general_reader(self, text):
        """Every deletion, insertion and replacement of one character."""
        assert _outcome(text)[0] == "graph"
        edits = [text[:k] + text[k + 1:] for k in range(len(text))]
        edits += [text[:k] + c + text[k + j:] for k in range(len(text) + 1)
                  for j in (0, 1) for c in ALPHABET]
        for edited in edits:
            assert _outcome(edited) == _general(edited), edited

    def test_grid_document_never_reaches_the_general_reader(
        self, tmp_path, loads_lengths
    ):
        path = tmp_path / "grid.json"
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["construct", "grid", "--side", "60", "-o", str(path)]) == 0
        text = path.read_text(encoding="utf-8")
        loads_lengths.clear()
        g = graph_from_json(text)
        assert g.n == 3600 and loads_lengths
        assert max(loads_lengths) < len(text)

    @pytest.mark.parametrize("meta", [
        pytest.param({"note": ',"points":[[0,0]]'}, id="points-in-string"),
        pytest.param({"note": ',"meta":'}, id="meta-in-string"),
        pytest.param({"a": 1, "points": [[0, 0]]}, id="points-key"),
        pytest.param({"a": 1, "meta": {"epsilon": -1}}, id="meta-key"),
    ])
    def test_meta_that_looks_like_the_layout(self, meta, loads_lengths):
        g = GRAPHS["corners"]
        text = graph_to_json(g, meta)
        assert graph_from_json(text) == g
        assert max(loads_lengths) < len(text)

    def test_duplicate_points_key_keeps_the_last(self):
        text = ('{"edges":[[0,1]],"meta":{"epsilon":0.0},"points":[[0,0]],'
                '"points":[[1,1],[2,5]]}')
        g = graph_from_json(text)
        assert [(p.x, p.y) for p in g.points] == [(1, 1), (2, 5)]
        assert _outcome(text) == _general(text)

    @pytest.mark.parametrize("tail", ["", "\n", "\r\n", "   ", " \t\n\r\n"])
    def test_trailing_whitespace(self, tail, loads_lengths):
        g = GRAPHS["random-1"]
        text = graph_to_json(g).rstrip("\n") + tail
        assert graph_from_json(text) == g
        assert max(loads_lengths) < len(text)

    @pytest.mark.parametrize("points, edges", [
        ("[]", "[]"),
        ("[[-7,3]]", "[]"),
        ("[[0,0],[1,1]]", "[]"),
        ("[]", "[[0,1]]"),
        ("[5]", "[]"),
        ("[[0,0],[1,1]]", "[7]"),
        ("[[0,0],[1,1]]", "[[0,1]5]"),
    ], ids=["empty", "one-point", "no-edges", "edge-without-points", "bare-point",
            "bare-edge", "number-after-pair"])
    def test_short_arrays(self, points, edges):
        text = '{"edges":%s,"meta":{"epsilon":0.0},"points":%s}\n' % (edges, points)
        assert _outcome(text) == _general(text)

    def test_number_spellings(self):
        text = '{"edges":[[0,1]],"meta":{"epsilon":0},"points":[[-0,1E5],[1e-3,2]]}'
        g = graph_from_json(text)
        assert g.points.xs.tobytes() == np.array([0.0, 1e-3]).tobytes()  # -0 is int 0
        assert g.points.ys.tolist() == [1e5, 2.0] and g.points.eps == 0.0
        assert _outcome(text) == _general(text)

    @pytest.mark.parametrize("points, edges, message", [
        ("[[0,0],[1,9223372036854775808]]", "[]",
         "point 1: (1, 9223372036854775808) out of range"),
        ("[[0,0],[1.5,1%s]]" % ("0" * 400), "[]", "point 1: (1.5, 1000000"),
        ("[[0,0],[1,1%s]]" % ("0" * 5000), "[]", "Exceeds the limit (4300 digits)"),
        ("[[0,0],[1,1]]", "[[0,9223372036854775808]]",
         "edge 0: (0, 9223372036854775808) out of range"),
        ("[[0,0],[1,1]]", "[[0,1.0]]", "edge 0: expected int, got [0, 1.0]"),
        ("[[0,0],[1,1]]", "[[0,1e0]]", "edge 0: expected int, got [0, 1.0]"),
        ("[[0,0],[1,1]]", "[[0,true]]", "edge 0: expected int, got [0, True]"),
    ], ids=["int-point", "real-point", "long-int-point", "int-edge", "float-edge", "exp-edge",
            "true-edge"])
    def test_bad_values_name_their_pair(self, points, edges, message):
        text = '{"edges":%s,"meta":{"epsilon":0.0},"points":%s}' % (edges, points)
        assert _outcome(text) == _general(text)
        assert message in _outcome(text)[1]

    @pytest.mark.parametrize("eps", ["NaN", "1e400", "true", '"0"', "[]"])
    def test_bad_epsilon(self, eps):
        text = '{"edges":[],"meta":{"epsilon":%s},"points":[[0.5,0]]}' % eps
        assert _outcome(text) == _general(text)
        assert "meta.epsilon" in _outcome(text)[1]

    def test_non_dict_meta(self):
        text = '{"edges":[],"meta":[1],"points":[[0,0]]}'
        assert _outcome(text) == _general(text)
        assert _outcome(text)[0] == "error"

    def test_non_ascii_meta(self, loads_lengths):
        text = ('{"edges":[[0,1]],"meta":{"epsilon":0.25,"name":"café ∑"},'
                '"points":[[0,0.5],[1,1]]}\n')
        g = graph_from_json(text)
        assert g.points.eps == 0.25 and g.edges == ((0, 1),)
        assert max(loads_lengths) < len(text)
        assert _outcome(text) == _general(text)


class TestPairArray:
    @pytest.mark.parametrize("items, message", [
        pytest.param([(0, 1), (1, 2**63)],
                     r"edge 1: \(1, 9223372036854775808\) out of range", id="int-2**63"),
        pytest.param([[0, 1], [1e300, 1]],
                     r"edge 1: expected int, got \[1e\+300, 1\]", id="float-1e300"),
        pytest.param([[0, 1], [math.nan, 1]],
                     r"edge 1: expected int, got \[nan, 1\]", id="float-nan"),
    ])
    def test_int64_overflow_named(self, items, message):
        with pytest.raises(ValueError, match=message):
            pair_array(items, (int,), "edge")

    def test_integer_array_passes_straight_through(self):
        edges = np.array([[0, 1], [1, 2]])
        assert pair_array(edges, (int,), "edge") is edges


#: malformed pair lists, each bad item after one good pair: (id, items, the
#: error's text, and whether the points readers take the item as a real pair)
KIND = "{name} 1: expected {kinds}, got "
BAD_PAIRS = [
    ("non-array", "01", "{name}s: expected an array, got '01'", False),
    ("triple", [[0, 1], [0, 1, 1]], "{name} 1: expected a pair, got [0, 1, 1]", False),
    ("scalar", [[0, 1], 5], "{name} 1: expected a pair, got 5", False),
    ("float", [[0, 1], [0.9, 1]], KIND + "[0.9, 1]", True),
    ("bool", [[0, 1], [False, True]], KIND + "[False, True]", False),
    ("str", [[0, 1], ["2", 1]], KIND + "['2', 1]", False),
    ("2**63", [[0, 1], [1, 2**63]], "{name} 1: (1, 9223372036854775808) out of range",
     False),
    ("1e300", [[0, 1], [1, 1e300]], KIND + "[1, 1e+300]", True),
    ("nan", [[0, 1], [1, math.nan]], KIND + "[1, nan]", True),
]


def _error(error, make, *args) -> str:
    with pytest.raises(error) as exc:
        make(*args)
    return str(exc.value)


def _compact(points, edges, eps=0.0) -> str:
    """The graph JSON text in the writer's layout: sorted keys, no spaces."""
    obj = {"edges": edges, "meta": {"epsilon": eps}, "points": points}
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


class TestOutsidePairs:
    """Every entry point names a malformed pair list in the same words."""

    @pytest.mark.parametrize("items, message", [case[1:3] for case in BAD_PAIRS],
                             ids=[case[0] for case in BAD_PAIRS])
    def test_edges(self, items, message):
        ps = PointSet.of([(0, 0), (1, 1), (2, 3)])
        text = json.dumps({"points": [[0, 0], [1, 1], [2, 3]], "edges": items})
        want = message.format(name="edge", kinds="int")
        assert _error(GraphError, Graph, ps, items) == want
        assert _error(FormatError, graph_from_json, text) == want
        compact = _compact([[0, 0], [1, 1], [2, 3]], items)
        assert _error(FormatError, graph_from_json, compact) == want
        assert _error(ValueError, pair_array, items, (int,), "edge") == want

    @pytest.mark.parametrize("items, message",
                             [case[1:3] for case in BAD_PAIRS if not case[3]],
                             ids=[case[0] for case in BAD_PAIRS if not case[3]])
    def test_points(self, items, message):
        text = json.dumps({"points": items, "edges": []})
        want = message.format(name="point", kinds="int")
        assert _error(ValueError, PointSet.of, items) == want
        want = message.format(name="point", kinds="int or float")
        assert _error(FormatError, graph_from_json, text) == want
        assert _error(FormatError, graph_from_json, _compact(items, [])) == want

    def test_graph_takes_python_ints_and_integer_arrays(self):
        ps = PointSet.of([(0, 0), (1, 1), (2, 3)])
        g = Graph(ps, [[2, 1], [0, 2]])
        assert g.edges == ((0, 2), (1, 2))
        for dtype in (np.int64, np.int32, np.uint32):
            assert Graph(ps, np.array([[2, 1], [0, 2]], dtype)) == g
        rejected = [
            ([[0.9, 1]], "[0.9, 1]"),
            ([[True, False]], "[True, False]"),
            ([["1", 2]], "['1', 2]"),
            (np.array([[0.9, 1.0]]), "[0.9, 1.0]"),
            (np.array([[True, False]]), "[True, False]"),
        ]
        for edges, got in rejected:
            want = f"edge 0: expected int, got {got}"
            assert _error(GraphError, Graph, ps, edges) == want


class TestSvg:
    def test_contains_all_elements(self):
        ps = PointSet.of([(0, 0), (10, 0), (10, 10)])
        g = Graph(ps, ((0, 1), (1, 2)))
        svg = graph_to_svg(g)
        assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" width="800" ')
        assert svg.count("<line") == 2
        assert svg.count("<circle") == 3

    def test_disk_overlay(self):
        ps = PointSet.of([(0, 0), (10, 0), (10, 10)])
        g = Graph(ps, ((0, 1),))
        svg = graph_to_svg(g, disk_edge=(0, 1))
        assert svg.count("<circle") == 4  # 3 vertices + the disk

    def test_coordinates_at_the_real_bound(self):
        lim = MAX_REAL_COORD
        ps = PointSet.of([(-lim, -lim), (lim, lim), (lim, -lim)], 1e-9)
        svg = graph_to_svg(Graph(ps, ((0, 1),)), disk_edge=(0, 1))
        height = float(svg.split('height="')[1].split('"')[0])
        assert math.isfinite(height) and "nan" not in svg and "inf" not in svg

    def test_y_axis_points_up(self):
        ps = PointSet.of([(0, 0), (0, 10)])
        g = Graph(ps, ())
        svg = graph_to_svg(g)
        lines = [ln for ln in svg.splitlines() if "<circle" in ln]
        cy0 = float(lines[0].split('cy="')[1].split('"')[0])
        cy1 = float(lines[1].split('cy="')[1].split('"')[0])
        assert cy1 < cy0  # larger y drawn nearer the top
