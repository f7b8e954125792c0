"""End-to-end CLI behavior: subcommands, exit codes, and the scaling fit."""

import json
import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lgg.cli import FitError, ScalingSample, fit_exponent, main
from lgg.io import load_graph


def run(args):
    return main(list(args))


#: ``content`` of a malformed-input case whose path is a directory
DIRECTORY = object()


class TestFitExponent:
    def test_exact_power_law(self):
        samples = [ScalingSample(n, int(round(3 * n**1.25))) for n in
                   (10**3, 10**4, 10**5)]
        fit = fit_exponent(samples)
        assert fit.slope == pytest.approx(1.25, abs=1e-3)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-6)
        assert math.exp(fit.intercept) == pytest.approx(3.0, rel=1e-2)

    def test_errors(self):
        with pytest.raises(FitError):
            fit_exponent([ScalingSample(10, 20)])
        with pytest.raises(FitError):
            fit_exponent([ScalingSample(10, 20), ScalingSample(10, 30)])
        with pytest.raises(FitError):
            fit_exponent([ScalingSample(10, 0), ScalingSample(20, 30)])

    def test_edges_per_n(self):
        assert ScalingSample(10, 25).edges_per_n == 2.5


class TestConstruct:
    def test_grid(self, tmp_path, capsys):
        out = tmp_path / "grid.json"
        assert run(["construct", "grid", "--side", "12", "-o", str(out)]) == 0
        g = load_graph(str(out))
        assert g.n == 144
        assert "conflicts=0" in capsys.readouterr().err

    def test_fan_cycle_ladder(self, tmp_path):
        for kind, n, expect in (("fan", 9, 15), ("cycle", 9, 9), ("ladder", 16, 26)):
            out = tmp_path / f"{kind}.json"
            assert run(["construct", kind, "--n", str(n), "-o", str(out)]) == 0
            assert len(load_graph(str(out)).edges) == expect

    def test_path_from_csv(self, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("0,5\n1,3\n3,2\n6,1\n10,0\n")
        out = tmp_path / "path.json"
        assert run(["construct", "path", "--points", str(pts), "-o", str(out)]) == 0
        assert len(load_graph(str(out)).edges) == 4

    def test_invalid_construction_exits_1(self, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("0,0\n0,-1\n1,-1\n")  # weakly monotonic, rejected
        assert run(["construct", "path", "--points", str(pts)]) == 1

    def test_output_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["construct", "ladder", "--n", "20", "-o", str(a)])
        run(["construct", "ladder", "--n", "20", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestVerify:
    def test_valid_graph(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        run(["construct", "cycle", "--n", "8", "-o", str(out)])
        assert run(["verify", str(out)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_graph_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "points": [[0, 0], [2, 0], [2, 2]],
            "edges": [[0, 1], [1, 2], [0, 2]],
            "meta": {"epsilon": 0.0},
        }))
        assert run(["verify", str(bad)]) == 1
        assert "violation" in capsys.readouterr().out

    def test_missing_file_exits_2(self, tmp_path):
        assert run(["verify", str(tmp_path / "absent.json")]) == 2

    def test_malformed_file_exits_2(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{")
        assert run(["verify", str(bad)]) == 2


class TestExtremal:
    def test_reports_maximum(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("0,5\n1,3\n3,2\n6,1\n10,0\n")
        assert run(["extremal", "--points", str(pts)]) == 0
        out = capsys.readouterr().out
        assert "max_edges=4" in out and "witness=" in out

    def test_too_many_points_exits_1(self, tmp_path):
        rng = random.Random(4)
        pts = tmp_path / "pts.csv"
        rows = {(rng.randrange(100), rng.randrange(100)) for _ in range(40)}
        pts.write_text("\n".join(f"{x},{y}" for x, y in sorted(rows)[:20]))
        assert run(["extremal", "--points", str(pts)]) == 1


class TestIndepset:
    def test_reports_set(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        run(["construct", "grid", "--side", "12", "-o", str(out)])
        assert run(["indepset", str(out)]) == 0
        text = capsys.readouterr().out
        # n = 144, so the guarantee is ceil(ceil(sqrt(144)) / 2) = 6
        assert "size=" in text and "guarantee=6" in text
        size = int(text.split("size=")[1].split()[0])
        assert size >= 6

    def test_non_lgg_exits_1(self, tmp_path, capsys):
        # a triangle on a monotone set: the terminal vertex has degree 2
        bad = tmp_path / "bad.json"
        bad.write_text('{"points": [[0, 0], [1, 1], [2, 2]], '
                       '"edges": [[0, 1], [1, 2], [0, 2]]}')
        assert run(["indepset", str(bad)]) == 1
        assert "not a valid LGG" in capsys.readouterr().err


class TestScaling:
    def test_csv_with_fit(self, tmp_path):
        out = tmp_path / "scaling.csv"
        assert run(["scaling", "--sides", "12,18,24", "-o", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "g,n,edges,edges_per_n"
        assert len(lines) == 5 and lines[-1].startswith("# fit:")
        assert "slope=" in lines[-1]

    def test_single_side_exits_2(self, tmp_path):
        assert run(["scaling", "--sides", "12"]) == 2


class TestEmitSvg:
    def test_svg_output(self, tmp_path):
        g = tmp_path / "g.json"
        run(["construct", "cycle", "--n", "6", "-o", str(g)])
        out = tmp_path / "g.svg"
        assert run(["emit-svg", str(g), "-o", str(out)]) == 0
        assert out.read_text().startswith("<svg")

    def test_disk_flag(self, tmp_path):
        g = tmp_path / "g.json"
        run(["construct", "cycle", "--n", "6", "-o", str(g)])
        assert run(["emit-svg", str(g), "--disk", "0,1", "-o",
                    str(tmp_path / "d.svg")]) == 0
        assert run(["emit-svg", str(g), "--disk", "zero,one"]) == 2


class TestUsage:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "name, content, args",
        [
            ("short-point", '{"points": [[1], [2, 3]], "edges": []}', ["verify"]),
            ("duplicate-csv", "0,0\n1,1\n0,0\n", ["extremal", "--points"]),
            ("empty-points", '{"points": [], "edges": []}', ["verify"]),
            ("self-loop", '{"points": [[0, 0], [1, 1]], "edges": [[1, 1]]}',
             ["verify"]),
            ("edge-range", '{"points": [[0, 0], [1, 1]], "edges": [[0, 5]]}',
             ["indepset"]),
            ("nan-csv", "nan,1.0\n2.0,3.0\n", ["extremal", "--points"]),
            ("inf-json", '{"points": [[Infinity, 0.5], [1.5, 2.5]], "edges": []}',
             ["verify"]),
            ("disk-range", '{"points": [[0, 0], [4, 0], [0, 4]], "edges": []}',
             ["emit-svg", "--disk", "0,7"]),
            ("grid-side", None, ["construct", "grid", "--side", "5"]),
            ("scaling-sides", None, ["scaling", "--sides", "12,x"]),
            ("verify-dir", DIRECTORY, ["verify"]),
            ("output-dir", DIRECTORY, ["construct", "cycle", "--n", "5", "-o"]),
            ("latin1-csv", b"0,0\n1,1 # caf\xe9\n", ["construct", "path", "--points"]),
            ("latin1-json", b'{"points": [[0, 0], [1, 1]], "edges": [], "x": "\xe9"}',
             ["verify"]),
            ("float-edge", '{"points": [[0, 0], [1, 1]], "edges": [[0.9, 1]]}',
             ["verify"]),
            ("string-edge", '{"points": [[0, 0], [1, 1], [2, 3]], "edges": [["2", 1]]}',
             ["verify"]),
            ("bool-edge", '{"points": [[0, 0], [1, 1]], "edges": [[false, true]]}',
             ["verify"]),
            ("bool-point", '{"points": [[true, false], [2, 3]], "edges": []}',
             ["verify"]),
            ("string-point", '{"points": [["1", "2"], [2, 3]], "edges": []}',
             ["verify"]),
            ("fan-n", None, ["construct", "fan", "--n", "3"]),
            ("cycle-n", None, ["construct", "cycle", "--n", "2"]),
            ("ladder-n", None, ["construct", "ladder", "--n", "10"]),
            ("radius-nan", None, ["construct", "cycle", "--n", "6", "--radius", "nan"]),
            ("radius-inf", None, ["construct", "fan", "--n", "6", "--radius", "inf"]),
            ("radius-zero", None, ["construct", "fan", "--n", "6", "--radius", "0"]),
            ("bool-epsilon", '{"points": [[0.0, 0.0], [1.0, 1.0]], "edges": [],'
             ' "meta": {"epsilon": true}}', ["verify"]),
            ("string-epsilon", '{"points": [[0.0, 0.0], [1.0, 1.0]], "edges": [],'
             ' "meta": {"epsilon": "1e-9"}}', ["verify"]),
            pytest.param("huge-epsilon", '{"points": [[0.0, 0.0], [1.0, 1.0]], '
                         '"edges": [], "meta": {"epsilon": 1' + "0" * 400 + '}}',
                         ["verify"], id="huge-epsilon"),
        ],
    )
    def test_malformed_input_exits_2(self, tmp_path, capsys, name, content, args):
        # the message names the input at fault: the file, or the flag
        if content is None:
            culprit = args[-2]
        else:
            path = tmp_path / name
            if content is DIRECTORY:
                path.mkdir()
            elif isinstance(content, bytes):
                path.write_bytes(content)
            else:
                path.write_text(content)
            args = args + [str(path)]
            culprit = "--disk" if "--disk" in args else str(path)
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and culprit in err


def _json_values():
    scalars = (st.none() | st.booleans() | st.integers(-(2**31), 2**31)
               | st.floats() | st.text(max_size=4))
    return st.recursive(scalars, lambda kids: st.lists(kids, max_size=4), max_leaves=12)


def _graph_json():
    small = st.lists(st.integers(-3, 8), min_size=2, max_size=2)
    pair = small | st.lists(_json_values(), min_size=2, max_size=2)
    doc = st.fixed_dictionaries(
        {"points": st.lists(pair, max_size=6), "edges": st.lists(pair, max_size=6)},
        optional={"meta": st.dictionaries(st.just("epsilon"), _json_values())},
    )
    return doc.map(lambda d: json.dumps(d).encode())


def _points_csv():
    cell = st.integers(-50, 50).map(str) | st.floats().map(repr) | st.text(max_size=3)
    row = st.tuples(cell, cell).map(",".join) | st.text(max_size=6)
    return st.lists(row, max_size=8).map(lambda rows: "\n".join(rows).encode())


class TestFuzz:
    """Any file content exits 0, 1 or 2; content that is not UTF-8 exits 2."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        data=st.binary(max_size=64) | _graph_json() | _points_csv(),
        args=st.sampled_from([["construct", "path", "--points"], ["verify"],
                              ["indepset"], ["emit-svg"]]),
    )
    def test_any_bytes_exit_0_1_or_2(self, tmp_path, data, args):
        path = tmp_path / "input"
        path.write_bytes(data)
        code = run(args + [str(path)])
        assert code in (0, 1, 2)
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            assert code == 2
