"""End-to-end CLI behavior: subcommands, exit codes, and the scaling fit."""

import json
import math
import os
import random
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lgg.graph
import lgg.grid
from lgg.cli import FitError, ScalingSample, build_parser, fit_exponent, main
from lgg.geometry import PointSet
from lgg.graph import Graph
from lgg.io import load_graph, save_graph


def run(args):
    return main(list(args))


#: ``content`` of a malformed-input case whose path is a directory
DIRECTORY = object()

MONOTONE_CSV = "0,5\n1,3\n3,2\n6,1\n10,0\n"


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
        assert capsys.readouterr().err == f"n=144 edges={len(g.edges)}\n"

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

    def test_graph_that_fails_verify_exits_1(self, tmp_path, capsys):
        # K4: no monotone terminal vertex has two neighbours, but verify
        # finds conflicts, so the input is refused before the peel
        ps = PointSet.of([(0, 0), (10, 1), (3, 10), (-7, 9)])
        path = tmp_path / "k4.json"
        save_graph(Graph(ps, [(i, j) for i in range(4) for j in range(i + 1, 4)]),
                   str(path))
        assert run(["indepset", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: {path}: not a valid LGG: 4 conflicts, first at"
                       " vertex 1 with neighbors 0 and 3 (interior)\n")


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

    def test_huge_side_exits_2_before_any_build(self, capsys, monkeypatch):
        # every side is checked before the first count, which would fail here
        monkeypatch.setattr(lgg.grid, "certify", None)
        assert run(["scaling", "--sides", "30,1000000"]) == 2
        assert "--sides 1000000" in capsys.readouterr().err

    @pytest.mark.parametrize("args, flag", [
        (["construct", "grid", "--side", "5"], "--side 5"),
        (["scaling", "--sides", "5,30"], "--sides 5"),
    ], ids=["construct", "scaling"])
    def test_bad_side_names_its_flag(self, capsys, args, flag):
        assert run(args) == 2
        assert capsys.readouterr().err == (
            f"error: bad grid parameters for {flag}: grid side must be at least 9\n")

    @pytest.mark.parametrize("mode", ["greedy", "analysis"])
    def test_counts_to_max_side_within_budget(self, tmp_path, mode):
        out = tmp_path / "scaling.csv"
        sides = [30, 90, 150, 300, 3000, 30000, lgg.grid.MAX_SIDE]
        start = time.monotonic()
        assert run(["scaling", "--sides", ",".join(map(str, sides)),
                    "--mode", mode, "-o", str(out)]) == 0
        assert time.monotonic() - start < 10.0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:-1]]
        assert [int(g) for g, *_ in rows] == sides
        for g, n, edges, _ in rows:
            assert int(n) == int(g) ** 2
            if int(g) <= 150:
                params = lgg.grid.GridParams(g=int(g), mode=lgg.grid.Mode(mode))
                graph, _ = lgg.grid.build(params)
                assert int(edges) == len(graph.edge_array)


class TestOutOfMemory:
    """A MemoryError exits 1 with one error line; nothing is really allocated."""

    @pytest.mark.parametrize("args, message, err", [
        (["construct", "grid", "--side", "30"], "Unable to allocate 7.28 TiB",
         "error: out of memory: Unable to allocate 7.28 TiB\n"),
        (["scaling", "--sides", "30,60"], "", "error: out of memory\n"),
    ])
    def test_exits_1(self, capsys, monkeypatch, args, message, err):
        def build(params):
            raise MemoryError(message)

        # construct grid calls build, scaling calls certify
        monkeypatch.setattr(lgg.grid, "build", build)
        monkeypatch.setattr(lgg.grid, "certify", build)
        assert run(args) == 1
        assert capsys.readouterr() == ("", err)


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

    @pytest.mark.parametrize("disk", ["0,6", "-1,2", "3,3", "1", "0,1,2", "0,1,1"])
    def test_disk_not_two_vertices_exits_2(self, tmp_path, capsys, disk):
        g = tmp_path / "g.json"
        run(["construct", "cycle", "--n", "6", "-o", str(g)])
        capsys.readouterr()
        assert run(["emit-svg", str(g), f"--disk={disk}"]) == 2
        edge = tuple(int(t) for t in disk.split(","))
        assert capsys.readouterr().err == (
            f"error: --disk: disk edge {edge}: not two of 6 vertices\n")

    def test_empty_disk_exits_2(self, tmp_path, capsys):
        # an empty value is a bad integer, as in --disk=0, and not an absent flag
        g = tmp_path / "g.json"
        run(["construct", "cycle", "--n", "6", "-o", str(g)])
        capsys.readouterr()
        assert run(["emit-svg", str(g), "--disk="]) == 2
        assert capsys.readouterr() == (
            "", "error: --disk expects an ASCII decimal integer, got ''\n")


class TestStdout:
    """``-o -`` and no ``-o`` print exactly the bytes that ``-o FILE`` writes."""

    @pytest.mark.parametrize("args", [
        ["construct", "grid", "--side", "30"],
        ["construct", "path", "--points", "{pts}"],
        ["construct", "fan", "--n", "9"],
        ["construct", "cycle", "--n", "9"],
        ["construct", "ladder", "--n", "16"],
        ["scaling", "--sides", "12,18,24"],
        ["emit-svg", "{graph}", "--disk", "0,1"],
    ], ids=["grid", "path", "fan", "cycle", "ladder", "scaling", "emit-svg"])
    def test_same_bytes_as_file(self, tmp_path, capfdbinary, args):
        pts, graph, out = tmp_path / "pts.csv", tmp_path / "g.json", tmp_path / "out"
        pts.write_text(MONOTONE_CSV)
        run(["construct", "cycle", "--n", "6", "-o", str(graph)])
        args = [a.format(pts=pts, graph=graph) for a in args]
        assert run(args + ["-o", str(out)]) == 0
        assert capfdbinary.readouterr().out == b""
        for to_stdout in (["-o", "-"], []):
            assert run(args + to_stdout) == 0
            assert capfdbinary.readouterr().out == out.read_bytes()


class TestUsage:
    def test_unknown_command_exits_2(self, capsys):
        # theta0, c1, the circle radius, the CSV tolerance and the SVG width
        # are constants, not flags
        for args in (["frobnicate"],
                     ["construct", "grid", "--side", "30", "--c1", "2"],
                     ["scaling", "--sides", "30,60", "--theta0", "0.1"],
                     ["construct", "fan", "--n", "6", "--radius", "1"],
                     ["construct", "path", "--points", "p.csv", "--epsilon", "0.1"],
                     ["extremal", "--points", "p.csv", "--epsilon", "0.1"],
                     ["emit-svg", "g.json", "--width", "900"]):
            with pytest.raises(SystemExit) as exc:
                run(args)
            assert exc.value.code == 2
            assert capsys.readouterr().err.startswith("usage: lgg ")

    def test_readme_commands_parse(self):
        # every lgg line of the README's command-line block uses real flags
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
        lines = [ln.split("#", 1)[0] for ln in block.split("```", 1)[0].splitlines()]
        commands = [shlex.split(ln) for ln in lines if ln.startswith("lgg ")]
        assert len(commands) >= 7
        for tokens in commands:
            build_parser().parse_args(tokens[1:])

    def test_import_loads_no_scipy(self):
        # scipy would raise the resident memory of every run from 29 to 77 MB,
        # and fractions costs about 5 ms of the import
        script = "import sys, lgg, lgg.cli; print(sorted(m for m in sys.modules" \
                 " if m.split('.')[0] in ('scipy', 'fractions')))"
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env)
        assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr

    @pytest.mark.parametrize(
        "name, content, args",
        [pytest.param(*case, id=case[0]) for case in [
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
            ("disk-same-vertex", '{"points": [[0, 0], [4, 0], [0, 4]], "edges": []}',
             ["emit-svg", "--disk", "0,0"]),
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
            ("bool-epsilon", '{"points": [[0.0, 0.0], [1.0, 1.0]], "edges": [],'
             ' "meta": {"epsilon": true}}', ["verify"]),
            ("string-epsilon", '{"points": [[0.0, 0.0], [1.0, 1.0]], "edges": [],'
             ' "meta": {"epsilon": "1e-9"}}', ["verify"]),
            ("huge-epsilon", '{"points": [[0.0, 0.0], [1.0, 1.0]], '
             '"edges": [], "meta": {"epsilon": 1' + "0" * 400 + '}}', ["verify"]),
            ("negative-epsilon", '{"points": [[0, 0], [1, 1]], "edges": [],'
             ' "meta": {"epsilon": -1}}', ["verify"]),
            ("nan-epsilon", '{"points": [[0, 0], [1, 1]], "edges": [],'
             ' "meta": {"epsilon": NaN}}', ["verify"]),
            ("negative-epsilon-real", '{"points": [[0.5, 0], [1, 1]], "edges": [],'
             ' "meta": {"epsilon": -1}}', ["verify"]),
            ("huge-edge-index", '{"points": [[0, 0], [1, 1]], "edges": [[0, 1'
             + "0" * 30 + ']]}', ["verify"]),
            ("huge-int-point", '{"points": [[0, 0], [1' + "0" * 30 + ', 1]],'
             ' "edges": []}', ["verify"]),
            ("negative-zero-duplicate", '{"points": [[0.0, 0.0], [0.0, -0.0]],'
             ' "edges": []}', ["verify"]),
            ("deep-json", '{"points": ' + "[" * 100_000 + "]" * 100_000
             + ', "edges": []}', ["verify"]),
            ("object-points", '{"points": {"ab": 1, "cd": 2}, "edges": []}',
             ["verify"]),
            ("string-edges", '{"points": [[0, 0], [1, 1]], "edges": "01"}',
             ["verify"]),
            ("triple-edge", '{"points": [[0, 0], [1, 1]], "edges": [[0, 1, 1]]}',
             ["verify"]),
            ("scalar-edge", '{"points": [[0, 0], [1, 1]], "edges": [5]}',
             ["verify"]),
            ("huge-real-point", '{"points": [[0.0, 0.0], [1e300, 1.0]],'
             ' "edges": []}', ["verify"]),
            ("tiny-real-point", '{"points": [[0.0, 0.0], [1e-170, 1.0]],'
             ' "edges": []}', ["verify"]),
            ("grid-side-huge", None, ["construct", "grid", "--side", "1000000"]),
            # integer flags take ASCII decimals only, as a points CSV does
            ("grid-side-underscore", None, ["construct", "grid", "--side", "3_0"]),
            ("fan-n-arabic-digits", None, ["construct", "fan", "--n", "\u0661\u0666"]),
            ("scaling-sides-underscore", None, ["scaling", "--sides", "3_0,6_0"]),
            ("disk-underscore", '{"points": [[0, 0], [4, 0], [0, 4]], "edges": []}',
             ["emit-svg", "--disk", "0_0,1"]),
        ]],
    )
    def test_malformed_input_exits_2(self, tmp_path, capsys, name, content, args):
        # the message names the input at fault: the flag, or else the file
        # and, where given in NAMED, the point or edge
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
        assert NAMED.get(name, "") in err

    def test_module_entry_point(self, tmp_path):
        # python -m lgg.cli runs main and exits with its code
        out = tmp_path / "g.json"
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        for args in (["construct", "grid", "--side", "30", "-o", str(out)],
                     ["verify", str(out)]):
            done = subprocess.run([sys.executable, "-m", "lgg.cli", *args],
                                  capture_output=True, text=True, env=env)
            assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("valid: 900 points")


#: the point or edge that the error of a ``test_malformed_input_exits_2`` case names
NAMED = {
    "duplicate-csv": "line 3",
    "huge-edge-index": "edge 0",
    "huge-int-point": "point 1",
    "negative-zero-duplicate": "point 1",
    "object-points": "points: expected an array",
    "string-edges": "edges: expected an array",
    "triple-edge": "edge 0: expected a pair",
    "scalar-edge": "edge 0: expected a pair",
    "huge-real-point": "point 1: non-finite",
    "tiny-real-point": "point 1: non-finite",
}


#: patches ``lgg.graph.verify`` to report one conflict on every graph
FAIL_VERIFY = (
    "import lgg.graph as g; g.verify = lambda graph: "
    "g.ConflictReport((g.Violation(0, 1, 2, 'interior'),))"
)


def _one_conflict(graph):
    return lgg.graph.ConflictReport((lgg.graph.Violation(0, 1, 2, "interior"),))


class TestFailedVerification:
    """A built graph the verifier rejects exits 1 with one error line."""

    @pytest.mark.parametrize("args", [
        ["construct", "path", "--points"],
        ["construct", "fan", "--n", "6"],
        ["construct", "cycle", "--n", "6"],
        ["construct", "ladder", "--n", "12"],
        ["extremal", "--points"],
    ], ids=lambda args: "-".join(args[:2]))
    def test_exits_1(self, tmp_path, capsys, monkeypatch, args):
        monkeypatch.setattr(lgg.graph, "verify", _one_conflict)
        if args[-1] == "--points":
            pts = tmp_path / "pts.csv"
            pts.write_text(MONOTONE_CSV)
            args = args + [str(pts)]
        assert run(args) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            "error: not a valid LGG: 1 conflict, first at vertex 0"
            " with neighbors 1 and 2 (interior)\n"
        )

    def test_extremal_raises_under_optimize(self, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text(MONOTONE_CSV)
        script = "\n".join([
            "import sys",
            FAIL_VERIFY,
            "from lgg.extremal import max_lgg",
            "from lgg.io import load_points",
            "try:",
            "    max_lgg(load_points(sys.argv[1]))",
            "except g.InvariantViolation:",
            "    print('raised', sys.flags.optimize)",
            "from lgg.cli import main",
            "sys.exit(main(['extremal', '--points', sys.argv[1]]))",
        ])
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-O", "-c", script, str(pts)],
                              capture_output=True, text=True, env=env)
        assert done.stdout == "raised 1\n"
        assert done.returncode == 1
        assert done.stderr.startswith("error: not a valid LGG: 1 conflict, ")
        assert "Traceback" not in done.stderr


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
