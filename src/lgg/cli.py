"""Command-line front end.

Subcommands: ``construct grid|path|fan|cycle|ladder``, ``verify``,
``extremal``, ``indepset``, ``scaling``, ``emit-svg``.  ``indepset``
verifies its input first.  Exit status 0 on success, 1 on invariant
violations (an invalid graph under ``verify`` or ``indepset``, a built
graph or witness that fails verification, a points file that is not
strictly monotonic for ``path``, more than 16 or fewer than two points for
``extremal``, the latter with ``need at least two points``) and on running
out of memory, 2 on usage or parse errors, including files that cannot be
opened or decoded, coordinates out of range (beyond 2**30 for integers,
non-finite, beyond 2**256 or nonzero below 2**-384 for reals),
out-of-range construction flags (``--side`` above ``grid.MAX_SIDE`` among
them) and an ``emit-svg --disk i,i``.  The constructions take only their
size (``--side``, ``--n``) and, for the grid, ``--mode``; the grid's
theta0 and c1 and the circle radius of ``fan`` and ``cycle`` are
constants, as are the tolerance of a real-coordinate points CSV
(``geometry.DEFAULT_EPSILON``) and the SVG width (``io.SVG_WIDTH``).

The ``scaling`` command counts the edges of the grid for several sides
from the certified walk (``grid.certify``), building no graph, and emits
a CSV with a trailing log-log fit line.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from typing import Sequence

from . import convex, grid, io
from .extremal import max_lgg
from .graph import InvariantViolation, checked, verify
from .independence import independent_set


@dataclass(frozen=True)
class ScalingSample:
    n: int
    edges: int

    @property
    def edges_per_n(self) -> float:
        return self.edges / self.n


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float


class FitError(ValueError):
    pass


def fit_exponent(samples: Sequence[ScalingSample]) -> FitResult:
    """Ordinary least squares of ln(edges) against ln(n)."""
    if len(samples) < 2:
        raise FitError("need at least two samples")
    if len({s.n for s in samples}) < 2:
        raise FitError("samples must have distinct n")
    if any(s.n <= 0 or s.edges <= 0 for s in samples):
        raise FitError("samples must have positive n and edges")
    xs = [math.log(s.n) for s in samples]
    ys = [math.log(s.edges) for s in samples]
    k = len(xs)
    mx, my = sum(xs) / k, sum(ys) / k
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - my) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return FitResult(slope, intercept, r2)


def _write_out(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _grid_params(side: int, mode: str) -> grid.GridParams:
    """Grid parameters from the command line; a bad side is a usage error."""
    try:
        return grid.GridParams(g=side, mode=grid.Mode(mode))
    except ValueError as exc:
        raise io.FormatError(f"bad grid parameters for --side {side}: {exc}") from exc


_CONVEX = {
    "fan": convex.half_convex_fan,
    "cycle": convex.circle_cycle,
    "ladder": convex.centrally_symmetric_ladder,
}


def _convex(kind: str, n: int) -> convex.Construction:
    """A fan, cycle or ladder; a bad --n is a usage error."""
    try:
        return _CONVEX[kind](n)
    except convex.ConstructionError as exc:
        raise io.FormatError(f"bad {kind} parameters --n {n}: {exc}") from exc


def _cmd_construct(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind == "grid":
        params = _grid_params(args.side, args.mode)
        g, stats = grid.build(params)
        meta = {
            "generator": "grid",
            "parameters": {
                "side": args.side,
                "mode": args.mode,
                "theta0": params.theta0,
                "c1": params.c1,
            },
        }
        _write_out(io.graph_to_json(g, meta), args.output)
        print(f"n={g.n} edges={stats.total_edges}", file=sys.stderr)
        return 0
    if kind == "path":
        cons = convex.monotonic_path(io.load_points(args.points))
    else:
        cons = _convex(kind, args.n)
    meta = {"generator": cons.name, "parameters": {"n": len(cons.points)}}
    _write_out(io.graph_to_json(cons.graph, meta), args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    g = io.load_graph(args.graph)
    report = verify(g)
    if report.valid:
        print(f"valid: {g.n} points, {len(g.edge_array)} edges, 0 violations")
        return 0
    for v in report.violations:
        print(f"violation: vertex {v.u}, neighbors {v.v} and {v.w} ({v.kind})")
    print(f"invalid: {len(report.violations)} violations")
    return 1


def _cmd_extremal(args: argparse.Namespace) -> int:
    ps = io.load_points(args.points)
    result = max_lgg(ps)
    print(f"max_edges={result.max_edges}")
    print(f"nodes_explored={result.nodes_explored}")
    print("witness=" + " ".join(f"{i}-{j}" for i, j in result.witness.edges))
    return 0


def _cmd_indepset(args: argparse.Namespace) -> int:
    try:
        g = checked(io.load_graph(args.graph))
    except InvariantViolation as exc:
        raise InvariantViolation(f"{args.graph}: {exc}") from exc
    result = independent_set(g)
    print(
        f"size={len(result.vertices)} guarantee={result.guarantee} "
        f"method={result.method.value}"
    )
    print("vertices=" + " ".join(str(v) for v in sorted(result.vertices)))
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    try:
        sides = sorted({int(s) for s in args.sides.split(",") if s.strip()})
    except ValueError as exc:
        raise io.FormatError(f"--sides expects integers: {exc}") from exc
    if len(sides) < 2:
        raise io.FormatError("scaling needs at least two grid sides")
    rows = []
    # every side is checked before the first walk
    for params in [_grid_params(side, args.mode) for side in sides]:
        stats = grid.certify(params)
        rows.append((params.g, ScalingSample(params.g**2, stats.total_edges)))
    fit = fit_exponent([sample for _, sample in rows])
    lines = ["g,n,edges,edges_per_n"]
    for side, s in rows:
        lines.append(f"{side},{s.n},{s.edges},{s.edges_per_n!r}")
    lines.append(
        f"# fit: slope={fit.slope!r} intercept={fit.intercept!r} "
        f"r_squared={fit.r_squared!r}"
    )
    _write_out("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_emit_svg(args: argparse.Namespace) -> int:
    g = io.load_graph(args.graph)
    disk = None
    if args.disk:
        try:
            i, j = (int(t) for t in args.disk.split(","))
        except ValueError as exc:
            raise io.FormatError(f"--disk expects 'i,j': {exc}") from exc
        if i == j or not (0 <= i < g.n and 0 <= j < g.n):
            raise io.FormatError(f"--disk {i},{j}: not two vertices of {g.n} points")
        disk = (i, j)
    _write_out(io.graph_to_svg(g, disk), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="lgg", description="locally Gabriel graph toolkit"
    )
    sub = top.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a graph")
    kinds = c.add_subparsers(dest="kind", required=True)

    cg = kinds.add_parser("grid", help="dense grid construction")
    cg.add_argument("--side", type=int, required=True, help="grid side g (n = g*g)")

    cp = kinds.add_parser("path", help="path on a strictly monotonic set")
    cp.add_argument("--points", required=True, help="points CSV file")

    for name, hlp in (
        ("fan", "quarter-circle star plus path (2n-3 edges)"),
        ("cycle", "cycle on a circle (n edges)"),
        ("ladder", "centrally symmetric two-line construction"),
    ):
        k = kinds.add_parser(name, help=hlp)
        k.add_argument("--n", type=int, required=True)
    for k in kinds.choices.values():
        k.add_argument("-o", "--output", default=None, help="output graph JSON")

    v = sub.add_parser("verify", help="check the locally Gabriel condition")
    v.add_argument("graph", help="graph JSON file")

    e = sub.add_parser("extremal", help="exact maximum LGG on a small point set")
    e.add_argument("--points", required=True)

    i = sub.add_parser("indepset", help="independent set of a valid LGG")
    i.add_argument("graph")

    s = sub.add_parser("scaling", help="edge counts and log-log fit over grid sizes")
    s.add_argument("--sides", required=True, help="comma-separated grid sides")
    s.add_argument("-o", "--output", default=None)
    for k in (cg, s):
        k.add_argument("--mode", choices=["greedy", "analysis"], default="greedy")

    g = sub.add_parser("emit-svg", help="render a graph to static SVG")
    g.add_argument("graph")
    g.add_argument("--disk", default=None, help="i,j: draw that edge's disk")
    g.add_argument("-o", "--output", default=None)

    return top


_HANDLERS = {
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "extremal": _cmd_extremal,
    "indepset": _cmd_indepset,
    "scaling": _cmd_scaling,
    "emit-svg": _cmd_emit_svg,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (io.FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvariantViolation, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
