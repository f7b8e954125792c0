"""File formats: points CSV, graph JSON, and a static SVG emitter.

Points CSV holds one ``x,y`` pair per line with optional ``#`` comments.
Integer coordinates are parsed exactly; a decimal point anywhere in the
file switches the whole file to real mode with a caller-supplied epsilon.

Graph JSON is an object with ``points`` (array of [x, y]), ``edges``
(array of [i, j], i < j, lexicographically sorted) and ``meta``
(generator name, parameters, seed, epsilon).  Output is byte-stable:
canonical edge order, sorted keys, shortest round-trip numbers.

The writer formats the coordinate and edge arrays straight into the text
around ``json.dumps`` of ``meta``.  The JSON reader checks JSON types over
whole arrays (arrays of two-element arrays, coordinates numbers, endpoints
integers, never booleans) and walks the items only when a check fails, to
name the first bad one; range and duplicate checks are left to ``PointSet``
and ``Graph``.  The CSV reader checks each row as a ``Point`` so that a bad
value names its line.  Every malformed input raises ``FormatError`` naming
the file and the line, point, edge or array at fault.
"""

from __future__ import annotations

import json
import math
import sys
from itertools import chain

import numpy as np

from .geometry import DEFAULT_EPSILON, Point, PointSet, pair_array
from .graph import Graph


class FormatError(ValueError):
    """Unparseable points or graph file."""


def _json_pairs(items, types: tuple, name: str) -> set:
    """The value types of ``items``, an array of [a, b] arrays of ``types``."""
    if type(items) is not list:
        raise FormatError(f"{name}s: expected an array, got {items!r:.40}")
    if set(map(type, items)) <= {list} and set(map(len, items)) <= {2}:
        if (kinds := set(map(type, chain.from_iterable(items)))).issubset(types):
            return kinds
    for k, item in enumerate(items):  # a check failed: name the first bad item
        if type(item) is not list or len(item) != 2:
            got = f"got {item!r:.40}"
            raise FormatError(f"{name} {k}: expected a two-element array, {got}")
        if not set(map(type, item)).issubset(types):
            break
    names = " or ".join(t.__name__ for t in types)
    raise FormatError(f"{name} {k}: expected {names}, got {item!r}")


def _build(make, *args):
    """``make(*args)``; a point set or graph it rejects is a FormatError."""
    try:
        return make(*args)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _in_file(path: str, parse, *args):
    """``parse(text, *args)`` on the file's text; errors name the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        return parse(text, *args)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def parse_points_csv(text: str, epsilon: float = DEFAULT_EPSILON) -> PointSet:
    rows: list[tuple[int, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'x,y', got {raw!r}")
        rows.append((lineno, parts[0], parts[1]))
    if not rows:
        raise FormatError("no points in file")
    real = any("." in t or "e" in t.lower() for _, x, y in rows for t in (x, y))
    num, eps = (float, epsilon) if real else (int, 0.0)
    coords = []
    for lineno, x, y in rows:
        try:  # a bad value names its line
            p = Point(num(x), num(y), eps)
        except (ValueError, TypeError, OverflowError) as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        coords.append((p.x, p.y))
    return _build(PointSet.of, coords, eps)


def load_points(path: str, epsilon: float = DEFAULT_EPSILON) -> PointSet:
    return _in_file(path, parse_points_csv, epsilon)


def graph_to_json(g: Graph, meta: dict | None = None) -> str:
    """``json.dumps`` of the arrays' ``tolist()`` with sorted keys, byte for byte."""
    ps = g.points
    pair = "[%d,%d]" if ps.is_exact else "[%r,%r]"  # %r: the float repr json writes
    xy = np.column_stack((ps.xs, ps.ys)).ravel().tolist()
    ij = g.edge_array.ravel().tolist()
    meta = {**(meta or {}), "epsilon": ps.eps}
    return '{"edges":[%s],"meta":%s,"points":[%s]}\n' % (
        ",".join(["[%d,%d]"] * (len(ij) // 2)) % tuple(ij),
        json.dumps(meta, sort_keys=True, separators=(",", ":")),
        ",".join([pair] * len(ps)) % tuple(xy),
    )


def graph_from_json(text: str) -> Graph:
    try:
        obj = json.loads(text)
        raw_pts, raw_edges = obj["points"], obj["edges"]
        eps = obj.get("meta", {}).get("epsilon", DEFAULT_EPSILON)
        if type(eps) not in (int, float) or not 0 <= eps <= sys.float_info.max:
            raise ValueError(
                f"meta.epsilon must be a finite nonnegative JSON number, got {eps!r}"
            )
    except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
        raise FormatError(f"bad graph file: {exc}") from exc
    real = float in _json_pairs(raw_pts, (int, float), "point")
    xy = _build(pair_array, raw_pts, np.float64 if real else np.int64, "point")
    ps = _build(PointSet, xy[:, 0], xy[:, 1], float(eps) if real else 0.0)
    _json_pairs(raw_edges, (int,), "edge")
    return _build(Graph, ps, raw_edges)


def save_graph(g: Graph, path: str, meta: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(graph_to_json(g, meta))


def load_graph(path: str) -> Graph:
    return _in_file(path, graph_from_json)


def graph_to_svg(
    g: Graph,
    width: int = 800,
    disk_edge: tuple[int, int] | None = None,
) -> str:
    """Static SVG of the graph, optionally with one edge's diametral disk."""
    xs = g.points.xs.astype(np.float64).tolist()
    ys = g.points.ys.astype(np.float64).tolist()
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span = max(x1 - x0, y1 - y0) or 1.0
    margin = 0.05 * span
    scale = width / (span + 2 * margin)

    def sx(x: float) -> float:
        return round((x - x0 + margin) * scale, 3)

    def sy(y: float) -> float:
        # flip so larger y is drawn higher
        return round((y1 - y + margin) * scale, 3)

    height = round((y1 - y0 + 2 * margin) * scale, 3)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    ]
    if disk_edge is not None:
        i, j = disk_edge
        cx, cy = (xs[i] + xs[j]) / 2, (ys[i] + ys[j]) / 2
        r = math.dist((xs[i], ys[i]), (xs[j], ys[j])) / 2
        out.append(
            f'<circle cx="{sx(cx)}" cy="{sy(cy)}" r="{round(r * scale, 3)}" '
            'fill="#d33" fill-opacity="0.15" stroke="#d33"/>'
        )
    for i, j in g.edge_array.tolist():
        out.append(
            f'<line x1="{sx(xs[i])}" y1="{sy(ys[i])}" '
            f'x2="{sx(xs[j])}" y2="{sy(ys[j])}" '
            'stroke="#356" stroke-width="1"/>'
        )
    rad = max(1.5, round(0.004 * width, 1))
    for x, y in zip(xs, ys):
        out.append(f'<circle cx="{sx(x)}" cy="{sy(y)}" r="{rad}" fill="#222"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
