"""File formats: points CSV, graph JSON, and a static SVG emitter.

Points CSV holds one ``x,y`` pair per line with optional ``#`` comments.
Integer coordinates are parsed exactly; a decimal point anywhere in the
file switches the whole file to real mode with a caller-supplied epsilon.

Graph JSON is an object with ``points`` (array of [x, y]), ``edges``
(array of [i, j], i < j, lexicographically sorted) and ``meta``
(generator name, parameters, seed, epsilon).  Output is byte-stable:
canonical edge order, sorted keys, shortest round-trip numbers.

Every malformed input raises ``FormatError`` naming the file and the line,
point or edge at fault.
"""

from __future__ import annotations

import json
import math
from typing import TextIO

from .geometry import DEFAULT_EPSILON, Point, PointSet
from .graph import Graph


class FormatError(ValueError):
    """Unparseable points or graph file."""


def _items(items, make, name):
    """``make(a, b)`` for each ``[a, b]`` item; a bad item is named by ``name``."""
    k = 0
    try:
        for k, (a, b) in enumerate(items):
            yield make(a, b)
    except (ValueError, TypeError, OverflowError) as exc:
        raise FormatError(f"{name(k)}: {exc}") from exc


def _point(real: bool, eps: float):
    if real:
        return lambda x, y: Point(float(x), float(y), eps)
    return lambda x, y: Point(int(x), int(y))


def _json_only(types, make):
    """``make(a, b)`` for JSON values whose type is in ``types``; never ``bool``."""

    def checked(a, b):
        if type(a) not in types or type(b) not in types:
            names = " or ".join(t.__name__ for t in types)
            raise TypeError(f"expected {names}, got [{a!r}, {b!r}]")
        return make(a, b)

    return checked


def _build(cls, *args):
    """``cls(*args)``; a point set or graph it rejects is a FormatError."""
    try:
        return cls(*args)
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
    make = _point(real, epsilon)
    pts = _items(((x, y) for _, x, y in rows), make, lambda k: f"line {rows[k][0]}")
    return _build(PointSet, tuple(pts))


def load_points(path: str, epsilon: float = DEFAULT_EPSILON) -> PointSet:
    return _in_file(path, parse_points_csv, epsilon)


def graph_to_json(g: Graph, meta: dict | None = None) -> str:
    eps = 0.0 if g.points.is_exact else g.points.eps
    obj = {
        "points": [[p.x, p.y] for p in g.points],
        "edges": [list(e) for e in g.edges],
        "meta": {"epsilon": eps, **(meta or {})},
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def graph_from_json(text: str) -> Graph:
    try:
        obj = json.loads(text)
        raw_pts, raw_edges = obj["points"], obj["edges"]
        eps = obj.get("meta", {}).get("epsilon", DEFAULT_EPSILON)
        if type(eps) not in (int, float):  # never bool or str
            raise TypeError(f"meta.epsilon must be a JSON number, got {eps!r}")
        eps = float(eps)
        real = any(isinstance(c, float) for xy in raw_pts for c in xy)
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise FormatError(f"bad graph file: {exc}") from exc
    make_point = _json_only((int, float), _point(real, eps))
    ps = _build(PointSet, tuple(_items(raw_pts, make_point, "point {}".format)))
    make_edge = _json_only((int,), lambda i, j: (i, j))
    edges = _items(raw_edges, make_edge, "edge {}".format)
    return _build(Graph, ps, tuple(edges))


def save_graph(g: Graph, path_or_file: str | TextIO, meta: dict | None = None) -> None:
    text = graph_to_json(g, meta)
    if isinstance(path_or_file, str):
        with open(path_or_file, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        path_or_file.write(text)


def load_graph(path: str) -> Graph:
    return _in_file(path, graph_from_json)


def graph_to_svg(
    g: Graph,
    width: int = 800,
    disk_edge: tuple[int, int] | None = None,
) -> str:
    """Static SVG of the graph, optionally with one edge's diametral disk."""
    xs = [float(p.x) for p in g.points]
    ys = [float(p.y) for p in g.points]
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
        pi, pj = g.points[i], g.points[j]
        cx, cy = (float(pi.x) + float(pj.x)) / 2, (float(pi.y) + float(pj.y)) / 2
        r = math.dist((pi.x, pi.y), (pj.x, pj.y)) / 2
        out.append(
            f'<circle cx="{sx(cx)}" cy="{sy(cy)}" r="{round(r * scale, 3)}" '
            'fill="#d33" fill-opacity="0.15" stroke="#d33"/>'
        )
    for i, j in g.edges:
        pi, pj = g.points[i], g.points[j]
        out.append(
            f'<line x1="{sx(float(pi.x))}" y1="{sy(float(pi.y))}" '
            f'x2="{sx(float(pj.x))}" y2="{sy(float(pj.y))}" '
            'stroke="#356" stroke-width="1"/>'
        )
    rad = max(1.5, round(0.004 * width, 1))
    for p in g.points:
        out.append(
            f'<circle cx="{sx(float(p.x))}" cy="{sy(float(p.y))}" r="{rad}" '
            'fill="#222"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
