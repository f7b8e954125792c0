"""File formats: points CSV, graph JSON, and a static SVG emitter.

Points CSV holds one ``x,y`` pair of ASCII numbers (no ``1_0`` or other
scripts' digits) per line with optional ``#`` comments.  Integer
coordinates are parsed exactly; a decimal point or exponent anywhere
in the file switches the whole file to real mode with the tolerance
``geometry.DEFAULT_EPSILON``.  Both readers skip a leading UTF-8 byte-order
mark.  An SVG is always ``SVG_WIDTH`` pixels wide.

Graph JSON is an object with ``points`` (array of [x, y]), ``edges``
(array of [i, j], i < j, lexicographically sorted) and ``meta``
(generator name, parameters, seed, epsilon).  Output is byte-stable:
canonical edge order, sorted keys, shortest round-trip numbers.

The writer formats the coordinate and edge arrays straight into the text
around ``json.dumps`` of ``meta``.  The JSON reader reads the writer's own
layout (those keys in that order, no whitespace but at the end) with one
flat ``json.loads`` per array: a span whose brackets and commas are those
of a list of pairs loses its brackets, and ``json`` reads the numbers left,
which go into an int64 array, or float64 if a float is present.  Every
other file, and every one that path cannot read as ``json.loads`` would (a
value beyond int64, a float endpoint, a bad ``meta``), goes through the
general reader: ``json.loads`` of the whole text, then one
``geometry.pair_array`` call per array (that of the edges made by
``Graph``), the library's one conversion of
outside pairs: arrays of two-element arrays, coordinates ints or floats,
endpoints ints, never booleans, each checked over the whole array, with the
items walked only when a check fails, to name the first bad one.  So only
the general reader raises a parse error, and its messages are the same for
every layout.  ``Graph`` takes the int64 edge array as it is, so no list is
scanned twice; range and duplicate checks are left to ``PointSet`` and
``Graph``.  The CSV reader checks each row as a ``Point``, and against the
rows before it for a duplicate, so that a bad value or a repeated point
names its line.  Every malformed input raises ``FormatError`` naming the
file and the line, point, edge or array at fault.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from .geometry import DEFAULT_EPSILON, Point, PointSet, pair_array
from .graph import Graph


# Width in pixels of every SVG; its height keeps the drawing's aspect ratio.
SVG_WIDTH = 800


class FormatError(ValueError):
    """Unparseable points or graph file."""


def _build(make, *args):
    """``make(*args)``; a point set or graph it rejects is a FormatError."""
    try:
        return make(*args)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _in_file(path: str, parse):
    """``parse(text)`` on the file's text; errors name the file."""
    # utf-8-sig drops a leading byte-order mark, which RFC 8259 lets a parser ignore
    with open(path, encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        return parse(text)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def is_ascii_number(text: str) -> bool:
    """The points CSV's rule for a number, which ``int`` and ``float`` do
    not keep: ASCII only (no other scripts' digits) and no ``_`` (no ``1_0``)."""
    return text.isascii() and "_" not in text


def parse_points_csv(text: str) -> PointSet:
    rows: list[tuple[int, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'x,y', got {raw!r}")
        if not all(map(is_ascii_number, parts)):
            raise FormatError(f"line {lineno}: not an ASCII decimal number in {raw!r}")
        rows.append((lineno, parts[0], parts[1]))
    if not rows:
        raise FormatError("no points in file")
    real = any("." in t or "e" in t.lower() for _, x, y in rows for t in (x, y))
    num, eps = (float, DEFAULT_EPSILON) if real else (int, 0.0)
    line_of: dict[tuple, int] = {}  # -0.0 and 0.0 are one key, as in PointSet
    for lineno, x, y in rows:
        try:  # a bad value names its line
            p = Point(num(x), num(y), eps)
        except (ValueError, TypeError, OverflowError) as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        if (first := line_of.setdefault((p.x, p.y), lineno)) != lineno:
            raise FormatError(f"line {lineno}: duplicates line {first} {(p.x, p.y)}")
    return _build(PointSet.of, list(line_of), eps)


def load_points(path: str) -> PointSet:
    return _in_file(path, parse_points_csv)


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


def _epsilon(meta) -> float:
    """``meta.epsilon`` or the default; a finite nonnegative number."""
    eps = meta.get("epsilon", DEFAULT_EPSILON)
    if type(eps) not in (int, float) or not 0 <= eps <= sys.float_info.max:
        raise ValueError(
            f"meta.epsilon must be a finite nonnegative JSON number, got {eps!r}"
        )
    return eps


def _flat_pairs(span: str, kinds: tuple) -> np.ndarray | None:
    """``span``, the writer's ``[[a,b],...]``, read with one flat ``json.loads``.

    With its number characters deleted, the span must be the brackets and
    commas of m pairs, and its joints must be the literal ``[[``, ``],[``
    and ``]]``, so that numbers sit only inside pairs and replacing the
    joints by commas leaves the 2m numbers for ``json`` to read.  The array
    is float64 if a number has a fraction or exponent (a float to ``json``),
    else int64, as ``pair_array`` makes it.  None if the span is not so, a
    float is not in ``kinds`` or a value does not fit the dtype.
    """
    real = any(c in span for c in ".eE")
    if (real and float not in kinds) or not span.isascii():
        return None
    dtype = np.float64 if real else np.int64
    if span == "[]":
        return np.empty((0, 2), dtype)
    raw = span.encode("ascii")
    frame = raw.translate(None, b"0123456789+-.eE")
    m = len(frame) // 4
    joints = raw[:2] == b"[[" and raw[-2:] == b"]]" and raw.count(b"],[") == m - 1
    if not joints or frame != b"[" + (b"[,]," * m)[:-1] + b"]":
        return None
    try:
        flat = json.loads("[" + span[2:-2].replace("],[", ",") + "]")
        return np.fromiter(flat, dtype, len(flat)).reshape(-1, 2)
    except (ValueError, OverflowError):
        return None


def _read_compact(text: str):
    """``(xy, edges, eps)`` of the writer's own layout, else None.

    ``{"edges":A,"meta":M,"points":B}`` and trailing whitespace, where A is
    the span up to the first ``,"meta":`` and B starts at the last
    ``,"points":``.  If A and B pass ``_flat_pairs`` and M is a JSON value,
    the text is exactly that object, so ``json.loads`` of it would give the
    same arrays and meta.
    """
    end, start = text.find(',"meta":'), text.rfind(',"points":[')
    body = text.rstrip(" \t\n\r")
    layout = text.startswith('{"edges":[') and body.endswith("}")
    if not (layout and 0 < end <= start - 8):
        return None
    try:  # not JSON, not an object (no .get) or a bad epsilon
        eps = _epsilon(json.loads(text[end + 8 : start]))
    except (ValueError, AttributeError, RecursionError):
        return None
    xy = _flat_pairs(body[start + 10 : -1], (int, float))
    edges = None if xy is None else _flat_pairs(text[9:end], (int,))
    return None if edges is None else (xy, edges, eps)


def _read_general(text: str):
    """``(xy, edges, eps)`` of any graph JSON; the edges stay as read."""
    try:
        obj = json.loads(text)
        raw_pts, raw_edges = obj["points"], obj["edges"]
        eps = _epsilon(obj.get("meta", {}))
    except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
        raise FormatError(f"bad graph file: {exc}") from exc
    return _build(pair_array, raw_pts, (int, float), "point"), raw_edges, eps


def graph_from_json(text: str) -> Graph:
    """The graph a graph JSON text holds; the writer's layout takes the fast path."""
    xy, edges, eps = _read_compact(text) or _read_general(text)
    real = xy.dtype == np.float64
    ps = _build(PointSet, xy[:, 0], xy[:, 1], float(eps) if real else 0.0)
    return _build(Graph, ps, edges)


def save_graph(g: Graph, path: str, meta: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(graph_to_json(g, meta))


def load_graph(path: str) -> Graph:
    return _in_file(path, graph_from_json)


def graph_to_svg(g: Graph, disk_edge: tuple[int, int] | None = None) -> str:
    """Static SVG of the graph, optionally with one edge's diametral disk."""
    xs = g.points.xs.astype(np.float64).tolist()
    ys = g.points.ys.astype(np.float64).tolist()
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span = max(x1 - x0, y1 - y0) or 1.0
    margin = 0.05 * span
    scale = SVG_WIDTH / (span + 2 * margin)

    def sx(x: float) -> float:
        return round((x - x0 + margin) * scale, 3)

    def sy(y: float) -> float:
        # flip so larger y is drawn higher
        return round((y1 - y + margin) * scale, 3)

    height = round((y1 - y0 + 2 * margin) * scale, 3)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" '
        f'height="{height}" viewBox="0 0 {SVG_WIDTH} {height}">'
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
    rad = round(0.004 * SVG_WIDTH, 1)
    for x, y in zip(xs, ys):
        out.append(f'<circle cx="{sx(x)}" cy="{sy(y)}" r="{rad}" fill="#222"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
