"""File formats: points CSV, graph JSON, and a static SVG emitter.

Points CSV holds one ``x,y`` pair of ASCII numbers (no ``1_0`` or other
scripts' digits) per line with optional ``#`` comments.  Integer
coordinates are parsed exactly; a decimal point or exponent anywhere
in the file switches the whole file to real mode with the tolerance
``geometry.DEFAULT_EPSILON``.  Both readers skip a leading UTF-8 byte-order
mark.  An SVG is always ``SVG_WIDTH`` pixels wide.  Every file the package
reads or writes is opened here; ``write_text`` writes None or ``-`` to stdout.

Graph JSON is an object with ``points`` (array of [x, y]), ``edges``
(array of [i, j], i < j, lexicographically sorted) and ``meta``
(generator name, parameters, seed, epsilon).  Output is byte-stable:
canonical edge order, sorted keys, shortest round-trip numbers.

The writer formats the coordinate and edge arrays straight into the text
around ``json.dumps`` of ``meta``: integer pairs with one numpy kernel over
a character matrix, ``_WRITE_CHUNK`` numbers at a time, with no Python int
made per number; float pairs with ``%r``, the repr ``json`` writes.  The
JSON reader reads the writer's own integer layout (those keys in that
order, no whitespace but at the end) array by array, once a span's brackets
and commas are those of a list of pairs.  Each span is read from its bytes
into int64 in pieces of about ``_READ_CHUNK`` bytes, with no Python int per
number, if every number is ``-?(0|[1-9][0-9]*)`` with at most 18 digits:
exact in int64 and the value ``json`` gives.  Every other file, and every
one that path cannot read as ``json.loads`` would (a float anywhere, an
integer of 19 digits or more, a leading zero or ``+``, a bad ``meta``),
goes through the general reader: ``json.loads`` of the whole text, then
one ``geometry.pair_array`` call per array (that of the edges made by
``Graph``), the library's one conversion of outside pairs: arrays of
two-element arrays, coordinates ints or floats, endpoints ints, never
booleans, each checked over the whole array, with the items walked only
when a check fails, to name the first bad one.  So only the
general reader raises a parse error, and its messages are the same for
every layout.  ``Graph`` takes the int64 edge array as it is, so no list is
scanned twice; range and duplicate checks are left to ``PointSet`` and
``Graph``.  The CSV reader parses each row's numbers, so that a bad one
names its line, then makes one ``PointSet.of`` call and names the lines of
the points its error names.  Every malformed input raises ``FormatError``
naming the file and the line, point, edge or array at fault.
"""

from __future__ import annotations

import json
import math
import re
import sys

import numpy as np

from .geometry import DEFAULT_EPSILON, PointSet, pair_array
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
    """The point set of a points CSV text; an error names the line at fault."""
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
    values = []
    for lineno, x, y in rows:
        try:  # a bad number names its line
            values.append((num(x), num(y)))
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
    try:
        return PointSet.of(values, eps)
    except ValueError as exc:  # the points it names become their lines
        msg = re.sub(r"point (\d+)", lambda m: f"line {rows[int(m[1])][0]}", str(exc))
        raise FormatError(msg.replace(" duplicates", ": duplicates", 1)) from exc


def load_points(path: str) -> PointSet:
    """The point set of the points CSV file ``path``; errors name the file."""
    return _in_file(path, parse_points_csv)


#: numbers formatted per pass of ``_int_pairs``; even, so no pair is cut,
#: and small enough that a pass's temporaries (~30 bytes a number) stay near 1 MB
_WRITE_CHUNK = 1 << 15
#: span bytes parsed per pass of ``_flat_pairs``, cut at a ``],[`` joint
_READ_CHUNK = 1 << 18


def _int_text(v: np.ndarray, first: bool) -> np.ndarray:
    """ASCII of the int64 numbers ``v``, of even length, as ``_int_pairs`` writes them.

    Each number becomes one row of a uint8 character matrix: a comma (none
    before the first of all), ``[`` if it opens a pair, its sign, its digits
    from repeated ``divmod`` by 10 and ``]`` if it closes a pair, with the
    unused cells 0; the nonzero cells, in order, are the text.
    """
    neg = v < 0
    q = v.astype(np.uint64)
    np.negative(q, out=q, where=neg)  # |v|, also for -2**63
    width = len(str(int(q.max())))
    mat = np.zeros((len(v), width + 4), np.uint8)
    mat[int(first) :, 0] = ord(",")
    mat[::2, 1] = ord("[")
    mat[neg, 2] = ord("-")
    mat[1::2, -1] = ord("]")
    r = np.empty_like(q)
    for col in range(width + 2, 2, -1):
        live = q != 0  # a leading zero stays 0, but the units digit is kept
        np.divmod(q, 10, out=(q, r))
        np.add(r, ord("0"), out=mat[:, col], casting="unsafe")
        if col < width + 2:
            mat[:, col] *= live
    del q, r  # freed first, or with the mask and its selection they set the peak
    return mat[mat != 0]


def _int_pairs(pairs: np.ndarray) -> list[str]:
    """``",".join("[%d,%d]" % p for p in pairs)`` of an int64 (m, 2) array, in
    pieces of ``_WRITE_CHUNK`` numbers."""
    flat = pairs.reshape(-1)
    return [
        str(_int_text(flat[lo : lo + _WRITE_CHUNK], lo == 0), "ascii")
        for lo in range(0, len(flat), _WRITE_CHUNK)
    ]


def graph_to_json(g: Graph, meta: dict | None = None) -> str:
    """``json.dumps`` of the arrays' ``tolist()`` with sorted keys, byte for byte."""
    ps = g.points
    if ps.is_exact:
        points = _int_pairs(np.column_stack((ps.xs, ps.ys)))
    else:  # %r: the float repr json writes
        xy = np.column_stack((ps.xs, ps.ys)).ravel().tolist()
        points = [",".join(["[%r,%r]"] * len(ps)) % tuple(xy)]
    meta = {**(meta or {}), "epsilon": ps.eps}
    return "".join([
        '{"edges":[', *_int_pairs(g.edge_array), '],"meta":',
        json.dumps(meta, sort_keys=True, separators=(",", ":")),
        ',"points":[', *points, "]}\n",
    ])


def _epsilon(meta) -> float:
    """``meta.epsilon`` or the default; a finite nonnegative number."""
    eps = meta.get("epsilon", DEFAULT_EPSILON)
    if type(eps) not in (int, float) or not 0 <= eps <= sys.float_info.max:
        raise ValueError(
            f"meta.epsilon must be a finite nonnegative JSON number, got {eps!r}"
        )
    return eps


def _ints(b: np.ndarray) -> np.ndarray | None:
    """The integers of ``b``, bytes of a framed span cut at joints, or None.

    Tokens are the runs of ``-`` and digits (after the frame check, all
    else is brackets and commas).  Each must follow ``[`` or ``,`` and
    precede ``,`` or ``]`` inside ``b``, and read ``-?(0|[1-9][0-9]*)`` with
    at most 18 digits, so that it is exact in int64 and is the value
    ``json.loads`` gives; the digits of every token are summed at once, one
    column at a time from the right.
    """
    num = (b >= ord("-")) & (b <= ord("9"))
    bounds = np.flatnonzero(np.diff(num, prepend=False, append=False))
    starts, ends = bounds[::2], bounds[1::2]
    # clipped at the ends of b, the neighbour is the token's own byte
    before, after = b.take(starts - 1, mode="clip"), b.take(ends, mode="clip")
    if not np.all(((before == ord("[")) | (before == ord(",")))
                  & ((after == ord(",")) | (after == ord("]")))):
        return None
    neg = b[starts] == ord("-")
    first = starts + neg
    n = ends - first
    width = n.max(initial=0)
    if n.min(initial=1) < 1 or width > 18:
        return None
    if np.count_nonzero(b == ord("-")) != neg.sum():  # a "-" after a digit or "-"
        return None
    if np.any((b[first] == ord("0")) & (n > 1)):  # a leading zero
        return None
    val = np.zeros(len(n), np.int64)
    for c in range(width, 0, -1):  # the digit c places from a token's end
        d = b.take(ends - c, mode="clip") - ord("0")
        d *= n >= c  # 0 before the token's first digit
        val *= 10
        val += d
    np.negative(val, out=val, where=neg)
    return val


def _flat_pairs(span: str) -> np.ndarray | None:
    """``span``, the writer's ``[[a,b],...]`` of integers, read into int64.

    With its digits and ``-`` deleted, the span must be the brackets and
    commas of m pairs, so a ``+``, a fraction or an exponent fails there.
    ``_ints`` reads the numbers in pieces of about ``_READ_CHUNK`` bytes
    cut at joints; a token there sits after ``[`` or ``,`` and before
    ``,`` or ``]``, in a pair's two number slots, and 2m tokens fill them
    all.  None if the span is not so, or a number is not one ``_ints``
    takes.
    """
    if not span.isascii():
        return None
    raw = span.encode("ascii")
    frame = raw.translate(None, b"0123456789-")
    m = len(frame) // 4
    if frame != b"[" + (b"[,]," * m)[:-1] + b"]":
        return None
    out, k, lo = np.empty(2 * m, np.int64), 0, 0
    while lo < len(raw):
        cut = raw.find(b"],[", lo + _READ_CHUNK)
        hi = len(raw) if cut < 0 else cut + 2
        val = _ints(np.frombuffer(raw, np.uint8, hi - lo, lo))
        if val is None:
            return None
        out[k : k + len(val)] = val
        k, lo = k + len(val), hi
    return out.reshape(-1, 2) if k == 2 * m else None


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
    xy = _flat_pairs(body[start + 10 : -1])
    edges = None if xy is None else _flat_pairs(text[9:end])
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


def write_text(text: str, path: str | None) -> None:
    """Write ``text`` to the file ``path`` in UTF-8; None or ``-`` is stdout."""
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def save_graph(g: Graph, path: str | None, meta: dict | None = None) -> None:
    """Write ``graph_to_json(g, meta)`` with ``write_text``; None or ``-`` is stdout."""
    write_text(graph_to_json(g, meta), path)


def load_graph(path: str) -> Graph:
    """The graph of the graph JSON file ``path``; errors name the file."""
    return _in_file(path, graph_from_json)


def graph_to_svg(g: Graph, disk_edge: tuple[int, int] | None = None) -> str:
    """Static SVG of the graph, optionally with the diametral disk of
    ``disk_edge``, two distinct vertices of ``g``; else a ``ValueError``."""
    if disk_edge is not None:
        if len(disk_edge) != 2 or not 0 <= min(disk_edge) < max(disk_edge) < g.n:
            raise ValueError(f"disk edge {tuple(disk_edge)}: not two of {g.n} vertices")
        i, j = disk_edge
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
