"""The four benchmark workloads: inputs, timed operations, output checks.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned.  A workload builds a fixed list of
inputs from the benchmark seed (``setup``) and solves the whole list in
every pass.  It runs one operation untraced (``run``) or with
one span per call into a library layer (``run_traced``), and checks every
output (``check``): invariants that hold for any seed, plus the outputs
recorded in ``reference.json`` where the inputs are the recorded ones.
``probe`` makes the extra calls only the traced run needs (a separate
``Graph`` build, a ``conflict_kind`` replay); they sit outside the
operation's span, so traced and untraced operation times stay comparable.

Why these workloads:

* ``random-lgg-int`` -- seeded maximal LGGs on 1,024 integer points; the
  generator's exact insertion loop dominates.
* ``random-lgg-real`` -- the same operation on 384 float points, so every
  test goes through the tolerance-banded ``geometry.conflict_kind``.
* ``grid-300`` -- the ``construct grid --side 300`` / ``verify`` CLI round
  trip: grid build, JSON write, JSON parse and re-verify, no generator.
* ``extremal-14`` -- exact maxima of 14-point sets: conflict-graph build
  and branch and bound only.  Per-instance cost is heavy-tailed, so every
  run solves the same list, in a seed-shuffled order.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

#: Seed whose outputs ``reference.json`` records for seed-dependent inputs.
DEFAULT_SEED = 0
#: Generator seeds of the random-LGG workloads, one per op.
GEN_SEEDS = 6
#: Base seed of the extremal list; the run seed only shuffles its order.
EXTREMAL_BASE_SEED = 14

SCALES = {
    "full": {
        "int_points": 1024,
        "real_points": 384,
        "grid_side": 300,
        "extremal_n": 14,
        "extremal_lattice": 16,
        "extremal_sets": 5,
    },
    # Small inputs for the smoke tests.
    "tiny": {
        "int_points": 64,
        "real_points": 48,
        "grid_side": 30,
        "extremal_n": 8,
        "extremal_lattice": 8,
        "extremal_sets": 3,
    },
}

#: Deliberate output corruptions, for the smoke tests of the checks.
CORRUPTIONS = ("none", "drop-edge", "digest")


def edges_digest(edges) -> str:
    """sha256 of the canonical edge list, as compact JSON."""
    text = json.dumps([list(e) for e in edges], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def neighbour_pairs(adjacency) -> int:
    """Sum over vertices of C(deg, 2): the pairs ``verify`` examines."""
    return sum(len(a) * (len(a) - 1) // 2 for a in adjacency)


class Item(NamedTuple):
    """One operation's input; ``key`` names it in the reference file."""

    key: str
    arg: object


class Workload:
    """One workload run: its inputs and how to run and check an op."""

    name = ""
    #: whether the inputs, and so the recorded outputs, depend on the seed
    seed_dependent = True

    def __init__(self, lib, seed: int, scale: str, reference: dict,
                 workdir: Path, corrupt: str = "none") -> None:
        self.lib = lib
        self.seed = seed
        self.size = SCALES[scale]
        self.recorded = reference.get(self.name, {}).get(scale, {})
        self.workdir = workdir
        self.corrupt = corrupt
        self.items: list[Item] = []
        self.setup()

    def setup(self) -> None:
        raise NotImplementedError

    def expected(self, item: Item) -> dict | None:
        """Recorded outputs of ``item``, if its inputs are the recorded ones."""
        if self.seed_dependent and self.seed != DEFAULT_SEED:
            return None
        return self.recorded.get(item.key)

    def check(self, item: Item, out) -> list[str]:
        """Failure messages for one op's output; empty when it is correct."""
        if self.corrupt == "drop-edge":
            self.drop_edge(out)
        bad = [f"{item.key}: {msg}" for msg in self.validate(item, out)]
        want = self.expected(item)
        if want is None:
            if not self.seed_dependent:
                bad.append(f"{item.key}: no recorded output")
            return bad
        got = self.outputs(out)
        if self.corrupt == "digest":
            key = next(k for k in got if k.endswith("digest"))
            got[key] = ("0" if got[key][0] != "0" else "1") + got[key][1:]
        for k, v in got.items():
            if v != want.get(k):
                bad.append(f"{item.key}: {k} {v} != recorded {want.get(k)}")
        return bad

    def drop_edge(self, out) -> None:
        """Remove one edge from the output before it is checked."""

    def close(self) -> None:
        """Remove what the workload wrote."""


# --- random maximal LGGs ----------------------------------------------------


class RandomLgg(Workload):
    """``random_maximal_lgg`` -> ``verify`` -> ``independent_set`` ->
    ``neighborhood_coloring`` on every vertex, one generator seed per op."""

    real = False

    def setup(self) -> None:
        rng = random.Random(self.seed)
        raw: set = set()
        if self.real:
            n = self.size["real_points"]
            while len(raw) < n:
                raw.add((rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)))
            self.points = self.lib.geometry.PointSet.of(sorted(raw), 1e-9)
        else:
            n = self.size["int_points"]
            while len(raw) < n:
                raw.add((rng.randrange(0, 2**20), rng.randrange(0, 2**20)))
            self.points = self.lib.geometry.PointSet.of(sorted(raw))
        self.items = [Item(f"gen-{s}", s) for s in range(GEN_SEEDS)]

    def _op(self, gen_seed: int, span):
        lib = self.lib
        with span("graph.random_maximal_lgg"):
            g = lib.graph.random_maximal_lgg(self.points, gen_seed)
        with span("graph.verify"):
            report = lib.graph.verify(g)
        with span("independence.independent_set"):
            ind = lib.independence.independent_set(g)
        with span("independence.neighborhood_coloring"):
            colours = max(
                max(lib.independence.neighborhood_coloring(g, u).values())
                for u in range(g.n)
            ) + 1
        return SimpleNamespace(graph=g, report=report, ind=ind, colours=colours)

    def run(self, item: Item):
        return self._op(item.arg, _no_span)

    def run_traced(self, item: Item, tracer):
        return self._op(item.arg, tracer.span)

    def probe(self, item: Item, out, tracer) -> None:
        g = out.graph
        with tracer.span("graph.Graph"):
            out.rebuilt = self.lib.graph.Graph(g.points, g.edges)
        out.replay = _replay_conflicts(self.lib, g, tracer)

    def counts(self, out) -> dict:
        g = out.graph
        return {
            "graph.random_maximal_lgg.candidates": g.n * (g.n - 1) // 2,
            "graph.random_maximal_lgg.accepted": len(g.edges),
            "graph.verify.pairs": neighbour_pairs(g.adjacency),
            "graph.Graph.edges": len(g.edges),
            "geometry.conflict_kind.tests": out.replay[0],
            "independence.independent_set.size": len(out.ind.vertices),
            "independence.independent_set.guarantee": _guarantee(g.n),
        }

    def drop_edge(self, out) -> None:
        g = out.graph
        out.graph = self.lib.graph.Graph(g.points, g.edges[:-1])

    def validate(self, item: Item, out) -> list[str]:
        g, vs = out.graph, out.ind.vertices
        bad = []
        if not out.report.valid:
            bad.append(f"verify found {len(out.report.violations)} violations")
        if any(i in vs and j in vs for i, j in g.edges):
            bad.append("independent set contains an edge")
        if len(vs) < _guarantee(g.n):
            bad.append(f"independent set {len(vs)} below guarantee {_guarantee(g.n)}")
        if out.colours > 4:
            bad.append(f"a neighbourhood used {out.colours} colours")
        if hasattr(out, "rebuilt") and out.rebuilt.edges != g.edges:
            bad.append("Graph(points, edges) changed the edge list")
        if hasattr(out, "replay") and out.replay[1]:
            bad.append("conflict_kind found a conflict that verify missed")
        return bad

    def outputs(self, out) -> dict:
        return {"edges_digest": edges_digest(out.graph.edges)}


class RandomLggInt(RandomLgg):
    name = "random-lgg-int"


class RandomLggReal(RandomLgg):
    name = "random-lgg-real"
    real = True


def _guarantee(n: int) -> int:
    return math.ceil(math.ceil(math.sqrt(n)) / 2)


def _replay_conflicts(lib, g, tracer) -> tuple[int, int]:
    """Call ``conflict_kind`` on every neighbour pair: (tests, conflicts)."""
    pts = g.points
    kind = lib.geometry.conflict_kind
    tests = hits = 0
    with tracer.span("geometry.conflict_kind"):
        for u, nbrs in enumerate(g.adjacency):
            p = pts[u]
            for a in range(len(nbrs)):
                q = pts[nbrs[a]]
                for b in range(a + 1, len(nbrs)):
                    tests += 1
                    if kind(p, q, pts[nbrs[b]]) is not None:
                        hits += 1
    return tests, hits


# --- grid construction, CLI round trip ------------------------------------


class Grid(Workload):
    """``lgg construct grid --side G -o F`` then ``lgg verify F``, in process."""

    name = "grid-300"
    seed_dependent = False

    def setup(self) -> None:
        side = self.size["grid_side"]
        self.path = self.workdir / f"grid-{side}-{os.getpid()}.json"
        self.items = [Item(f"grid-{side}", side)]

    def close(self) -> None:
        self.path.unlink(missing_ok=True)

    def _drop_first_edge(self) -> None:
        text = self.path.read_text(encoding="utf-8")
        text = re.sub(r'("edges":\[)\[\d+,\d+\],', r"\1", text, count=1)
        self.path.write_text(text, encoding="utf-8")

    def run(self, item: Item):
        main = self.lib.cli.main
        construct = ["construct", "grid", "--side", str(item.arg), "-o", str(self.path)]
        stdout = io.StringIO()
        with contextlib.redirect_stderr(io.StringIO()):
            rc_construct = main(construct)
            if self.corrupt == "drop-edge":
                self._drop_first_edge()
            with contextlib.redirect_stdout(stdout):
                rc_verify = main(["verify", str(self.path)])
        found = re.search(r"(\d+) edges", stdout.getvalue())
        return SimpleNamespace(
            rc=(rc_construct, rc_verify), edges=int(found.group(1)) if found else None
        )

    def run_traced(self, item: Item, tracer):
        """The public calls the two CLI handlers make, one span each."""
        lib, span = self.lib, tracer.span
        params = lib.grid.GridParams(g=item.arg)
        with span("grid.build"):
            g, _ = lib.grid.build(params)
        meta = {
            "generator": "grid",
            "parameters": {
                "side": item.arg,
                "mode": params.mode.value,
                "theta0": params.theta0,
                "c1": params.c1,
            },
        }
        with span("io.graph_to_json"):
            text = lib.io.graph_to_json(g, meta)
        with span("bench.write"):
            self.path.write_text(text, encoding="utf-8")
        # the construct command has returned, and freed both, before verify
        built_edges, json_bytes = len(g.edges), len(text)
        del g, text
        if self.corrupt == "drop-edge":
            self._drop_first_edge()
        with span("io.load_graph"):
            with span("bench.read"):
                loaded_text = self.path.read_text(encoding="utf-8")
            with span("io.graph_from_json"):
                loaded = lib.io.graph_from_json(loaded_text)
        with span("graph.verify"):
            report = lib.graph.verify(loaded)
        return SimpleNamespace(
            rc=(0, 0 if report.valid else 1),
            edges=len(loaded.edges),
            built_edges=built_edges,
            graph=loaded,
            pairs=neighbour_pairs(loaded.adjacency),
            json_bytes=json_bytes,
            loaded_bytes=len(loaded_text),
        )

    def probe(self, item: Item, out, tracer) -> None:
        g = out.graph
        with tracer.span("graph.Graph"):
            self.lib.graph.Graph(g.points, g.edges)

    def counts(self, out) -> dict:
        return {
            "grid.build.edges": out.built_edges,
            "graph.verify.pairs": out.pairs,
            "graph.Graph.edges": len(out.graph.edges),
            "io.graph_to_json.bytes": out.json_bytes,
            "io.graph_from_json.bytes": out.loaded_bytes,
        }

    def validate(self, item: Item, out) -> list[str]:
        return [] if out.rc == (0, 0) else [f"exit codes {out.rc}"]

    def outputs(self, out) -> dict:
        digest = hashlib.sha256(self.path.read_bytes()).hexdigest()
        return {"edges": out.edges, "json_digest": digest}


# --- exact extremal search ------------------------------------------------


class Extremal(Workload):
    """One ``max_lgg`` call per op over a fixed list of small point sets."""

    name = "extremal-14"
    seed_dependent = False

    def setup(self) -> None:
        lib = self.lib
        n, side = self.size["extremal_n"], self.size["extremal_lattice"]
        lattice = [(x, y) for x in range(side) for y in range(side)]
        base = random.Random(EXTREMAL_BASE_SEED)
        items = [
            Item(f"lattice-{k}", lib.geometry.PointSet.of(sorted(base.sample(lattice, n))))
            for k in range(self.size["extremal_sets"])
        ]
        items.append(Item(f"cycle-{n}", lib.convex.circle_cycle(n).points))
        random.Random(self.seed).shuffle(items)
        self.items = items

    def run(self, item: Item):
        res = self.lib.extremal.max_lgg(item.arg)
        return SimpleNamespace(
            max_edges=res.max_edges, witness=res.witness, nodes=res.nodes_explored
        )

    def run_traced(self, item: Item, tracer):
        """The four steps of ``max_lgg``, one span each."""
        lib, span = self.lib, tracer.span
        with span("extremal.build_conflict_graph"):
            cg = lib.extremal.build_conflict_graph(item.arg)
        with span("extremal.max_independent_candidates"):
            best, nodes = lib.extremal.max_independent_candidates(cg)
        with span("graph.Graph"):
            witness = lib.graph.Graph(item.arg, tuple(cg.candidates[a] for a in best))
        with span("graph.verify"):
            lib.graph.verify(witness)
        return SimpleNamespace(
            max_edges=len(best),
            witness=witness,
            nodes=nodes,
            conflict_pairs=sum(a.bit_count() for a in cg.adjacency) // 2,
        )

    def probe(self, item: Item, out, tracer) -> None:
        out.replay = _replay_conflicts(self.lib, out.witness, tracer)

    def counts(self, out) -> dict:
        w = out.witness
        return {
            "extremal.build_conflict_graph.conflict_pairs": out.conflict_pairs,
            "extremal.max_independent_candidates.nodes": out.nodes,
            "graph.verify.pairs": neighbour_pairs(w.adjacency),
            "graph.Graph.edges": len(w.edges),
            "geometry.conflict_kind.tests": out.replay[0],
        }

    def drop_edge(self, out) -> None:
        w = out.witness
        out.witness = self.lib.graph.Graph(w.points, w.edges[:-1])

    def validate(self, item: Item, out) -> list[str]:
        w = out.witness
        bad = []
        if not self.lib.graph.verify(w).valid:
            bad.append("witness is not a valid LGG")
        if len(w.edges) != out.max_edges:
            bad.append(f"witness has {len(w.edges)} edges, max_edges is {out.max_edges}")
        if item.key.startswith("cycle-") and out.max_edges != len(w.points):
            # the paper's bound for points on a common circle is n, and tight
            bad.append(f"cocircular maximum {out.max_edges} != n = {len(w.points)}")
        if hasattr(out, "replay") and out.replay[1]:
            bad.append("conflict_kind found a conflict that verify missed")
        return bad

    def outputs(self, out) -> dict:
        return {"max_edges": out.max_edges, "witness_digest": edges_digest(out.witness.edges)}


WORKLOADS = {w.name: w for w in (RandomLggInt, RandomLggReal, Grid, Extremal)}

_NULL_SPAN = contextlib.nullcontext()


def _no_span(name):
    return _NULL_SPAN
