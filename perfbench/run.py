"""Benchmark of the lgg library: closed-loop workloads, one client each.

Run from the root of a checkout::

    python3 perfbench/run.py --workload random-lgg-int --seed 0 --seconds 28 --trace 0

Workloads: random-lgg-int, random-lgg-real, grid-300, extremal-14 (see
``workloads.py`` for what each one runs and why).  Each run is one
single-threaded process; the library is imported from ``src/`` of the
checkout and receives only the inputs generated from ``--seed``.

Every pass solves the workload's whole list of inputs; passes repeat until
the next one would end after ``--seconds``.  ``--trace 0`` measures the
end-to-end metrics with tracing off.  ``--trace 1`` is a separate traced
run: every op is run untraced and then traced on the
same input, the traced one with a span around each call into a library
layer, and the run reports the per-layer metrics, the layers' self times
and the tracing overhead.  Spans stay in memory and are written to
``perfbench/out/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is a JSON object with the host, the sample counts, the tail percentile,
``fail_ratio``, the failures and the work counts.  Exit status is 0 when a
result was printed, 2 when the library cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from types import SimpleNamespace

from workloads import CORRUPTIONS, SCALES, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 5
#: Iterations of the fixed pure-Python loop timed between ops (see
#: ``calibrate``), and its duration on the reference host, a 2-core
#: Xeon VM at 2.0 GHz running Python 3.11.
CALIBRATION_LOOP = 300_000
CALIBRATION_REF_S = 0.025
#: Modules of ``src/lgg`` the benchmark calls, by layer name.
MODULES = ("geometry", "graph", "grid", "extremal", "independence", "io", "cli", "convex")
#: Layers whose self time the traced run reports; ``bench`` is the
#: benchmark's own code inside an op (file reads and writes, gaps).
SELF_LAYERS = ("geometry", "graph", "grid", "extremal", "independence", "io", "bench")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}

PER_LAYER = {
    "graph.random_maximal_lgg.s": "s",
    "graph.random_maximal_lgg.candidates": "count",
    "graph.random_maximal_lgg.candidates_per_s": "1/s",
    "graph.random_maximal_lgg.accepted": "count",
    "graph.random_maximal_lgg.accept_ratio": "ratio",
    "graph.verify.s": "s",
    "graph.verify.pairs": "count",
    "graph.verify.pairs_per_s": "1/s",
    "graph.Graph.s": "s",
    "graph.Graph.edges_per_s": "1/s",
    "geometry.conflict_kind.tests": "count",
    "geometry.conflict_kind.tests_per_s": "1/s",
    "grid.build.s": "s",
    "grid.build.edges": "count",
    "grid.build.self_s": "s",
    "io.graph_to_json.s": "s",
    "io.graph_to_json.bytes": "bytes",
    "io.graph_from_json.s": "s",
    "io.graph_from_json.mb_per_s": "MB/s",
    "extremal.build_conflict_graph.s": "s",
    "extremal.build_conflict_graph.conflict_pairs": "count",
    "extremal.max_independent_candidates.s": "s",
    "extremal.max_independent_candidates.nodes": "count",
    "extremal.max_independent_candidates.nodes_per_s": "1/s",
    "independence.independent_set.s": "s",
    "independence.independent_set.size_over_guarantee": "ratio",
    "independence.neighborhood_coloring.s": "s",
    "cli.main.s": "s",
    **{f"layer.{name}.self_s": "s" for name in SELF_LAYERS},
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class LibraryMissing(RuntimeError):
    pass


def load_library() -> SimpleNamespace:
    """Import ``lgg`` from this checkout's ``src/``, and nowhere else."""
    src = ROOT / "src"
    if not (src / "lgg" / "__init__.py").is_file():
        raise LibraryMissing(f"no lgg package under {src}")
    sys.path.insert(0, str(src))
    mods = {m: importlib.import_module(f"lgg.{m}") for m in MODULES}
    origin = Path(mods["graph"].__file__).resolve()
    if not origin.is_relative_to(src):
        raise LibraryMissing(f"lgg was imported from {origin}, not from {src}")
    return SimpleNamespace(**mods)


def host_info() -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba": version("numba"),
        "pytest-benchmark": version("pytest-benchmark"),
    }


class Tracer:
    """Spans in memory: name, start, end, parent span, op id, root span name."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.op: int | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        root = self.spans[self._open[0]]["name"] if self._open else name
        rec = {"id": len(self.spans), "name": name, "parent": parent,
               "op": self.op, "root": root, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time by layer: each span's duration minus its children's."""
    child = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] in child:
            child[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (s["end"] - s["start"]) - child[s["id"]]
    return out


def calibrate() -> float:
    """Seconds the fixed calibration loop takes now.

    The speed of a shared VM's cores drifts by up to 1.6x over minutes, and
    the same op's time drifts with it, while the ratio of an op's time to
    this loop's time stays within a few percent.  So op times are reported
    at the reference host's speed: measured time times ``CALIBRATION_REF_S``
    over the loop's median time in the same pass, timed before and after
    each op.  The measured times are in the info line.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc += i * i
    return time.perf_counter() - t0


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with ten
    samples beyond it; below 21 samples that would not exceed the median,
    so the maximum is reported instead, with none beyond it."""
    s = sorted(samples)
    n = len(s)
    if n >= 21:
        return s[n - 11], 100.0 * (n - 10) / n, 10
    return s[-1], 100.0, 0


class Loop:
    """The closed loop: runs passes over the list until the next would overrun."""

    def __init__(self, wl, seconds: float) -> None:
        self.wl = wl
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, bad: list[str]) -> None:
        self.attempted += 1
        if bad:
            self.failed += 1
            self.failures.extend(bad)

    def timed_op(self, item) -> float | None:
        """Run and check one untraced op; its duration, or None if it raised."""
        try:
            t0 = time.perf_counter()
            out = self.wl.run(item)
            dt = time.perf_counter() - t0
            self.record(self.wl.check(item, out))
            return dt
        except Exception as exc:  # an op that raises is a failed op
            self.record([f"{item.key}: {type(exc).__name__}: {exc}"])
            return None

    def passes(self):
        """Yield the item list at least once, then again until the next pass
        would end after ``seconds``, judged by the last pass's duration."""
        start = time.perf_counter()
        while True:
            t_pass = time.perf_counter()
            yield self.wl.items
            now = time.perf_counter()
            if (now - start) + (now - t_pass) > self.seconds:
                return


def run_untraced(wl, seconds: float) -> tuple[dict, dict, Loop]:
    loop = Loop(wl, seconds)
    durations: dict[str, list[float]] = {}
    scaled: dict[str, list[float]] = {}
    for items in loop.passes():
        loops = [calibrate()]
        timed = []
        for item in items:
            dt = loop.timed_op(item)
            loops.append(calibrate())
            if dt is not None:
                timed.append((item.key, dt))
        factor = CALIBRATION_REF_S / statistics.median(loops)
        for key, dt in timed:
            durations.setdefault(key, []).append(dt)
            scaled.setdefault(key, []).append(dt * factor)
    if not durations:
        return {}, {"samples": 0}, loop
    # One sample per input, the median of its passes, so the median and the
    # tail are taken over inputs and do not depend on how many passes fit.
    samples = [statistics.median(ds) for ds in scaled.values()]
    measured = [statistics.median(ds) for ds in durations.values()]
    value, pct, beyond = tail(samples)
    metrics = {
        "ops_per_s": len(samples) / sum(samples),
        "op_p50_s": statistics.median(samples),
        "op_tail_s": value,
    }
    info = {"samples": len(samples), "op_tail_percentile": pct,
            "op_tail_samples_beyond": beyond,
            "measured_op_p50_s": statistics.median(measured),
            "measured_op_tail_s": tail(measured)[0],
            "measured_ops_per_s": len(measured) / sum(measured),
            "op_durations_s": durations, "op_durations_at_reference_speed_s": scaled}
    return metrics, info, loop


def run_traced(wl, seconds: float, reference_counts: dict) -> tuple[dict, dict, Loop]:
    loop = Loop(wl, seconds)
    tracer = Tracer()
    untraced, pairs = [], []
    first_counts: dict[str, dict] = {}
    drift: list[str] = []
    op = 0
    for items in loop.passes():
        for item in items:
            dt = loop.timed_op(item)
            if dt is not None:
                untraced.append(dt)
            tracer.op = op
            try:
                with tracer.span("bench.op") as op_span:
                    out = wl.run_traced(item, tracer)
                if dt is not None:
                    pairs.append((dt, op_span["end"] - op_span["start"]))
                with tracer.span("bench.probe"):
                    wl.probe(item, out, tracer)
                loop.record(wl.check(item, out))
                counts = wl.counts(out)
            except Exception as exc:  # an op that raises is a failed op
                loop.record([f"{item.key} (traced): {type(exc).__name__}: {exc}"])
                counts = None
            if op < len(wl.items):
                first_counts[item.key] = counts
            elif item.key in first_counts and counts != first_counts[item.key]:
                drift.append(item.key)
            op += 1
    tracer.op = None

    n = len(wl.items)
    spans = [s for s in tracer.spans if s["op"] is not None and s["op"] < n]
    totals: dict[str, float] = {}
    for counts in first_counts.values():
        for k, v in (counts or {}).items():
            totals[k] = totals.get(k, 0) + v

    def per_op(total: float) -> float:
        return total / n

    def span_time(name: str) -> float:
        return per_op(sum(s["end"] - s["start"] for s in spans if s["name"] == name))

    def count(name: str) -> float:
        return per_op(totals.get(name, 0))

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    t = {name: span_time(name) for name in (
        "graph.random_maximal_lgg", "graph.verify", "graph.Graph",
        "geometry.conflict_kind", "grid.build", "io.graph_to_json",
        "io.graph_from_json", "extremal.build_conflict_graph",
        "extremal.max_independent_candidates", "independence.independent_set",
        "independence.neighborhood_coloring")}
    candidates = count("graph.random_maximal_lgg.candidates")
    accepted = count("graph.random_maximal_lgg.accepted")
    guarantee = count("independence.independent_set.guarantee")
    layer_self = self_times([s for s in spans if s["root"] == "bench.op"])
    metrics = {
        "graph.random_maximal_lgg.s": t["graph.random_maximal_lgg"],
        "graph.random_maximal_lgg.candidates": candidates,
        "graph.random_maximal_lgg.candidates_per_s": rate(candidates, t["graph.random_maximal_lgg"]),
        "graph.random_maximal_lgg.accepted": accepted,
        "graph.random_maximal_lgg.accept_ratio": rate(accepted, candidates),
        "graph.verify.s": t["graph.verify"],
        "graph.verify.pairs": count("graph.verify.pairs"),
        "graph.verify.pairs_per_s": rate(count("graph.verify.pairs"), t["graph.verify"]),
        "graph.Graph.s": t["graph.Graph"],
        "graph.Graph.edges_per_s": rate(count("graph.Graph.edges"), t["graph.Graph"]),
        "geometry.conflict_kind.tests": count("geometry.conflict_kind.tests"),
        "geometry.conflict_kind.tests_per_s": rate(
            count("geometry.conflict_kind.tests"), t["geometry.conflict_kind"]),
        "grid.build.s": t["grid.build"],
        "grid.build.edges": count("grid.build.edges"),
        # estimate: build minus separate Graph and verify calls on the same graph
        "grid.build.self_s": (t["grid.build"] - t["graph.Graph"] - t["graph.verify"]
                              if t["grid.build"] else 0.0),
        "io.graph_to_json.s": t["io.graph_to_json"],
        "io.graph_to_json.bytes": count("io.graph_to_json.bytes"),
        "io.graph_from_json.s": t["io.graph_from_json"],
        "io.graph_from_json.mb_per_s": rate(
            count("io.graph_from_json.bytes") / 1e6, t["io.graph_from_json"]),
        "extremal.build_conflict_graph.s": t["extremal.build_conflict_graph"],
        "extremal.build_conflict_graph.conflict_pairs": count(
            "extremal.build_conflict_graph.conflict_pairs"),
        "extremal.max_independent_candidates.s": t["extremal.max_independent_candidates"],
        "extremal.max_independent_candidates.nodes": count(
            "extremal.max_independent_candidates.nodes"),
        "extremal.max_independent_candidates.nodes_per_s": rate(
            count("extremal.max_independent_candidates.nodes"),
            t["extremal.max_independent_candidates"]),
        "independence.independent_set.s": t["independence.independent_set"],
        "independence.independent_set.size_over_guarantee": rate(
            count("independence.independent_set.size"), guarantee),
        "independence.neighborhood_coloring.s": t["independence.neighborhood_coloring"],
        # the two cli.main calls of the untraced grid op, which the traced op
        # replaces by the public calls the CLI handlers make
        "cli.main.s": statistics.median(untraced) if wl.name == "grid-300" and untraced else 0.0,
        **{f"layer.{name}.self_s": per_op(layer_self.get(name, 0.0)) for name in SELF_LAYERS},
        # traced minus untraced time of the same input, run back to back,
        # so that host speed changes between ops cancel; median over pairs
        "trace.overhead_s": statistics.median(t - u for u, t in pairs) if pairs else 0.0,
        "trace.spans": float(len(tracer.spans)),
    }
    reference = {k: reference_counts.get(k, {}).get("counts") for k in first_counts}
    info = {
        "traced_items": n,
        "pairs": len(pairs),
        "untraced_op_p50_s": statistics.median(u for u, _ in pairs) if pairs else None,
        "traced_op_p50_s": statistics.median(t for _, t in pairs) if pairs else None,
        "counts": first_counts,
        "counts_drift_within_run": drift,
        "counts_vs_reference": (
            "not recorded" if None in reference.values()
            else "match" if reference == first_counts else "differ"),
    }
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans-{wl.name}-seed{wl.seed}.json"
    spans_file.write_text(json.dumps(tracer.spans))
    info["spans_file"] = str(spans_file.relative_to(ROOT))
    return metrics, info, loop


def make_workload(lib, args):
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    OUT_DIR.mkdir(exist_ok=True)
    return WORKLOADS[args.workload](lib, args.seed, args.scale, reference, OUT_DIR,
                                    args.corrupt)


def measure_setup(args) -> list[float]:
    """Time import plus input generation in fresh processes, each scaled to
    the reference host speed by calibration loops run right after it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale]
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=sorted(SCALES), default="full",
                   help="input sizes; 'tiny' is for the smoke tests")
    p.add_argument("--corrupt", choices=CORRUPTIONS, default="none",
                   help="damage every output before it is checked (smoke tests)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    try:
        lib = load_library()
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wl = make_workload(lib, args)
    if args.setup_only:
        elapsed = time.perf_counter() - t0
        print(elapsed * CALIBRATION_REF_S / statistics.median(calibrate() for _ in range(3)))
        return 0
    try:
        setup = measure_setup(args)
        if args.trace:
            reference_counts = wl.recorded if wl.expected(wl.items[0]) is not None else {}
            metrics, info, loop = run_traced(wl, args.seconds, reference_counts)
        else:
            metrics, info, loop = run_untraced(wl, args.seconds)
    finally:
        wl.close()
    fail_ratio = loop.failed / loop.attempted
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["pass_ratio"] = 1.0 - fail_ratio
    units = PER_LAYER if args.trace else END_TO_END
    info.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "scale": args.scale, "trace": args.trace, "corrupt": args.corrupt,
        "host": host_info(), "setup_samples_s": setup, "fail_ratio": fail_ratio,
        "recorded_outputs_checked": wl.expected(wl.items[0]) is not None,
        "failures": loop.failures[:20],
    })
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
