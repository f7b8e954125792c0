"""Run the benchmark over many seeds and summarise it as a trajectory entry.

    python3 perfbench/sweep.py --seeds 1-10 --label "<commit> <note>"
    python3 perfbench/sweep.py --seeds 1-5 --workloads extremal-14 --out perfbench/out/try.json

For each workload, runs ``run.py --trace 0`` once per seed, one process at a
time, and reports each end-to-end metric's median, quartiles and spread
(quartile distance over the median) against the bound in BENCHMARK.json.
Then it makes two traced runs at the default seed and reports the
per-layer medians, and whether every work count repeated exactly.  The
summary is appended to ``perfbench/trajectory.json``, or to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TRAJECTORY = BENCH_DIR / "trajectory.json"
TRACED_RUNS = 2


def seed_list(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def sweep_workload(name: str, seeds: list[int], seconds: int, bounds: dict) -> dict:
    runs = []
    for seed in seeds:
        t0 = time.perf_counter()
        info, result = bench_run(name, seed, seconds, 0)
        runs.append((info, result))
        print(f"  {name} seed {seed}: {time.perf_counter() - t0:.1f} s wall, "
              f"correct={result['correct']} attempted={result['attempted']}",
              file=sys.stderr)
    end_to_end = {}
    for metric, spec in bounds.items():
        stats = summarise([r["metrics"][metric]["value"] for _, r in runs])
        stats.update(unit=spec["unit"], bound=spec["bound"])
        stats["within_third_of_bound"] = (
            metric == "setup_s" or (stats["spread"] or 0) < spec["bound"] / 3)
        end_to_end[metric] = stats

    traced = [bench_run(name, DEFAULT_SEED, seconds, 1) for _ in range(TRACED_RUNS)]
    counts = [info["counts"] for info, _ in traced]
    per_layer = {
        metric: statistics.median(r["metrics"][metric]["value"] for _, r in traced)
        for metric in traced[0][1]["metrics"]
    }
    return {
        "seeds": seeds,
        "all_correct": all(r["correct"] for _, r in runs + traced),
        "attempted": sum(r["attempted"] for _, r in runs),
        "failed": sum(r["failed"] for _, r in runs),
        "samples_per_run": [i["samples"] for i, _ in runs],
        "op_tail_percentile": [i["op_tail_percentile"] for i, _ in runs],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "counts": counts[0],
        "counts_repeat_exactly": all(c == counts[0] for c in counts)
        and not any(i["counts_drift_within_run"] for i, _ in traced),
        "counts_vs_reference": [i["counts_vs_reference"] for i, _ in traced],
        "trace_overhead_s": per_layer.get("trace.overhead_s"),
        "host": runs[0][0]["host"],
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--label", default="unlabelled")
    p.add_argument("--out", type=Path, default=TRAJECTORY, help="JSON list to append to")
    args = p.parse_args(argv)

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    entry = {"label": args.label, "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
             "seconds": args.seconds, "workloads": {}}
    for name in args.workloads.split(","):
        summary = sweep_workload(name, seed_list(args.seeds), args.seconds, bounds)
        entry["workloads"][name] = summary
        entry["host"] = summary.pop("host")
        for metric, s in summary["end_to_end"].items():
            print(f"{name:16} {metric:12} median {s['median']:.6g} {s['unit']:6} "
                  f"spread {s['spread'] if s['spread'] is not None else float('nan'):.4f} "
                  f"bound {s['bound']} {'ok' if s['within_third_of_bound'] else 'WIDE'}")
        print(f"{name:16} counts repeat exactly: {summary['counts_repeat_exactly']}, "
              f"vs reference: {summary['counts_vs_reference']}, "
              f"all correct: {summary['all_correct']}")
    history = json.loads(args.out.read_text()) if args.out.is_file() else []
    history.append(entry)
    args.out.write_text(json.dumps(history, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
