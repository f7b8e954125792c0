"""Record the outputs and work counts the benchmark checks against.

    python3 perfbench/record.py

Writes ``perfbench/reference.json``: for every workload and scale, at the
default seed, each item's output digests (generator edge lists, the grid
JSON, the extremal maxima and witnesses) and the work counts of its traced
op.  The untraced and traced ops must agree on every output.  Re-record
only when a change is meant to alter outputs; the benchmark then reports
the new digests as failures until this file is updated.
"""

from __future__ import annotations

import json
import sys

from run import OUT_DIR, REFERENCE, Tracer, host_info, load_library
from workloads import DEFAULT_SEED, SCALES, WORKLOADS


def main() -> int:
    lib = load_library()
    OUT_DIR.mkdir(exist_ok=True)
    reference: dict = {"host": host_info()}
    for name, cls in WORKLOADS.items():
        for scale in SCALES:
            wl = cls(lib, DEFAULT_SEED, scale, {}, OUT_DIR)
            entry = reference.setdefault(name, {}).setdefault(scale, {})
            try:
                for item in sorted(wl.items, key=lambda i: i.key):
                    out = wl.run(item)
                    outputs = wl.outputs(out)
                    bad = wl.validate(item, out)
                    traced = wl.run_traced(item, Tracer())
                    wl.probe(item, traced, Tracer())
                    bad += wl.validate(item, traced)
                    if wl.outputs(traced) != outputs:
                        bad.append("traced op output differs from the untraced op")
                    if bad:
                        print(f"{name}/{scale}/{item.key}: {bad}", file=sys.stderr)
                        return 1
                    entry[item.key] = {**outputs, "counts": wl.counts(traced)}
                    print(f"{name}/{scale}/{item.key}: {outputs}", file=sys.stderr)
            finally:
                wl.close()
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
