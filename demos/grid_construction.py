"""
Dense locally Gabriel graphs on the integer grid
================================================

Builds the grid construction in both step modes, compares edge counts,
and renders the neighborhood of one center point to an SVG file.
"""

import math

from lgg import GridParams, Mode, build, neighbors_q1, verify
from lgg.grid import certify
from lgg.io import graph_to_svg, save_graph

# Build a 60 x 60 grid (3600 points) with the greedy step rule: every
# center point walks counter-clockwise through its first quadrant, always
# taking the nearest grid point that stays outside the current diametral
# disk and below its tangent. ``build`` certifies the walk before it
# builds anything: the grid is an LGG iff the walk's offsets are pairwise
# conflict-free at the center, and it raises ``InvariantViolation``
# otherwise. The verifier agrees.
params = GridParams(g=60)
graph, stats = build(params)
print(f"greedy    g=60: {stats.total_edges} edges, certified,"
      f" verifier: {'valid' if verify(graph).valid else 'INVALID'}")

# The analysis-guided rule takes the closed-form step instead: x-offset
# ceil(c1 sqrt(x)) and y-offset floor(h + 1) from the step equation.
graph_a, stats_a = build(GridParams(g=60, mode=Mode.ANALYSIS_GUIDED))
print(f"analysis  g=60: {stats_a.total_edges} edges, certified")

# Look at the walk that every center point shares, as offsets from the
# center. The edge direction starts nearly horizontal and rises step by
# step toward 45 degrees.
for x, y in neighbors_q1(params):
    deg = math.degrees(math.atan2(y, x))
    print(f"  offset ({x:2d},{y:2d})  angle {deg:6.3f} deg")

# Per-center neighbor counts grow with the grid: the walk gets more steps
# as the initial x-offset s = g/3 grows. ``certify`` counts the edges from
# the walk alone, without building the graph.
for g in (30, 90, 150, 3000):
    s = certify(GridParams(g=g))
    print(f"g={g:4d}: {s.total_edges:9d} edges, {s.q1_count} Q1 neighbors per center")

# Persist the smallest build for inspection.
small, _ = build(GridParams(g=30))
save_graph(small, "grid30.json", {"generator": "grid", "side": 30})
with open("grid30.svg", "w", encoding="utf-8") as fh:
    fh.write(graph_to_svg(small))
print("wrote grid30.json and grid30.svg")
