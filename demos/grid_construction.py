"""
Dense locally Gabriel graphs on the integer grid
================================================

Builds the grid construction in both step modes, compares edge counts,
and renders the neighborhood of one center point to an SVG file.
"""

import math

from lgg import GridParams, Mode, build, step_states
from lgg.io import graph_to_svg, save_graph

# Build a 60 x 60 grid (3600 points) with the greedy step rule: every
# center point walks counter-clockwise through its first quadrant, always
# taking the nearest grid point that stays outside the current diametral
# disk and below its tangent.
params = GridParams(g=60)
graph, stats = build(params)
print(f"greedy    g=60: {stats.total_edges} edges, {stats.conflicts} conflicts")

# The analysis-guided rule takes the closed-form step instead: x-offset
# ceil(c1 sqrt(x)) and y-offset floor(h + 1) from the step equation.
graph_a, stats_a = build(GridParams(g=60, mode=Mode.ANALYSIS_GUIDED))
print(f"analysis  g=60: {stats_a.total_edges} edges, {stats_a.conflicts} conflicts")

# Look at the walk that every center point shares, as offsets from the
# center. The edge direction starts nearly horizontal and rises step by
# step toward 45 degrees.
for st in step_states(params):
    deg = math.degrees(st.theta)
    print(f"  offset ({st.x:2d},{st.y:2d})  angle {deg:6.3f} deg")

# Per-center neighbor counts grow with the grid: the walk gets more steps
# as the initial x-offset s = g/3 grows.
for g in (30, 90, 150):
    _, s = build(GridParams(g=g))
    print(f"g={g:3d}: {s.total_edges:6d} edges, {s.q1_count} Q1 neighbors per center")

# Persist the smallest build for inspection.
small, _ = build(GridParams(g=30))
save_graph(small, "grid30.json", {"generator": "grid", "side": 30})
with open("grid30.svg", "w", encoding="utf-8") as fh:
    fh.write(graph_to_svg(small, width=900))
print("wrote grid30.json and grid30.svg")
