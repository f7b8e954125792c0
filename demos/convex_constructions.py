"""
Extremal constructions on convex point sets
===========================================

The four families that meet (or approach) the known edge-count bounds:
a path on a monotonic set, the quarter-circle fan, the circle cycle, and
the centrally symmetric two-line ladder.
"""

from lgg import (
    PointSet,
    centrally_symmetric_ladder,
    circle_cycle,
    classify,
    half_convex_fan,
    monotonic_path,
    verify,
)

# Monotonic sets admit at most n - 1 edges, achieved by the path through
# the points in order.
ps = PointSet.of([(0, 5), (1, 3), (3, 2), (6, 1), (10, 0)])
path = monotonic_path(ps)
print(f"path:   n={len(ps)}  edges={len(path.graph.edges)}  (bound n-1)")
print(f"        classified {path.claimed_class.kind.value}")

# Half convex sets admit at most 2n - 3 edges. The fan places n - 1 points
# on a quarter arc and the last point at the center: the arc path plus the
# full star is exactly 2n - 3 edges, and every angle stays acute.
for n in (5, 16, 64):
    fan = half_convex_fan(n)
    assert verify(fan.graph).valid
    print(f"fan:    n={n:3d}  edges={len(fan.graph.edges):3d}  (bound 2n-3)")

# Points on a common circle admit at most n edges: the cycle is tight.
for n in (4, 16, 256):
    cyc = circle_cycle(n)
    assert {len(nbrs) for nbrs in cyc.graph.adjacency} == {2}
    print(f"cycle:  n={n:3d}  edges={len(cyc.graph.edges):3d}  (bound n)")

# Centrally symmetric convex sets admit at most 2n - 3 edges; the ladder
# on the lines x = -1 and x = 1 realizes 2n - 8 and more.
for n in (12, 24, 48):
    lad = centrally_symmetric_ladder(n)
    print(
        f"ladder: n={n:3d}  edges={len(lad.graph.edges):3d}"
        f"  (>= 2n-8 = {2 * n - 8})"
    )

# The classifier recognizes each family.
print("fan points:   ", classify(half_convex_fan(12).points).kind.value)
print("cycle points: ", classify(circle_cycle(9).points).kind.value)
print("ladder points:", classify(centrally_symmetric_ladder(16).points).kind.value)
