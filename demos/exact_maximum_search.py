"""
Exact maximum locally Gabriel graphs on small point sets
========================================================

Valid edge sets are exactly the independent sets of the conflict graph
over all point pairs, so branch and bound finds the true maximum. It
prunes with two bounds: a greedy partition of the open candidates into
cliques (one edge per clique at most), and, per point, a clique cover of
the open candidates at that point, summed and halved since every edge has
two endpoints. A fixing pass in candidate order then picks the
lexicographically least maximum edge set as the witness. Small cases
confirm the convex-position bounds.
"""

import random

from lgg import PointSet, build_conflict_graph, circle_cycle, half_convex_fan, max_lgg

# Three collinear points: the two short segments coexist, the long one
# conflicts with both, so the maximum is 2.
ps = PointSet.of([(0, 0), (1, 0), (2, 0)])
res = max_lgg(ps)
print(f"collinear triple: max={res.max_edges}, witness={res.witness.edges}")

# The conflict graph itself is tiny here: candidates (0,1), (0,2), (1,2),
# with the long edge (0,2) conflicting with each short edge.  Row a of
# the adjacency is a bitset: bit b is set when candidates a and b conflict.
cg = build_conflict_graph(ps)
for a in range(cg.m):
    row = [b for b in range(cg.m) if cg.adjacency[a] >> b & 1]
    print(f"  candidate {cg.candidates[a]} conflicts with {row}")

# Fan point sets meet the half-convex bound 2n - 3 exactly.
for n in (5, 6, 7, 8):
    pts = half_convex_fan(n).points
    res = max_lgg(pts)
    print(f"fan n={n}: max={res.max_edges} (= 2n-3 = {2 * n - 3}),"
          f" explored {res.nodes_explored} nodes")

# Equally spaced circle points max out at n edges: the cycle is optimal.
for n in (6, 8, 10):
    res = max_lgg(circle_cycle(n).points)
    print(f"circle n={n}: max={res.max_edges} (= n)")

# On random point sets the maximum varies; the witness always verifies.
rng = random.Random(7)
for trial in range(3):
    raw = set()
    while len(raw) < 9:
        raw.add((rng.randrange(30), rng.randrange(30)))
    res = max_lgg(PointSet.of(sorted(raw)))
    print(f"random 9 points: max={res.max_edges},"
          f" explored {res.nodes_explored} nodes")
