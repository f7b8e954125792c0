"""
Independent sets in random maximal LGGs, and edge-count scaling
===============================================================

Any LGG on n points contains an independent set of about sqrt(n)/2
vertices: take a longest monotone subsequence (length >= sqrt(n)) and
peel terminal vertices, each of which has degree at most one.

The grid construction has superlinearly many edges.  Its walk certifies
it and counts its edges without building it, so the count reaches the
largest side, g = 55,108 (n = 3.0e9).
"""

import math
import random

from lgg import (
    PointSet,
    GridParams,
    Mode,
    independent_set,
    longest_monotone_subsequence,
    neighborhood_coloring,
    random_maximal_lgg,
)
from lgg.cli import ScalingSample, fit_exponent
from lgg.grid import MAX_SIDE, certify

# A seeded random maximal LGG: insert candidate pairs in a pseudorandom
# order, keeping every edge that conflicts with nothing inserted so far.
rng = random.Random(1)
raw = set()
while len(raw) < 900:
    raw.add((rng.randrange(2**20), rng.randrange(2**20)))
ps = PointSet.of(sorted(raw))
g = random_maximal_lgg(ps, seed=2024)
print(f"maximal LGG on 900 points: {len(g.edges)} edges")

seq = longest_monotone_subsequence(ps)
print(f"longest monotone subsequence: {len(seq.indices)}"
      f" ({seq.direction.value}), sqrt(n) = {math.sqrt(900):.1f}")

res = independent_set(g)
print(f"independent set: {len(res.vertices)} vertices"
      f" (guarantee {res.guarantee}, via {res.method.value})")

# Neighborhoods in an LGG induce subgraphs of maximum degree 3, so four
# colors always suffice around any vertex.
worst = max(
    max(neighborhood_coloring(g, u).values()) for u in range(g.n)
)
print(f"largest color index over all neighborhoods: {worst} (of at most 3)")

# Edge counts of the grid construction grow superlinearly.  Fit the
# exponent of n over g = 30..55,108 in each mode, against the paper's 5/4.
# These are local slopes over this range, not asymptotic exponents.
sides = (30, 100, 300, 1000, 3000, 10000, 30000, MAX_SIDE)
for mode in Mode:
    samples = []
    for side in sides:
        stats = certify(GridParams(g=side, mode=mode))
        samples.append(ScalingSample(side * side, stats.total_edges))
    print(f"grid ({mode.value}): g={sides[-1]}, n={samples[-1].n},"
          f" edges={samples[-1].edges}, Q1 offsets={stats.q1_count}")
    fit = fit_exponent(samples)
    print(f"  log-log fit over g={sides[0]}..{sides[-1]}: edges ~ n^{fit.slope:.3f}"
          f" (r^2 = {fit.r_squared:.5f}; the paper proves Omega(n^(5/4)))")
