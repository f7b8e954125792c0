"""Graph container, verifier equivalence, and the random maximal generator."""

import math
import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

import lgg.graph
from conftest import random_int_points, strictly_monotonic_set
from lgg.convex import half_convex_fan
from lgg.geometry import (
    BOUNDARY,
    INTERIOR,
    MAX_REAL_COORD,
    MIN_REAL_COORD,
    PointSet,
)
from lgg.graph import (
    ConflictReport,
    Graph,
    GraphError,
    InvariantViolation,
    Violation,
    _mix,
    checked,
    random_maximal_lgg,
    verify,
)
from reference import random_maximal_direct, verify_direct


class TestGraph:
    def test_edges_canonicalized(self):
        ps = PointSet.of([(0, 0), (10, 0), (0, 10)])
        g = Graph(ps, ((2, 0), (1, 0)))
        assert g.edges == ((0, 1), (0, 2))
        assert g.adjacency == ((1, 2), (0,), (0,))

    def test_degree_and_has_edge(self):
        ps = PointSet.of([(0, 0), (10, 0), (0, 10)])
        g = Graph(ps, ((0, 1),))
        assert np.diff(g.indptr).tolist() == [1, 1, 0]
        assert g.edges == ((0, 1),)

    def test_malformed_edges_rejected(self):
        ps = PointSet.of([(0, 0), (10, 0)])
        with pytest.raises(GraphError):
            Graph(ps, ((0, 0),))
        with pytest.raises(GraphError):
            Graph(ps, ((0, 2),))
        with pytest.raises(GraphError):
            Graph(ps, ((0, 1), (1, 0)))
        with pytest.raises(GraphError, match=r"edge 1: expected a pair, got \(1, 2, 3\)"):
            Graph(ps, [(0, 1), (1, 2, 3)])
        with pytest.raises(GraphError, match=r"edge 0: expected a pair, got \(0, 1, 2\)"):
            Graph(ps, ((0, 1, 2), (1, 2, 3)))
        with pytest.raises(GraphError, match=r"edge 1: expected a pair, got 5"):
            Graph(ps, [(0, 1), 5])
        with pytest.raises(GraphError, match=r"edges: expected an array, got 5"):
            Graph(ps, 5)
        with pytest.raises(GraphError, match="edge 1: .* out of range"):
            Graph(ps, ((0, 1), (1, 10**30)))

    def test_array_input_and_views(self):
        ps = PointSet.of([(0, 0), (10, 0), (0, 10)])
        g = Graph(ps, np.array([[2, 1], [0, 2]]))
        assert g.edge_array.dtype == np.int64
        assert g.edge_array.tolist() == [[0, 2], [1, 2]]
        assert g.indptr.tolist() == [0, 1, 2, 4] and g.indices.tolist() == [2, 2, 0, 1]
        assert g == Graph(ps, [(1, 2), (2, 0)]) and g != Graph(ps, [(1, 2)])
        assert Graph(ps, ()).edge_array.shape == (0, 2)
        with pytest.raises(ValueError):
            g.edge_array[0, 0] = 1
        with pytest.raises(AttributeError):
            g.points = ps

    def test_matches_loop_reference(self):
        # a per-edge reference loop: canonical sorted edges and sorted
        # adjacency, or the first bad edge k
        rng = random.Random(101)
        for _ in range(300):
            n = rng.randrange(1, 12)
            ps = random_int_points(rng, n, 100)
            edges = [(rng.randrange(-1, n + 1), rng.randrange(-1, n + 1))
                     for _ in range(rng.randrange(0, 20))]
            if rng.random() < 0.5:
                edges = [(i, j) for i, j in edges if i != j and 0 <= min(i, j)
                         and max(i, j) < n]
                edges = list({(min(e), max(e)): e for e in edges}.values())
            bad = [k for k, (i, j) in enumerate(edges)
                   if i == j or not (0 <= i < n and 0 <= j < n)]
            canon = sorted((min(e), max(e)) for e in edges)
            if bad:
                with pytest.raises(GraphError, match=f"edge {bad[0]}: "):
                    Graph(ps, edges)
            elif len(set(canon)) < len(canon):
                with pytest.raises(GraphError, match="duplicate edge"):
                    Graph(ps, edges)
            else:
                g = Graph(ps, edges)
                assert g.edges == tuple(canon)
                assert g.adjacency == tuple(
                    tuple(sorted([j for i, j in canon if i == u]
                                 + [i for i, j in canon if j == u]))
                    for u in range(n)
                )
                assert np.diff(g.indptr).tolist() == list(map(len, g.adjacency))


class TestVerify:
    def test_right_triangle_boundary_violations(self):
        ps = PointSet.of([(0, 0), (2, 0), (2, 2)])
        g = Graph(ps, ((0, 1), (1, 2), (0, 2)))
        report = verify(g)
        assert not report.valid
        assert report.violations == (
            Violation(0, 1, 2, BOUNDARY),
            Violation(2, 0, 1, BOUNDARY),
        )

    def test_bent_path_is_valid(self):
        ps = PointSet.of([(0, 0), (1, 0), (1, 1)])
        g = Graph(ps, ((0, 1), (1, 2)))
        assert verify(g).valid

    def test_collinear_path_overlap_is_invalid(self):
        ps = PointSet.of([(0, 0), (1, 0), (2, 0)])
        g = Graph(ps, ((0, 2), (0, 1)))
        report = verify(g)
        assert [v.kind for v in report.violations] == ["interior"]

    def test_checked_rejects_conflicts(self):
        ps = PointSet.of([(0, 0), (1, 0), (2, 0)])
        # (1, 0) lies on the edge from (0, 0) to (2, 0)
        with pytest.raises(InvariantViolation, match=(
                r"^not a valid LGG: 1 conflict, first at vertex 0 with neighbors"
                r" 1 and 2 \(interior\)$")):
            checked(Graph(ps, [(0, 1), (0, 2)]))
        g = Graph(ps, [(1, 0), (2, 1)])
        assert checked(g) is g

    def test_invariant_violation_is_shared(self):
        import lgg.independence

        assert lgg.independence.InvariantViolation is InvariantViolation

    def test_matches_direct_definition_on_random_graphs(self):
        rng = random.Random(97)
        for _ in range(500):
            ps = random_int_points(rng, 20, 50)
            cands = list(combinations(range(20), 2))
            edges = rng.sample(cands, rng.randrange(0, 40))
            g = Graph(ps, tuple(edges))
            assert verify(g) == verify_direct(g)

        # corners and near-corners at +-2**30: dot products up to
        # 2**63 - 2**31, the int64 limit of the documented coordinate range
        lim = 2**30
        for _ in range(20):
            corners = {
                (sx * lim, sy * lim - d * sy) for sx in (-1, 1) for sy in (-1, 1)
                for d in (0, 1)
            }
            while len(corners) < 16:
                corners.add((rng.randint(-lim, lim), rng.randint(-lim, lim)))
            ps = PointSet.of(sorted(corners))
            edges = rng.sample(list(combinations(range(16), 2)), rng.randrange(10, 60))
            g = Graph(ps, tuple(edges))
            assert verify(g) == verify_direct(g)
            assert verify(g).violations

        # high degree: a hub joined to every point has more neighbor pairs
        # than a verifier chunk; random chords add many small degree groups
        ps = random_int_points(rng, 400, 30)
        spokes = [(0, j) for j in range(1, 400)]
        chords = rng.sample(list(combinations(range(400), 2))[399:], 300)
        g = Graph(ps, tuple(spokes + chords))
        assert len(g.adjacency[0]) == 399
        assert verify(g) == verify_direct(g)

    def test_matches_direct_definition_real_mode(self):
        from conftest import real_points

        rng = random.Random(98)
        for _ in range(50):
            ps = real_points(rng, 12)
            edges = rng.sample(list(combinations(range(12), 2)), 20)
            g = Graph(ps, tuple(edges))
            assert verify(g) == verify_direct(g)

        # the right angle at (2, 0), bent inside the 1e-9 band (boundary
        # conflicts) and past it (interior conflicts, or none)
        for dx, kinds in [(0.0, [BOUNDARY] * 2), (1e-12, [BOUNDARY] * 2),
                          (-1e-12, [BOUNDARY] * 2), (1e-10, [BOUNDARY] * 2),
                          (1e-6, [INTERIOR] * 2), (-1e-6, [])]:
            ps = PointSet.of([(0.0, 0.0), (2.0, 0.0), (2.0 + dx, 2.0)], 1e-9)
            g = Graph(ps, ((0, 1), (1, 2), (0, 2)))
            assert verify(g) == verify_direct(g)
            assert [v.kind for v in verify(g).violations] == kinds
        lattice = [(x * 0.1, y * 0.1) for x in range(6) for y in range(6)]
        for _ in range(20):
            ps = PointSet.of(sorted(rng.sample(lattice, 12)), 1e-9)
            edges = rng.sample(list(combinations(range(12), 2)), 20)
            g = Graph(ps, tuple(edges))
            assert verify(g) == verify_direct(g)

    def test_real_coordinates_at_the_bound(self):
        # the right angle at the origin: edges (0, 1) and (0, 2) coexist.
        # At 2**256 every squared distance stays finite; beyond it they
        # overflowed into a boundary conflict, so such points are refused
        s = MAX_REAL_COORD
        assert s == 2.0**256
        ps = PointSet.of([(0.0, 0.0), (s, 0.0), (0.0, s)], 1e-9)
        g = Graph(ps, ((0, 1), (0, 2)))
        assert verify(g).valid and verify(g) == verify_direct(g)
        with pytest.raises(ValueError, match="point 1: non-finite"):
            PointSet.of([(0.0, 0.0), (2 * s, 0.0), (0.0, 2 * s)], 1e-9)

    def test_real_coordinates_at_the_floor(self):
        # the same right angle: below 2**-384 the disk test's products
        # underflowed to zero, so it read as a boundary conflict (at 1e-170
        # and 2**-600); such points are refused, and zero of either sign is not
        assert MIN_REAL_COORD == 2.0**-384
        for s in (MIN_REAL_COORD, 2.0**-256, 1e-100):
            ps = PointSet.of([(0.0, -0.0), (s, 0.0), (-0.0, s)], 1e-9)
            g = Graph(ps, ((0, 1), (0, 2)))
            assert verify(g).valid and verify(g) == verify_direct(g)
        for s in (MIN_REAL_COORD / 2, 1e-170, 2.0**-600, 5e-324):
            with pytest.raises(ValueError, match="point 1: non-finite"):
                PointSet.of([(0.0, 0.0), (s, 0.0), (0.0, s)], 1e-9)

    def test_deleting_edges_preserves_validity(self):
        rng = random.Random(99)
        for trial in range(30):
            ps = random_int_points(rng, 40, 10**6)
            g = random_maximal_lgg(ps, seed=trial)
            keep = rng.sample(g.edges, len(g.edges) // 2)
            assert verify(Graph(ps, tuple(keep))).valid

    @pytest.mark.parametrize("chunk", [1, 8, 100, 1 << 12])
    def test_high_degree_blocks_match_direct_definition(self, monkeypatch, chunk):
        # the hubs of degree 95 and 150 have more pairs than a chunk of 4096;
        # at chunk 1 a chunk holds one neighbor position and its later ones
        monkeypatch.setattr(lgg.graph, "_VERIFY_CHUNK", chunk)
        rng = random.Random(chunk)
        ps = random_int_points(rng, 160, 1000)
        edges = {(0, v) for v in range(1, 151)} | {(1, v) for v in range(60, 155)}
        edges |= {tuple(sorted(rng.sample(range(160), 2))) for _ in range(200)}
        g = Graph(ps, sorted(edges))
        assert max(map(len, g.adjacency)) >= 150
        assert verify(g) == verify_direct(g)

    def test_graphs_without_pairs_are_valid(self):
        ps = PointSet.of([(0, 0), (1, 0), (2, 0)])
        for edges in ([], [(0, 2)]):
            assert verify(Graph(ps, edges)) == ConflictReport(())

    def test_high_degree_memory_is_bounded(self):
        g = half_convex_fan(2000).graph  # the centre has degree 1999
        tracemalloc.start()
        try:
            assert verify(g).valid
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestSplitmix:
    def test_reference_values(self):
        # first outputs of the splitmix64 stream seeded with 0: output k
        # mixes the state k * 0x9E3779B97F4A7C15
        assert int(_mix(np.uint64(0))) == 0xE220A8397B1DCDAF
        states = np.arange(3, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        assert _mix(states).tolist() == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


class TestRandomMaximal:
    def test_deterministic(self):
        rng = random.Random(3)
        ps = random_int_points(rng, 60, 10**5)
        assert random_maximal_lgg(ps, 42).edges == random_maximal_lgg(ps, 42).edges
        assert random_maximal_lgg(ps, 42).edges != random_maximal_lgg(ps, 43).edges

    def test_matches_independent_oracle(self):
        rng = random.Random(5)
        for seed in range(10):
            ps = random_int_points(rng, 15, 100)
            got = random_maximal_lgg(ps, seed)
            assert got.edges == random_maximal_direct(ps, seed)

    def test_kernel_matches_oracle_on_wide_and_degenerate_sets(self):
        from conftest import real_points

        rng = random.Random(7)
        ps = random_int_points(rng, 80, 10**6)
        assert random_maximal_lgg(ps, 11).edges == random_maximal_direct(ps, 11)

        # corners and near-corners at +-2**30: int64 dot products up to
        # 2**63 - 2**31 on distinct points
        lim = 2**30
        for hi in (lim, lim - 1):
            corners = {(-lim, -lim), (-lim, hi), (hi, -lim), (hi, hi), (hi, hi - 1)}
            while len(corners) < 24:
                corners.add((rng.randint(-lim, hi), rng.randint(-lim, hi)))
            ps = PointSet.of(sorted(corners))
            assert ps.xs.dtype == ps.ys.dtype == np.int64
            for seed in range(3):
                assert random_maximal_lgg(ps, seed).edges == random_maximal_direct(ps, seed)

        # small lattices: many right angles and collinear triples, with
        # integer and with float coordinates (boundary cases of the band)
        lattice = [(x, y) for x in range(7) for y in range(7)]
        for trial in range(20):
            coords = sorted(rng.sample(lattice, 12))
            for ps in (
                PointSet.of(coords),
                PointSet.of([(x * 0.1, y * 0.1) for x, y in coords], 1e-9),
            ):
                for seed in range(3):
                    got = random_maximal_lgg(ps, seed).edges
                    assert got == random_maximal_direct(ps, seed)

        # cocircular n-gons: every inscribed triangle with a diameter side
        # is right-angled, so many tests fall inside the tolerance band
        for n in (6, 8, 12, 16):
            angles = [2 * math.pi * k / n for k in range(n)]
            ps = PointSet.of([(math.cos(t), math.sin(t)) for t in angles], 1e-9)
            for seed in range(3):
                assert random_maximal_lgg(ps, seed).edges == random_maximal_direct(ps, seed)

        for trial in range(5):
            ps = real_points(rng, 40)
            assert random_maximal_lgg(ps, trial).edges == random_maximal_direct(ps, trial)

    @pytest.mark.parametrize("case", ["lattice-int", "lattice-float", "cocircular"])
    def test_matches_oracle_across_blocks(self, case):
        # more candidates than one block, so the oracle also checks the
        # block boundaries and blocks decided over many rounds
        n = 190
        assert n * (n - 1) // 2 > lgg.graph._BLOCK
        rng = random.Random(17)
        coords = sorted(rng.sample([(x, y) for x in range(20) for y in range(20)], n))
        if case == "lattice-int":
            ps = PointSet.of(coords)
        elif case == "lattice-float":
            ps = PointSet.of([(x * 0.1, y * 0.1) for x, y in coords], 1e-9)
        else:
            angles = [2 * math.pi * k / n for k in range(n)]
            ps = PointSet.of([(math.cos(t), math.sin(t)) for t in angles], 1e-9)
        for seed in range(2):
            assert random_maximal_lgg(ps, seed).edges == random_maximal_direct(ps, seed)

    @pytest.mark.parametrize("block, cells", [(1, 1), (7, 50), (64, 1000)])
    def test_block_and_chunk_sizes_keep_the_result(self, monkeypatch, block, cells):
        # many block boundaries, and narrowing one to a few rows at a time
        from conftest import real_points

        rng = random.Random(21)
        sets = [random_int_points(rng, 40, 30), real_points(rng, 40)]
        want = [[random_maximal_direct(ps, seed) for seed in range(3)] for ps in sets]
        monkeypatch.setattr(lgg.graph, "_BLOCK", block)
        monkeypatch.setattr(lgg.graph, "_NARROW_CELLS", cells)
        for ps, edges in zip(sets, want):
            assert [random_maximal_lgg(ps, seed).edges for seed in range(3)] == edges

    def test_seed_is_any_integer(self):
        ps = random_int_points(random.Random(19), 40, 1000)
        for s in (0, 5, 2**63 - 1):
            want = random_maximal_lgg(ps, s).edges
            assert random_maximal_lgg(ps, np.int64(s)).edges == want
            assert random_maximal_lgg(ps, np.uint64(s)).edges == want
        # taken modulo 2**64
        want = random_maximal_lgg(ps, 2**64 - 1).edges
        assert random_maximal_lgg(ps, -1).edges == want
        assert random_maximal_lgg(ps, np.int64(-1)).edges == want
        with pytest.raises(TypeError):
            random_maximal_lgg(ps, 5.0)

    def test_memory_is_bounded(self):
        # criterion 5's point set: 523,776 candidates
        rng = random.Random(505)
        raw = set()
        while len(raw) < 1024:
            raw.add((rng.randrange(0, 2**20), rng.randrange(0, 2**20)))
        ps = PointSet.of(sorted(raw))
        tracemalloc.start()
        try:
            random_maximal_lgg(ps, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_result_is_valid_and_maximal(self):
        rng = random.Random(9)
        for seed in range(5):
            ps = random_int_points(rng, 30, 10**4)
            g = random_maximal_lgg(ps, seed)
            assert verify(g).valid
            present = set(g.edges)
            for cand in combinations(range(30), 2):
                if cand in present:
                    continue
                extended = Graph(ps, g.edges + (cand,))
                assert not verify(extended).valid, f"{cand} could be added"

    def test_collinear_triple_outcomes(self):
        # The long edge blocks both short edges when it is drawn first;
        # otherwise a short edge excludes the long one and the other short
        # edge joins.  Both results are maximal.
        ps = PointSet.of([(0, 0), (1, 0), (2, 0)])
        seen = set()
        for seed in range(40):
            g = random_maximal_lgg(ps, seed)
            assert g.edges in (((0, 1), (1, 2)), ((0, 2),))
            assert verify(g).valid
            seen.add(g.edges)
        assert len(seen) == 2

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            random_maximal_lgg(PointSet.of([(0, 0)]), 1)

    def test_real_mode(self):
        from conftest import real_points

        rng = random.Random(13)
        ps = real_points(rng, 25)
        g = random_maximal_lgg(ps, 4)
        assert verify(g).valid and len(g.edges) >= 24 // 2

    def test_terminal_degree_on_monotone_sets(self):
        rng = random.Random(15)
        for seed in range(20):
            ps = strictly_monotonic_set(rng, 30)
            g = random_maximal_lgg(ps, seed)
            assert len(g.adjacency[0]) <= 1 and len(g.adjacency[29]) <= 1
