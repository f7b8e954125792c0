"""Golden digests: library and CLI outputs, byte for byte.

Each literal is the sha256 of an output as the library wrote it when the
literal was recorded.  A refactor must leave every one of them unchanged;
a deliberate change of output updates the literal in the same commit.
"""

import hashlib
import json
import random

import pytest

from conftest import random_int_points, real_points
from lgg.cli import main
from lgg.convex import circle_cycle
from lgg.extremal import max_lgg
from lgg.geometry import PointSet
from lgg.graph import random_maximal_lgg
from lgg.grid import GridParams, Mode, neighbors_q1
from lgg.io import graph_to_json


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "args, digest",
    [
        (["grid", "--side", "30"],
         "7ce2fca5d600061b337b8f1a7aa7fdd50ad104f347935ddaf9d8f91f89cecad0"),
        (["grid", "--side", "30", "--mode", "analysis"],
         "6e1e806b1a81310a3c832357f200aec75d7f45e2936dca8cf2ae48797f61da56"),
        (["fan", "--n", "12"],
         "72111d76ebb1e232a05fa623f82436a4afc4309a477b319ee5eb3e2a86bba4c5"),
        (["cycle", "--n", "9"],
         "02132900d04e6e7fc2b1941068db74a65ee734c873d7886ba1fbab5bbc687cb1"),
        (["ladder", "--n", "16"],
         "7ff61aac86518b58f4150f6f66762a9f11b43869b46e2e9aefd3493c9a05e075"),
    ],
    ids=lambda v: "-".join(v) if isinstance(v, list) else None,
)
def test_construct_graph_json(tmp_path, args, digest):
    out = tmp_path / "graph.json"
    assert main(["construct", *args, "-o", str(out)]) == 0
    assert sha256(out.read_bytes()) == digest


def test_random_maximal_lgg_integer():
    ps = random_int_points(random.Random(1), 60, 10**6)
    g = random_maximal_lgg(ps, 5)
    assert sha256(graph_to_json(g)) == (
        "2e76bc55c6cda2d7d622d028d8e3ae73cc9856c27c6b87c0b3aacde887480c22"
    )


def test_random_maximal_lgg_real():
    ps = real_points(random.Random(2), 40)
    g = random_maximal_lgg(ps, 3)
    assert sha256(graph_to_json(g)) == (
        "a0b95828bad2dd07fbefcf296cca7eeabaaca068b0758093baab959e147758c3"
    )


def test_random_maximal_lgg_integer_many_blocks():
    ps = random_int_points(random.Random(4), 300, 10**6)  # 44,850 candidates
    g = random_maximal_lgg(ps, 7)
    assert sha256(graph_to_json(g)) == (
        "03066de0b42d9d83ae35e866f47a5ed91bd416e0dfb98980466e41d6ce71e5d3"
    )


def test_random_maximal_lgg_real_many_blocks():
    ps = real_points(random.Random(6), 200)  # 19,900 candidates
    g = random_maximal_lgg(ps, 8)
    assert sha256(graph_to_json(g)) == (
        "248cddd8259566929c369bb7f7930b6ada05fbbdf9ec8041e65a62e2470b638d"
    )


def _lattice_sets(side, n, seed, count):
    """``count`` sorted n-point samples of a side x side lattice, from one seed."""
    lattice = [(x, y) for x in range(side) for y in range(side)]
    rng = random.Random(seed)
    return [PointSet.of(sorted(rng.sample(lattice, n))) for _ in range(count)]


#: perfbench's extremal-14 inputs (lattice-0..4 and cycle-14) after one
#: 10-point set of a 6 x 6 lattice
WITNESS_INPUTS = [
    *_lattice_sets(6, 10, 3, 1),
    *_lattice_sets(16, 14, 14, 5),
    circle_cycle(14).points,
]


@pytest.mark.parametrize(
    "ps, max_edges, nodes, digest",
    [pytest.param(ps, *case, id=name) for ps, (name, *case) in zip(WITNESS_INPUTS, [
        ("lattice-6x6", 12, 74,
         "332e38cde5782feed4b8f9bda3cb198cd1d8eec7bbe5e8a174f22a534f8ec452"),
        ("lattice-0", 22, 3060,
         "92a2228c2a5b5267e6cc7cbf6ff424cc3f2e76bb08ebd63d11cca16ce20e8434"),
        ("lattice-1", 22, 936,
         "0e70bf5482bd28c9f385d4c5bbb40a376bf9554563bbc1ec522a4b010a1b4ed5"),
        ("lattice-2", 23, 129,
         "3b6843f88ce7e8e8acb0458a21bd9a67e54185be00422070ad5570a896485330"),
        ("lattice-3", 18, 87,
         "34f41ac27f178ef8dbb72969e380806a038fd38158174c9d05b03003d8cf4837"),
        ("lattice-4", 20, 317,
         "3aff4d842274d634a2bd95c0cc21fbd94754749ef797ada62f30cad2cad61477"),
        ("cycle-14", 14, 42,
         "d5a48ec58a1d3df8fc970d944d6c3ae9c75583803168cb6d598fa871a612cceb"),
    ])],
)
def test_max_lgg_witness(ps, max_edges, nodes, digest):
    result = max_lgg(ps)
    assert (result.max_edges, result.nodes_explored) == (max_edges, nodes)
    assert sha256(graph_to_json(result.witness)) == digest


@pytest.mark.parametrize(
    "g, mode, digest",
    [
        (300, Mode.GREEDY_FEASIBLE,
         "8ccd190d4641c8fbeb8c95ee70a73c762e8a42df5dd922adeb8542b653ec6b16"),
        (300, Mode.ANALYSIS_GUIDED,
         "b1a82ff6b0684929f820cf8d214bdfed1cf016bf8b222e2440d43ddfa74d5b9e"),
        (3000, Mode.GREEDY_FEASIBLE,
         "5edb5ac8b9f83a4e6a0589102ef426e48eadbe9dfca0415000d5cfd3ad3407f5"),
        (3000, Mode.ANALYSIS_GUIDED,
         "79ee6eb2572ef252ca786d7714213ff4b2ebe5c2125ba84e46070d31950fac51"),
        (30000, Mode.GREEDY_FEASIBLE,
         "29e4ac8b1ab75f14b94e49838aa17663654515c7e36635b0a1273bede197025b"),
        (30000, Mode.ANALYSIS_GUIDED,
         "17104295a93812b883024c7dceb243c77c698551a751a594cbe160b70d134a1c"),
        (55108, Mode.GREEDY_FEASIBLE,
         "bd430701ee83f133ae1df78dfeb49961ba083e887c14a9a201a654f456082a69"),
        (55108, Mode.ANALYSIS_GUIDED,
         "924716a813dd9fd479af1b1eb00328be44289594541653d2b15454040336bdc8"),
    ],
    ids=lambda v: v.value if isinstance(v, Mode) else None,
)
def test_grid_walk(g, mode, digest):
    walk = neighbors_q1(GridParams(g=g, mode=mode))
    assert sha256(json.dumps(walk, separators=(",", ":"))) == digest
