import hashlib

import pytest

from k5minus import connectivity
from k5minus.connectivity import vertex_connectivity, find_separator
from k5minus.generator import (
    BadSpec,
    ExhaustedAttempts,
    FamilySpec,
    Lcg,
    circulant,
    complete,
    complete_multipartite,
    generate,
    generate_4connected,
    random_graph,
    torus,
)
from k5minus.graphs import write_graph6


def test_lcg_stream_is_pinned():
    # first outputs of the documented LCG from seed 0
    rng = Lcg(0)
    assert rng.next_u64() == 1442695040888963407
    assert rng.next_u64() == 1876011003808476466
    rng = Lcg(1)
    assert rng.next_u64() == (6364136223846793005 + 1442695040888963407) % 2**64


def test_random_graph_deterministic():
    a = random_graph(10, 0.4, 7)
    b = random_graph(10, 0.4, 7)
    c = random_graph(10, 0.4, 8)
    assert a == b
    assert a != c


def test_complete_family():
    g = complete(5)
    assert g.m == 10


def test_octahedron_family():
    g = complete_multipartite((2, 2, 2))
    assert g.n == 6 and g.m == 12
    assert all(g.degree(v) == 4 for v in g.vertices)


def test_torus_family():
    g = torus(3, 3)
    assert g.n == 9 and g.m == 18
    assert all(g.degree(v) == 4 for v in g.vertices)
    with pytest.raises(BadSpec):
        torus(2, 5)


def test_circulant_family():
    g = circulant(8, (1, 2))
    assert all(g.degree(v) == 4 for v in g.vertices)
    with pytest.raises(BadSpec):
        circulant(8, (5,))


def test_family_spec_parsing():
    assert generate(FamilySpec.parse("complete:5")) == complete(5)
    assert generate(FamilySpec.parse("multipartite:2,2,2")) == complete_multipartite((2, 2, 2))
    assert generate(FamilySpec.parse("torus:3,4")) == torus(3, 4)
    assert generate(FamilySpec.parse("circulant:8:1,2")) == circulant(8, (1, 2))
    assert generate(FamilySpec.parse("random:9:0.4"), seed=7) == random_graph(9, 0.4, 7)
    with pytest.raises(BadSpec):
        FamilySpec.parse("mystery:3")
    with pytest.raises(BadSpec):
        FamilySpec.parse("torus:3")


def test_generate_4connected_postcondition():
    g = generate_4connected(9, 0.6, seed=11)
    assert g.min_degree() >= 4
    assert vertex_connectivity(g) >= 4
    assert find_separator(g, 4) is None


def test_generate_4connected_n5_is_k5():
    g = generate_4connected(5, 0.9, seed=0, attempts=2000)
    assert g == complete(5)


def test_generate_4connected_exhaustion():
    with pytest.raises(ExhaustedAttempts):
        generate_4connected(30, 0.05, seed=0, attempts=5)


def _criterion_1_density(n: int) -> float:
    return 0.85 if n <= 8 else 0.6 if n <= 14 else 0.45 if n <= 24 else 0.35


def test_generate_4connected_outputs_pinned():
    # the first 35 graphs of the criterion-1 corpus, n = 6..40, byte for byte
    lines = "".join(
        write_graph6(generate_4connected(n, _criterion_1_density(n), seed=10_000 + n - 6)) + "\n"
        for n in range(6, 41)
    )
    assert hashlib.sha256(lines.encode()).hexdigest() == (
        "2d889c9081e7416c93ae23c789d0ea0500cc7cf21712d6946ebe604fbcca72f2"
    )


def test_generate_4connected_flows_stop_at_4(monkeypatch):
    # "is kappa >= 4?" stops each s,t flow at 4 units: a 4-connected
    # sample gives exactly 4 paths per pair
    real = connectivity._flow_paths_cut
    counts = [0, 0]

    def counted(*args, **kwargs):
        paths, cut = real(*args, **kwargs)
        counts[0] += 1
        counts[1] += len(paths)
        return paths, cut

    monkeypatch.setattr(connectivity, "_flow_paths_cut", counted)
    g = generate_4connected(40, 0.35, seed=10_034)
    assert counts == [216, 864]
    assert g._adj is None  # the flows read the neighbour masks only
