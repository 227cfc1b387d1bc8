import pytest

from k5minus.connectivity import verify_separator
from k5minus.extractor import (
    Found,
    GaveUp,
    NotFourConnected,
    classify_p1,
    extract,
    used_fallback,
)
from k5minus.finder import SearchBudget
from k5minus.generator import (
    complete,
    complete_multipartite,
    generate_4connected,
    random_graph,
    torus,
)
from k5minus.graphs import Graph
from k5minus.oracle import oracle_contains
from k5minus.patterns import K5_MINUS, verify_embedding
from k5minus.wheel import WheelW4


def test_k5_found():
    g = complete(5)
    res = extract(g)
    assert isinstance(res, Found)
    assert verify_embedding(g, res.embedding) == []


def test_c5_low_degree_witness():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    res = extract(g)
    assert isinstance(res, NotFourConnected)
    assert res.witness.kind == "low_degree"
    assert len(res.witness.cut) <= 3
    assert verify_separator(g, res.witness.separator)


def test_tiny_graph_witness():
    res = extract(complete(4))
    assert isinstance(res, NotFourConnected)
    assert res.witness.kind == "too_small"


def test_octahedron_found_matches_oracle():
    g = complete_multipartite((2, 2, 2))
    res = extract(g)
    assert isinstance(res, Found)
    assert verify_embedding(g, res.embedding) == []
    assert oracle_contains(g, K5_MINUS)


def test_two_k5_blocks_sharing_three():
    edges = set()
    edges.update((a, b) for a in range(5) for b in range(a + 1, 5))
    edges.update((a, b) for a in range(2, 7) for b in range(a + 1, 7))
    g = Graph(7, edges)
    res = extract(g)
    # kappa = 3: either a verified cut or a verified certificate is acceptable
    if isinstance(res, Found):
        assert verify_embedding(g, res.embedding) == []
    else:
        assert isinstance(res, NotFourConnected)
        assert len(res.witness.cut) <= 3
        assert verify_separator(g, res.witness.separator)


def test_min_degree_four_but_kappa_one():
    # two K5 blocks sharing a single vertex
    edges = set()
    edges.update((a, b) for a in range(5) for b in range(a + 1, 5))
    edges.update((a, b) for a in [0, 5, 6, 7, 8] for b in [0, 5, 6, 7, 8] if a < b)
    g = Graph(9, edges)
    res = extract(g)
    if isinstance(res, Found):
        assert verify_embedding(g, res.embedding) == []
    else:
        assert isinstance(res, NotFourConnected)
        assert verify_separator(g, res.witness.separator)


def test_outcomes_sound_on_random_graphs():
    for seed in range(60):
        g = random_graph(8, 0.5, seed)
        res = extract(g)
        if isinstance(res, Found):
            assert verify_embedding(g, res.embedding) == []
        elif isinstance(res, NotFourConnected):
            if res.witness.separator is not None:
                assert verify_separator(g, res.witness.separator)
            assert len(res.witness.cut) <= 3
        else:
            pytest.fail(f"gave up on seed {seed}: {res.reason}")


def test_trace_schema_and_progress():
    g = generate_4connected(14, 0.45, seed=5)
    res = extract(g)
    assert isinstance(res, Found)
    for ev in res.trace:
        assert set(ev) == {"step", "case_label", "action", "total_spoke_length"}
    # totals strictly decrease across spoke-changing wheel replacements
    totals = [
        ev["total_spoke_length"]
        for ev in res.trace
        if ev["action"] in ("improve", "spoke_replace")
    ]
    assert all(a > b for a, b in zip(totals, totals[1:]))


@pytest.mark.parametrize("seed, reason", [
    (49, "e_1:to_rim:shorter_claim_failed"),
    (1052, "c_ii_1:to_rim:shorter_claim_failed"),
    (1249, "c_i:7a:k5m_claim_failed"),
])
def test_fallback_reason_kept_in_trace(seed, reason):
    from golden_cases import sparse4_graph

    res = extract(sparse4_graph(seed))
    assert isinstance(res, Found)
    fallbacks = [ev for ev in res.trace if ev["case_label"] == "fallback"]
    assert [ev["action"] for ev in fallbacks] == ["search:" + reason]
    assert used_fallback(res.trace)


def test_budget_exhaustion_gives_up():
    g = generate_4connected(12, 0.5, seed=3)
    res = extract(g, SearchBudget(5))
    assert isinstance(res, GaveUp)
    assert res.nodes_used >= 5


def test_classify_p1_total():
    spokes = ((0, 1, 2), (0, 3, 4), (0, 5, 6), (0, 7, 8))
    rim = ((2, 9, 4), (4, 10, 6), (6, 11, 8), (8, 12, 2))
    w = WheelW4(0, spokes, (2, 4, 6, 8), rim)
    assert classify_p1(w, 6) == "B"
    assert classify_p1(w, 3) == "A"
    assert classify_p1(w, 7) == "A"
    assert classify_p1(w, 10) == "C"
    assert classify_p1(w, 11) == "C"
    assert classify_p1(w, 5) == "D"
    for v in (4, 8, 9, 12, 1, 0):  # v2, v4, rim-1/4 interiors, P1 interior, hub
        assert classify_p1(w, v) == "E"
    with pytest.raises(ValueError):
        classify_p1(w, 2)  # v1 is not a landing vertex


def test_torus_graphs_found_without_fallback():
    for m, n in ((3, 3), (3, 4), (4, 4), (6, 6)):
        g = torus(m, n)
        res = extract(g)
        assert isinstance(res, Found), (m, n)
        assert verify_embedding(g, res.embedding) == []
        assert not used_fallback(res.trace), (m, n)


def test_found_on_dense_mid_size():
    for n, seed in ((20, 1), (28, 2), (36, 3)):
        g = generate_4connected(n, 0.35, seed=seed)
        res = extract(g)
        assert isinstance(res, Found)
        assert verify_embedding(g, res.embedding) == []
