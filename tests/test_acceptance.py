"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import time
from itertools import combinations

import pytest

from k5minus.audit import audit_tables
from k5minus.connectivity import max_disjoint_paths
from k5minus.extractor import Found, NotFourConnected, extract, used_fallback
from k5minus.finder import BudgetExceeded, find_subdivision
from k5minus.generator import (
    circulant,
    complete,
    complete_multipartite,
    generate_4connected,
    random_graph,
    torus,
)
from k5minus.graphs import Graph, components
from k5minus.oracle import oracle_contains
from k5minus.patterns import K5_MINUS, W4, verify_embedding
from k5minus.connectivity import verify_separator


def _density(n: int) -> float:
    if n <= 8:
        return 0.85
    if n <= 14:
        return 0.6
    if n <= 24:
        return 0.45
    return 0.35


@pytest.fixture(scope="module")
def corpus_results():
    """Criterion 1 corpus: 200 seeded 4-connected graphs plus the families."""
    graphs = []
    for i in range(200):
        n = 6 + (i % 35)
        graphs.append(("random4", generate_4connected(n, _density(n), seed=10_000 + i)))
    graphs.append(("k5", complete(5)))
    graphs.append(("k6", complete(6)))
    graphs.append(("octahedron", complete_multipartite((2, 2, 2))))
    for m in range(3, 7):
        for n in range(3, 7):
            graphs.append((f"torus{m}{n}", torus(m, n)))
    for n in (8, 9, 11, 13):
        graphs.append((f"circulant{n}", circulant(n, (1, 2))))
    results = []
    for name, g in graphs:
        t0 = time.perf_counter()
        res = extract(g)
        results.append((name, g, res, time.perf_counter() - t0))
    return results


def test_criterion_1_theorem_reproduction(corpus_results):
    slowest = 0.0
    for name, g, res, dt in corpus_results:
        assert isinstance(res, Found), f"{name}: {res.outcome}"
        assert verify_embedding(g, res.embedding) == [], name
        assert dt < 5.0, f"{name} took {dt:.2f}s"
        slowest = max(slowest, dt)
    print(f"\n[PASS] criterion 1: {len(corpus_results)} graphs extracted, "
          f"100% verified K5-minus certificates, slowest {slowest:.2f}s")


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    pairs = [(a, b) for a in range(6) for b in range(a + 1, 6)]
    checked = 0
    for mask in range(1 << 15):
        g = Graph(6, [pairs[i] for i in range(15) if mask >> i & 1])
        for pat in (W4, K5_MINUS):
            emb = find_subdivision(g, pat)
            assert not isinstance(emb, BudgetExceeded)
            assert (emb is not None) == oracle_contains(g, pat), (mask, pat.name)
        checked += 1
    dt = time.perf_counter() - t0
    assert dt < 600.0
    print(f"\n[PASS] criterion 2: finder agrees with the exhaustive oracle on "
          f"all {checked} labeled 6-vertex graphs for W4 and K5-minus in {dt:.0f}s")


def test_criterion_3_known_answers():
    k33 = Graph(6, [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)])
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    petersen = Graph(10, outer + spokes + inner)
    w5rim = [(1 + i, 1 + (i + 1) % 5) for i in range(5)]
    w5 = Graph(6, [(0, 1 + i) for i in range(5)] + w5rim)
    octa = complete_multipartite((2, 2, 2))

    assert find_subdivision(complete(5), K5_MINUS) is not None
    assert find_subdivision(k33, K5_MINUS) is None
    assert find_subdivision(petersen, K5_MINUS) is None
    assert find_subdivision(w5, K5_MINUS) is None
    emb = find_subdivision(octa, K5_MINUS)
    assert emb is not None and verify_embedding(octa, emb) == []
    assert oracle_contains(octa, K5_MINUS)
    print("\n[PASS] criterion 3: K5 contains; K3,3, Petersen, W5 do not; "
          "octahedron contains (oracle-confirmed)")


def _brute_min_separator_size(g, u, v):
    others = [x for x in g.vertices if x not in (u, v)]
    for size in range(len(others) + 1):
        for cut in combinations(others, size):
            comp_of = {}
            for i, comp in enumerate(components(g, set(cut))):
                for x in comp:
                    comp_of[x] = i
            if comp_of[u] != comp_of[v]:
                return size
    raise AssertionError


def test_criterion_4_menger_duality():
    pairs_checked = 0
    for seed in range(100):
        n = 5 + (seed % 4)
        g = random_graph(n, 0.45, seed=20_000 + seed)
        for u in range(n):
            for v in range(u + 1, n):
                if g.has_edge(u, v):
                    continue
                ps = max_disjoint_paths(g, u, v)
                assert len(ps.paths) == _brute_min_separator_size(g, u, v), (seed, u, v)
                pairs_checked += 1
    print(f"\n[PASS] criterion 4: Menger duality verified on {pairs_checked} "
          f"nonadjacent pairs across 100 random graphs, zero violations")


def test_criterion_5_table_audit():
    report = audit_tables()
    bad = report.failures()
    assert report.all_pass, [f"{r.name}: wanted {r.expected} got {r.result}" for r in bad]
    n_tables = sum(1 for r in report.rows if r.group.startswith("table"))
    n_figures = sum(1 for r in report.rows if r.group == "figure")
    print(f"\n[PASS] criterion 5: all {n_tables} table rows and {n_figures} "
          f"figure-class composites certified, zero claims falsified")


def _brute_kappa_at_most_3(g):
    if g.n <= 4:
        return True
    for size in range(4):
        for cut in combinations(range(g.n), size):
            if len(components(g, set(cut))) > 1:
                return True
    return False


def test_criterion_6_witness_soundness():
    collected = 0
    seed = 0
    found_count = 0
    while collected < 200:
        seed += 1
        n = 7 + (seed % 4)
        g = random_graph(n, 0.42, seed=30_000 + seed)
        if not _brute_kappa_at_most_3(g):
            continue
        collected += 1
        res = extract(g)
        if isinstance(res, Found):
            found_count += 1
            assert verify_embedding(g, res.embedding) == [], seed
        else:
            assert isinstance(res, NotFourConnected), seed
            w = res.witness
            assert len(w.cut) <= 3, seed
            if w.kind != "too_small":
                assert w.separator is not None
                assert verify_separator(g, w.separator), seed
    print(f"\n[PASS] criterion 6: 200 non-4-connected graphs, "
          f"{200 - found_count} verified witnesses + {found_count} verified "
          f"certificates, zero invalid")


def test_criterion_7_progress_and_fallback_rate(corpus_results):
    fallbacks = 0
    for name, g, res, dt in corpus_results:
        totals = [
            ev["total_spoke_length"]
            for ev in res.trace
            if ev["action"] == "improve"
        ]
        assert all(a > b for a, b in zip(totals, totals[1:])), name
        rim_totals = [
            (i, ev["total_spoke_length"])
            for i, ev in enumerate(res.trace)
            if ev["action"] == "rim_replace"
        ]
        del rim_totals  # rim replacements keep spokes, hence totals, unchanged
        if used_fallback(res.trace):
            fallbacks += 1
    rate = fallbacks / len(corpus_results)
    assert 0.0 <= rate <= 1.0
    print(f"\n[PASS] criterion 7: spoke-changing replacements strictly decrease "
          f"total spoke length on all {len(corpus_results)} traces; "
          f"fallback rate {rate:.1%} (dashboard target < 20%)")
