from itertools import combinations
from math import comb

import pytest

from k5minus import connectivity
from k5minus.connectivity import (
    PathSystem,
    Separator,
    fan,
    find_separator,
    max_disjoint_paths,
    min_vertex_cut,
    vertex_connectivity,
    verify_path_system,
    verify_separator,
)
from k5minus.graphs import Graph, components
from k5minus.generator import random_graph, torus


def complete(n):
    return Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def octahedron():
    non = {(0, 1), (2, 3), (4, 5)}
    return Graph(6, [(a, b) for a in range(6) for b in range(a + 1, 6) if (a, b) not in non])


def wheel4():
    return Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (1, 4)])


def brute_min_separator(g, u, v):
    """Smallest vertex set (avoiding u, v) whose removal disconnects u from v."""
    assert not g.has_edge(u, v)
    others = [x for x in g.vertices if x not in (u, v)]
    for size in range(len(others) + 1):
        for cut in combinations(others, size):
            comp_map = {}
            for i, comp in enumerate(components(g, set(cut))):
                for x in comp:
                    comp_map[x] = i
            if comp_map[u] != comp_map[v]:
                return set(cut)
    raise AssertionError


def brute_connectivity(g):
    n = g.n
    if g.is_complete():
        return n - 1
    best = n - 1
    for size in range(n):
        for cut in combinations(range(n), size):
            if len(components(g, set(cut))) > 1:
                return size
    return best


def test_kappa_known_graphs():
    assert vertex_connectivity(complete(5)) == 4
    assert vertex_connectivity(cycle(5)) == 2
    assert vertex_connectivity(Graph(1, [])) == 0
    assert vertex_connectivity(Graph(0, [])) == 0
    assert vertex_connectivity(Graph(4, [(0, 1), (2, 3)])) == 0


def test_kappa_octahedron_vs_bruteforce():
    oct_ = octahedron()
    # no vertex subset of size <= 3 separates it
    for size in range(4):
        for cut in combinations(range(6), size):
            assert len(components(oct_, set(cut))) == 1
    assert vertex_connectivity(oct_) == 4


def test_separator_c5():
    sep = find_separator(cycle(5), 3)
    assert sep is not None and len(sep.cut) == 2
    assert verify_separator(cycle(5), sep)
    # the flow cut of the first pair (0, 2): the neighbours of 0
    assert sep.cut == frozenset({1, 4})


def test_separator_complete_none():
    assert find_separator(complete(5), 4) is None
    assert find_separator(complete(3), 10) is None


def test_separator_shared_k5_blocks():
    edges = set()
    edges.update((a, b) for a in range(5) for b in range(a + 1, 5))
    edges.update((a, b) for a in range(2, 7) for b in range(a + 1, 7))
    g = Graph(7, edges)
    # brute force: no cut of size < 3 works, {2,3,4} does
    assert brute_connectivity(g) == 3
    sep = find_separator(g, 4)
    assert sep is not None and sep.cut == frozenset({2, 3, 4})
    assert verify_separator(g, sep)


def test_max_disjoint_paths_k5():
    ps = max_disjoint_paths(complete(5), 0, 1, 4)
    assert len(ps.paths) == 4
    assert verify_path_system(complete(5), ps)


def test_max_disjoint_paths_c5():
    ps = max_disjoint_paths(cycle(5), 0, 2)
    assert len(ps.paths) == 2
    assert verify_path_system(cycle(5), ps)


def test_max_disjoint_paths_octahedron_poles():
    # poles 0 and 1 are nonadjacent with four common neighbors
    oct_ = octahedron()
    ps = max_disjoint_paths(oct_, 0, 1)
    assert sorted(ps.paths) == [(0, 2, 1), (0, 3, 1), (0, 4, 1), (0, 5, 1)]


def test_menger_duality_small_random():
    # |max disjoint paths| == |min separator| for nonadjacent pairs
    for seed in range(12):
        g = random_graph(7, 0.45, seed)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if g.has_edge(u, v):
                    continue
                ps = max_disjoint_paths(g, u, v)
                assert len(ps.paths) == len(brute_min_separator(g, u, v))
                cut = min_vertex_cut(g, u, v)
                assert len(cut) == len(ps.paths)


def test_fan_k5_direct_edges():
    res = fan(complete(5), 0, {1, 2, 3}, 3)
    assert isinstance(res, PathSystem)
    assert sorted(res.paths) == [(0, 1), (0, 2), (0, 3)]


def test_fan_star():
    st = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    res = fan(st, 0, {1, 2, 3, 4}, 2)
    assert isinstance(res, PathSystem) and len(res.paths) == 2


def test_fan_w4_hub_spokes():
    res = fan(wheel4(), 0, {1, 2, 3, 4}, 4)
    assert isinstance(res, PathSystem)
    assert sorted(res.paths) == [(0, 1), (0, 2), (0, 3), (0, 4)]


def test_fan_blocked_returns_separator():
    # path graph: 0-1-2-3; fan from 0 to {2, 3} with k=2 is blocked by {1}
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    res = fan(g, 0, {2, 3}, 2)
    assert isinstance(res, Separator)
    assert res.cut == frozenset({1})
    assert 0 in res.side_a and {2, 3} <= res.side_b


def test_fan_blocked_adjacent_target():
    # 0 adjacent to 1; the only block for target {1, 3} is {1, 2}
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    res = fan(g, 0, {1, 3}, 2)
    assert isinstance(res, Separator)
    assert res.cut == frozenset({1}) or res.cut == frozenset({1, 2})
    # removing the cut really separates 0 from the leftover targets
    removed = set(res.cut)
    comp_of = {}
    for i, comp in enumerate(components(g, removed)):
        for x in comp:
            comp_of[x] = i
    for t in {1, 3} - removed:
        assert comp_of[t] != comp_of[0]


def test_fan_preconditions():
    with pytest.raises(ValueError):
        fan(complete(5), 0, {0, 1}, 1)
    with pytest.raises(ValueError):
        fan(complete(5), 0, {1, 2}, 3)


def test_kappa4_iff_no_separator_below_4():
    cases = [complete(4), complete(5), complete(6), cycle(5), octahedron()]
    cases += [random_graph(7, 0.55, s) for s in range(10)]
    for g in cases:
        lhs = vertex_connectivity(g) >= 4
        rhs = find_separator(g, 4) is None and g.n >= 5
        assert lhs == rhs, g


def prism(m):
    """C_m x K_2: two m-cycles joined by a perfect matching, kappa = 3."""
    ring = [(i, (i + 1) % m) for i in range(m)]
    return Graph(2 * m, ring + [(m + a, m + b) for a, b in ring] + [(i, m + i) for i in range(m)])


def test_kappa_least_degree_vertex_in_every_min_cut():
    # two K6 joined through v0 = 12, the only vertex of degree 4: every
    # minimum cut is {12}, so the scan must also start from v0's neighbours
    k6 = [(a, b) for a in range(6) for b in range(a + 1, 6)]
    g = Graph(13, k6 + [(a + 6, b + 6) for a, b in k6] + [(12, 0), (12, 1), (12, 6), (12, 7)])
    assert vertex_connectivity(g) == 1
    assert find_separator(g, 4).cut == frozenset({12})


def test_separator_flow_cut_branch():
    # a scan of all comb(150, 3) vertex sets would be far too large; the cut
    # comes from the flow, as every cut does
    g = prism(75)
    assert comb(g.n, 3) > 500_000
    sep = find_separator(g, 4)
    assert sep is not None and verify_separator(g, sep)
    assert sep.cut == frozenset({1, 74, 75})  # the first pair's cut: N(0)


def torus_with_k5():
    """Torus 10x10 with a K5 on 100..104 joined to 97, 98 and 99: n = 105,
    minimum degree 4, and {97, 98, 99} is the only cut of size 3."""
    k5 = [(a, b) for a in range(100, 105) for b in range(a + 1, 105)]
    joins = [(a, b) for a in range(100, 105) for b in (97, 98, 99)]
    return Graph(105, torus(10, 10).edges() + k5 + joins)


def test_separator_is_the_flow_cut(monkeypatch):
    # one candidate cut is tried, not a scan over comb(105, 3) vertex sets
    g = torus_with_k5()
    assert g.min_degree() == 4
    calls = []
    real = connectivity.separator_of
    monkeypatch.setattr(connectivity, "separator_of", lambda *a: calls.append(a) or real(*a))
    sep = find_separator(g, 4)
    assert sep is not None and sep.cut == frozenset({97, 98, 99})
    assert verify_separator(g, sep)
    assert len(calls) == 1


def test_vertex_connectivity_cap():
    assert vertex_connectivity(complete(6), 3) == 3
    assert vertex_connectivity(cycle(5), 4) == 2
    assert vertex_connectivity(octahedron(), 4) == 4
    assert vertex_connectivity(octahedron(), 0) == 0
    with pytest.raises(ValueError):
        vertex_connectivity(cycle(5), -1)


def _differential_graphs():
    densities = (0.2, 0.35, 0.5, 0.7, 0.85)
    for s in range(300):
        yield random_graph(5 + s % 14, densities[s % 5], 9_000_000 + s)


def test_kappa_matches_networkx():
    nx = pytest.importorskip("networkx")
    for g in _differential_graphs():
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        kappa = nx.node_connectivity(h)
        assert vertex_connectivity(g) == kappa, g.edges()
        for k in range(1, 6):
            assert vertex_connectivity(g, k) == min(kappa, k), (g.edges(), k)


def test_separator_matches_networkx():
    nx = pytest.importorskip("networkx")
    for g in _differential_graphs():
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        kappa = nx.node_connectivity(h)
        for k in range(1, 6):
            sep = find_separator(g, k)
            if kappa >= k or g.is_complete():
                assert sep is None, (g.edges(), k)
            else:
                assert sep is not None and len(sep.cut) == kappa, (g.edges(), k)
                assert verify_separator(g, sep), (g.edges(), k)
