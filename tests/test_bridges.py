import pytest

from k5minus.bridges import (
    InvalidSubgraph,
    NoSuchPath,
    bridge_containing_edge,
    bridge_path,
    bridges_from,
    compute_bridges,
)
from k5minus.graphs import Graph


def complete(n):
    return Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def wheel4():
    return Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (1, 4)])


def test_k4_vs_triangle_one_outer_bridge():
    g = complete(4)
    bs = compute_bridges(g, {0, 1, 2}, [(0, 1), (1, 2), (0, 2)])
    assert len(bs) == 1
    (b,) = bs
    assert b.kind == "outer" and b.core == {3} and b.attachments == {0, 1, 2}
    assert b.feet == {(0, 3), (1, 3), (2, 3)}


def test_k4_vs_4cycle_two_inner_bridges():
    g = complete(4)
    bs = compute_bridges(g, {0, 1, 2, 3}, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert [b.kind for b in bs] == ["inner", "inner"]
    assert {tuple(sorted(b.attachments)) for b in bs} == {(0, 2), (1, 3)}


def test_w4_rim_bridge_is_hub():
    g = wheel4()
    bs = compute_bridges(g, {1, 2, 3, 4}, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert len(bs) == 1
    (b,) = bs
    assert b.core == {0} and b.attachments == {1, 2, 3, 4} and len(b.feet) == 4


def test_edge_partition_invariant():
    g = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 1),
                  (2, 6), (6, 7), (7, 3), (6, 3), (0, 2)])
    hv = {0, 1, 2, 3}
    he = [(0, 1), (1, 2), (2, 3), (3, 0)]
    bs = compute_bridges(g, hv, he)
    covered = 0
    for b in bs:
        if b.kind == "inner":
            covered += 1
        else:
            core_internal = sum(
                1 for u, v in g.edges() if u in b.core and v in b.core
            )
            covered += core_internal + len(b.feet)
        assert b.attachments <= hv
    assert covered + len(he) == g.m
    cores = [b.core for b in bs if b.kind == "outer"]
    for i in range(len(cores)):
        assert not (cores[i] & hv)
        for j in range(i + 1, len(cores)):
            assert not (cores[i] & cores[j])


def test_bridge_path_through_core():
    g = wheel4()
    bs = compute_bridges(g, {1, 2, 3, 4}, [(1, 2), (2, 3), (3, 4), (1, 4)])
    p = bridge_path(g, bs[0], 1, 3)
    assert p == (1, 0, 3)


def test_bridge_path_inner_edge():
    g = complete(4)
    bs = compute_bridges(g, {0, 1, 2, 3}, [(0, 1), (1, 2), (2, 3), (0, 3)])
    inner02 = next(b for b in bs if b.attachments == {0, 2})
    assert bridge_path(g, inner02, 0, 2) == (0, 2)


def test_bridge_path_three_path_core():
    # core is a path 3-4-5 hanging between attachments 0 and 1
    g = Graph(6, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5), (5, 1)])
    bs = compute_bridges(g, {0, 1, 2}, [(0, 1), (1, 2), (2, 0)])
    outer = next(b for b in bs if b.kind == "outer")
    assert bridge_path(g, outer, 0, 1) == (0, 3, 4, 5, 1)


def test_bridge_path_avoids_direct_edge():
    # attachments 0, 1 adjacent in H; outer path must run through the core
    g = Graph(4, [(0, 1), (0, 2), (2, 3), (3, 1)])
    bs = compute_bridges(g, {0, 1}, [(0, 1)])
    outer = next(b for b in bs if b.kind == "outer")
    assert bridge_path(g, outer, 0, 1) == (0, 2, 3, 1)


def test_bridge_containing_edge():
    g = wheel4()
    bs = compute_bridges(g, {1, 2, 3, 4}, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert bridge_containing_edge(bs, 0, 2) is bs[0]
    assert bridge_containing_edge(bs, 2, 0) is bs[0]


def test_bridges_from_keeps_first_bridge():
    g = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 1),
                  (2, 6), (6, 7), (7, 3), (6, 3), (0, 2)])
    bs = compute_bridges(g, {0, 1, 2, 3}, [(0, 1), (1, 2), (2, 3), (3, 0)])
    inner, pocket = bs[0], bs[1]
    assert inner.kind == "inner" and pocket.core == {4, 5}
    assert bridges_from(bs, 0) == {0: inner, 2: inner, 1: pocket}


def test_invalid_subgraph_rejected():
    g = complete(4)
    with pytest.raises(InvalidSubgraph):
        compute_bridges(g, {0, 1}, [(0, 2)])
    with pytest.raises(InvalidSubgraph):
        compute_bridges(g, {0, 1, 2}, [(0, 1), (1, 3)])


def test_bridge_path_requires_attachments():
    g = wheel4()
    bs = compute_bridges(g, {1, 2, 3, 4}, [(1, 2), (2, 3), (3, 4), (1, 4)])
    with pytest.raises(NoSuchPath):
        bridge_path(g, bs[0], 0, 1)
