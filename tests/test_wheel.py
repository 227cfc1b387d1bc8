import pytest

from k5minus.connectivity import Separator, verify_separator
from k5minus.finder import BudgetTracker
from k5minus.generator import circulant, torus
from k5minus.graphs import Graph
from k5minus.wheel import (
    WheelW4,
    concat,
    fan_seed,
    find_w4,
    improve_once,
    make_short,
    path_edges,
    subpath,
)


def complete(n):
    return Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def wheel4_graph():
    return Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (1, 4)])


def k33():
    return Graph(6, [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)])


def test_path_helpers():
    p = (3, 5, 7, 9)
    assert subpath(p, 5, 9) == (5, 7, 9)
    assert subpath(p, 9, 5) == (9, 7, 5)
    assert subpath(p, 3, 3) == (3,)
    assert concat((1, 2), (2, 3, 4)) == (1, 2, 3, 4)
    assert path_edges((2, 1, 3)) == [(1, 2), (1, 3)]


def test_find_w4_on_wheel_graph():
    w = find_w4(wheel4_graph())
    assert isinstance(w, WheelW4)
    assert w.hub == 0
    assert w.total_spoke_length == 4
    assert w.verify(wheel4_graph()) == []
    # canonicalization: least smr first, then least second
    assert w.smr[0] == min(w.smr)
    assert w.smr[1] < w.smr[3]


def test_find_w4_on_k5():
    w = find_w4(complete(5))
    assert isinstance(w, WheelW4)
    assert w.total_spoke_length == 4
    assert w.verify(complete(5)) == []


def test_find_w4_not_found_on_k33():
    assert find_w4(k33()) is None


def test_reorder_preserves_wheel():
    g = complete(5)
    w = find_w4(g)
    for start in range(4):
        for flip in (False, True):
            r = w.reorder(start, flip)
            assert r.verify(g) == []
            assert r.total_spoke_length == w.total_spoke_length
    assert w.reorder(0, False) == w


def test_unit_spokes_already_minimal():
    g = complete(5)
    w = find_w4(g)
    assert improve_once(g, w) is None


def shortcut_only_instance():
    """W4 graph with spoke 0-1 subdivided through 5 and the 0-1 edge kept.

    The direct edge 0-1 is NOT an initial segment of the spoke (0, 5, 1), so
    despite the obviously lighter wheel that uses it, this wheel is short:
    short wheels need not have minimum total spoke length.
    """
    g = Graph(6, [(0, 5), (5, 1), (0, 1), (0, 2), (0, 3), (0, 4),
                  (1, 2), (2, 3), (3, 4), (1, 4)])
    long_wheel = WheelW4(
        hub=0,
        spokes=((0, 5, 1), (0, 2), (0, 3), (0, 4)),
        smr=(1, 2, 3, 4),
        rim=((1, 2), (2, 3), (3, 4), (4, 1)),
    )
    return g, long_wheel


def improvable_instance():
    """Long spoke (0, 5, 1) whose midpoint 5 can serve as a new rim corner."""
    g = Graph(6, [(0, 5), (5, 1), (0, 2), (0, 3), (0, 4),
                  (1, 2), (2, 3), (3, 4), (1, 4), (5, 2), (5, 4)])
    w = WheelW4(
        hub=0,
        spokes=((0, 5, 1), (0, 2), (0, 3), (0, 4)),
        smr=(1, 2, 3, 4),
        rim=((1, 2), (2, 3), (3, 4), (4, 1)),
    )
    return g, w


def test_shortcut_edge_is_not_an_initial_segment():
    g, long_wheel = shortcut_only_instance()
    assert long_wheel.verify(g) == []
    assert improve_once(g, long_wheel) is None


def test_improve_once_cuts_spoke_at_midpoint():
    g, w = improvable_instance()
    assert w.verify(g) == []
    wit = improve_once(g, w)
    assert wit is not None
    assert wit.wheel.total_spoke_length == 4
    assert wit.wheel.verify(g) == []
    assert wit.wheel.hub == 0
    # every new spoke is an initial segment of the matching old one
    old_by_first_edge = {s[1]: s for s in w.spokes}
    for s in wit.wheel.spokes:
        old = old_by_first_edge[s[1]]
        assert old[: len(s)] == s
    assert wit.prefixes == (1, 1, 1, 1)


def test_make_short_reaches_fixpoint():
    g, w = improvable_instance()
    short, steps, exhausted = make_short(g, w)
    assert not exhausted
    assert len(steps) == 1
    assert short.total_spoke_length == 4
    assert improve_once(g, short) is None


def test_make_short_two_subdivided_spokes():
    # two long spokes whose midpoints 5 and 6 can both become rim corners
    g = Graph(7, [(0, 5), (5, 1), (0, 6), (6, 2),
                  (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (1, 4),
                  (5, 6), (6, 3), (5, 4)])
    w = WheelW4(
        hub=0,
        spokes=((0, 5, 1), (0, 6, 2), (0, 3), (0, 4)),
        smr=(1, 2, 3, 4),
        rim=((1, 2), (2, 3), (3, 4), (4, 1)),
    )
    assert w.verify(g) == []
    short, steps, exhausted = make_short(g, w)
    assert not exhausted
    assert short.total_spoke_length == 4
    assert 1 <= len(steps) <= 2
    totals = [s.wheel.total_spoke_length for s in steps]
    assert totals == sorted(totals, reverse=True)
    assert improve_once(g, short) is None


def test_improve_respects_budget():
    g, w = improvable_instance()
    tr = BudgetTracker(2)
    res = improve_once(g, w, tracker=tr)
    from k5minus.finder import BudgetExceeded

    assert isinstance(res, BudgetExceeded)


def test_rim_can_reuse_abandoned_spoke_tail():
    # shorter wheel whose rim passes through the abandoned part of a spoke:
    # spoke 0-5-6-1 with shortcut edge 0-1 absent, but w=5 reachable and the
    # rim can run through 6 and 1
    g = Graph(7, [(0, 5), (5, 6), (6, 1),          # long spoke to 1
                  (0, 2), (0, 3), (0, 4),          # unit spokes
                  (1, 2), (2, 3), (3, 4), (1, 4),  # rim
                  (5, 2), (5, 4)])                 # rim shortcuts at 5
    w = WheelW4(
        hub=0,
        spokes=((0, 5, 6, 1), (0, 2), (0, 3), (0, 4)),
        smr=(1, 2, 3, 4),
        rim=((1, 2), (2, 3), (3, 4), (4, 1)),
    )
    assert w.verify(g) == []
    wit = improve_once(g, w)
    assert wit is not None
    assert wit.wheel.total_spoke_length < 6
    assert wit.wheel.verify(g) == []


# -- the fan seed -------------------------------------------------------------


@pytest.mark.parametrize("g", [circulant(20, (1, 2)), torus(6, 6)], ids=["C20", "T6x6"])
def test_fan_seed_builds_a_wheel(g):
    w = fan_seed(g)
    assert isinstance(w, WheelW4)
    assert w.verify(g) == []
    assert w.hub == 0  # least degree, least label
    assert w == w.canonical()


@pytest.mark.parametrize("s", [56, 84, 360])
def test_fan_seed_blocked_gives_a_small_cut(s):
    from golden_cases import sparse4_graph

    g = sparse4_graph(s)
    sep = fan_seed(g)
    assert isinstance(sep, Separator)
    assert len(sep.cut) <= 3
    assert verify_separator(g, sep)


def test_fan_seed_cut_when_no_rim_through_a_hub_neighbour():
    # three K5s meet only at the hub 0 and at its neighbour 1, so G - 0 has
    # no cycle through 1 at all and {0, 1, 2} cuts the first K5 off
    edges = [(0, 1)]
    for base in (2, 7, 12):
        block = range(base, base + 5)
        edges += [(a, b) for a in block for b in block if a < b]
        edges += [(1, base), (0, base + 1)]
    g = Graph(17, edges)
    assert g.min_degree() == 4 and g.degree(0) == 4
    sep = fan_seed(g)
    assert isinstance(sep, Separator)
    assert sep.cut == {0, 1, 2}
    assert verify_separator(g, sep)


def test_fan_seed_needs_degree_four():
    with pytest.raises(ValueError):
        fan_seed(k33())


def test_find_w4_names_the_stage_that_seeded():
    stages = []
    w = find_w4(torus(4, 4), on_stage=stages.append)
    assert isinstance(w, WheelW4) and stages == ["find_w4"]
    stages.clear()
    g = circulant(20, (1, 2))
    tracker = BudgetTracker()
    w = find_w4(g, tracker=tracker, on_stage=stages.append)
    assert stages == ["fan"] and w == fan_seed(g)
    # the bounded search ran out of its allowance before the fan seed took over
    assert 0 < tracker.used < 50_000


def test_find_w4_below_degree_four_keeps_the_search_answer():
    stages = []
    assert find_w4(k33(), on_stage=stages.append) is None
    assert stages == []
