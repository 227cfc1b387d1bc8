import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k5minus.graphs import (
    Graph,
    MalformedEncoding,
    OutOfRange,
    SelfLoop,
    build_graph,
    components,
    induced_subgraph,
    parse_edge_list,
    parse_graph6,
    write_edge_list,
    write_graph6,
)


def complete(n):
    return Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def octahedron():
    non = {(0, 1), (2, 3), (4, 5)}
    return Graph(6, [(a, b) for a in range(6) for b in range(a + 1, 6) if (a, b) not in non])


def reference_graph6(g):
    # independent re-encoding used as the oracle for the library encoder:
    # column-major upper triangle, 6-bit groups, offset 63
    assert g.n <= 62
    bits = ""
    for v in range(1, g.n):
        for u in range(v):
            bits += "1" if g.has_edge(u, v) else "0"
    bits += "0" * (-len(bits) % 6)
    out = chr(g.n + 63)
    for i in range(0, len(bits), 6):
        out += chr(int(bits[i:i + 6] or "0", 2) + 63)
    return out


def test_build_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert [g.degree(v) for v in g.vertices] == [2, 2, 2]
    assert g.m == 3


def test_build_k5_degrees():
    g = complete(5)
    assert all(g.degree(v) == 4 for v in g.vertices)
    assert g.m == 10


def test_self_loop_rejected():
    with pytest.raises(SelfLoop):
        build_graph(2, [(0, 0)])


def test_out_of_range_rejected():
    with pytest.raises(OutOfRange):
        build_graph(2, [(0, 2)])


def test_duplicate_edges_merged():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_k5_graph6_matches_reference():
    g = complete(5)
    assert reference_graph6(g) == "D~{"
    assert write_graph6(g) == "D~{"
    parsed = parse_graph6("D~{")
    assert parsed == g


def test_graph6_header_accepted():
    assert parse_graph6(">>graph6<<D~{") == complete(5)


def test_graph6_empty_graph():
    g = parse_graph6("?")
    assert g.n == 0 and g.m == 0
    assert write_graph6(g) == "?"


def test_graph6_malformed_offsets():
    with pytest.raises(MalformedEncoding):
        parse_graph6("D~")  # truncated
    with pytest.raises(MalformedEncoding):
        parse_graph6("D~{{")  # trailing byte
    with pytest.raises(MalformedEncoding):
        parse_graph6("B" + chr(40))  # data byte below 63


@pytest.mark.parametrize(
    "text, offset, message",
    [
        ("", 0, "empty graph6 string"),
        ("~", 0, "truncated 4-byte size field"),
        ("~?@", 0, "truncated 4-byte size field"),
        ("~~?????", 0, "truncated 8-byte size field"),
        ("~?!?", 1, "bad size byte"),
        ("~~?!????", 2, "bad size byte"),
        ("D~", 2, "need 2 data bytes, got 1"),
        ("B(", 1, "bad data byte 40"),
        ("D~\x7f", 2, "bad data byte 127"),
        ("D {", 1, "bad data byte 32"),
        ("D\xe9{", 1, "bad data byte 233"),
        ("B@", 1, "nonzero padding"),
        ("BA", 1, "nonzero padding"),
        ("D~|", 2, "nonzero padding"),
        ("@!", 1, "trailing bytes"),
        ("D~{{", 3, "trailing bytes"),
        ("D~{{{", 3, "trailing bytes"),
    ],
)
@pytest.mark.parametrize("header", ["", ">>graph6<<"])
def test_graph6_malformed_offset_pinned(text, offset, message, header):
    with pytest.raises(MalformedEncoding) as info:
        parse_graph6(header + text)
    assert info.value.offset == len(header) + offset
    assert str(info.value) == f"{message} (byte {len(header) + offset})"


def test_graph6_roundtrip_sizes_0_to_70():
    # 63..70 take the 4-byte size field; each size also walks every bit
    # position of the upper triangle's index map
    for n in range(71):
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        picks = [pairs[i] for i in range(len(pairs)) if (i * 7 + n) % 5 < 2]
        for g in (Graph(n, picks), Graph(n, pairs)):
            text = write_graph6(g)
            assert parse_graph6(text) == g
            assert parse_graph6(text).edges() == sorted(g.edges())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12), st.data())
def test_graph6_roundtrip_random(n, data):
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    picks = data.draw(st.lists(st.sampled_from(pairs), max_size=30)) if pairs else []
    g = Graph(n, picks)
    assert parse_graph6(write_graph6(g)) == g


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10), st.data())
def test_degree_sum_is_twice_edges(n, data):
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    picks = data.draw(st.lists(st.sampled_from(pairs), max_size=25)) if pairs else []
    g = Graph(n, picks)
    assert sum(g.degree(v) for v in g.vertices) == 2 * g.m


def test_graph6_large_n_roundtrip():
    g = Graph(70, [(i, i + 1) for i in range(69)])
    assert parse_graph6(write_graph6(g)) == g


def test_edge_list_roundtrip():
    g = octahedron()
    assert parse_edge_list(write_edge_list(g)) == g


def test_induced_k5_minus_vertex_is_k4():
    sub, relab = induced_subgraph(complete(5), {0, 2, 3, 4})
    assert sub == complete(4)
    assert sorted(relab) == [0, 2, 3, 4]
    assert sorted(relab.values()) == [0, 1, 2, 3]


def test_induced_c5_three_consecutive_is_path():
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    sub, _ = induced_subgraph(c5, {0, 1, 2})
    assert sub.m == 2 and sorted(sub.degree(v) for v in sub.vertices) == [1, 1, 2]


def test_induced_octahedron_minus_vertex_has_8_edges():
    # brute-force count: removing a degree-4 vertex from the 12-edge octahedron
    oct_ = octahedron()
    expected = sum(1 for (u, v) in oct_.edges() if u != 5 and v != 5)
    assert expected == 8
    sub, _ = induced_subgraph(oct_, {0, 1, 2, 3, 4})
    assert sub.m == 8


def test_induced_identity():
    g = octahedron()
    sub, relab = induced_subgraph(g, range(g.n))
    assert sub == g
    assert relab == {v: v for v in g.vertices}


def test_components_after_removal():
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    comps = components(c5, {0, 2})
    assert comps == [[1], [3, 4]]
