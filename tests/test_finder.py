import importlib.util
import random
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

from k5minus import finder
from k5minus.finder import (
    BudgetExceeded,
    BudgetTracker,
    SearchBudget,
    find_subdivision,
)
from k5minus.generator import random_graph
from k5minus.graphs import Graph
from k5minus.oracle import oracle_contains
from k5minus.patterns import C4, K5, K5_MINUS, W4, verify_embedding


def complete(n):
    return Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def k33():
    return Graph(6, [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)])


def wheel4():
    return Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (1, 4)])


def octahedron():
    non = {(0, 1), (2, 3), (4, 5)}
    return Graph(6, [(a, b) for a in range(6) for b in range(a + 1, 6) if (a, b) not in non])


def subdivided(pattern, per_edge):
    """pattern with `per_edge` new vertices on every edge."""
    n = pattern.k
    edges = []
    for a, b in pattern.edges:
        chain = [a, *range(n, n + per_edge), b]
        n += per_edge
        edges += zip(chain, chain[1:])
    return Graph(n, edges)


def graph_from_mask(n, mask):
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def test_k5_contains_k5_minus():
    emb = find_subdivision(complete(5), K5_MINUS)
    assert emb is not None and not isinstance(emb, BudgetExceeded)
    assert verify_embedding(complete(5), emb) == []


def test_k33_has_no_k5_minus():
    assert find_subdivision(k33(), K5_MINUS) is None


def test_w4_graph_contains_w4():
    emb = find_subdivision(wheel4(), W4)
    assert emb is not None
    assert verify_embedding(wheel4(), emb) == []
    # hub is the only degree-4 vertex
    assert emb.branch_map[0] == 0


def test_anchored_search_honors_anchors():
    emb = find_subdivision(complete(5), K5_MINUS, anchors={0: 3, 3: 1})
    assert emb is not None
    assert emb.branch_map[0] == 3 and emb.branch_map[3] == 1


def test_restrict_confines_embedding():
    g = complete(7)
    emb = find_subdivision(g, K5_MINUS, restrict=set(range(5)))
    assert emb is not None
    assert emb.vertices() <= set(range(5))


def test_restrict_must_cover_anchors():
    with pytest.raises(ValueError):
        find_subdivision(complete(7), K5_MINUS, anchors={0: 6}, restrict=set(range(5)))


def test_anchor_degree_precondition():
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (1, 4), (1, 5)])
    with pytest.raises(ValueError):
        find_subdivision(g, W4, anchors={0: 5})  # degree 1 < hub degree 4


def test_budget_exceeded_is_distinct():
    g = random_graph(12, 0.5, 7)
    res = find_subdivision(g, K5_MINUS, budget=SearchBudget(3))
    assert isinstance(res, BudgetExceeded)
    assert res.nodes_used <= 3 + 1


def test_tracker_accumulates():
    tr = BudgetTracker(100_000)
    find_subdivision(complete(5), K5_MINUS, tracker=tr)
    assert tr.used > 0
    assert tr.remaining == 100_000 - tr.used


def test_found_embeddings_always_verify():
    for seed in range(20):
        g = random_graph(8, 0.5, seed)
        for pat in (W4, K5_MINUS):
            emb = find_subdivision(g, pat)
            if emb is not None and not isinstance(emb, BudgetExceeded):
                assert verify_embedding(g, emb) == []


def test_oracle_equivalence_all_5_vertex_graphs():
    # every labeled graph on 5 vertices, both patterns
    for mask in range(1 << 10):
        g = graph_from_mask(5, mask)
        for pat in (W4, K5_MINUS):
            emb = find_subdivision(g, pat)
            assert not isinstance(emb, BudgetExceeded)
            assert (emb is not None) == oracle_contains(g, pat)


def test_oracle_equivalence_sample_6_vertex():
    for seed in range(120):
        g = random_graph(6, 0.55, seed)
        for pat in (W4, K5_MINUS):
            emb = find_subdivision(g, pat)
            assert (emb is not None) == oracle_contains(g, pat)


def test_monotone_under_edge_addition():
    for seed in range(15):
        g = random_graph(7, 0.45, seed)
        if find_subdivision(g, W4) is None:
            continue
        edges = set(g.edges())
        missing = [
            (a, b) for a in range(7) for b in range(a + 1, 7) if (a, b) not in edges
        ]
        for extra in missing[:3]:
            bigger = Graph(7, list(edges) + [extra])
            assert find_subdivision(bigger, W4) is not None


def test_anchored_empty_equals_unanchored():
    for seed in range(10):
        g = random_graph(6, 0.5, seed)
        a = find_subdivision(g, W4)
        b = find_subdivision(g, W4, anchors={}, restrict=set(range(6)))
        if a is None:
            assert b is None
        else:
            assert b is not None and a.branch_map == b.branch_map and a.paths == b.paths


def test_deep_subdivision_has_no_recursion_limit():
    # nine paths of 121 edges: one Python frame per path vertex would pass
    # the default recursion limit
    g = subdivided(K5_MINUS, 120)
    assert g.n == 1085
    emb = find_subdivision(g, K5_MINUS)
    assert emb is not None and not isinstance(emb, BudgetExceeded)
    assert verify_embedding(g, emb) == []


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory):
    """The shipped `_finder_c.c`, built with the host C compiler."""
    source = Path(finder.__file__).with_name("_finder_c.c")
    include = sysconfig.get_paths()["include"]
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        pytest.skip("no C compiler")
    if not Path(include, "Python.h").exists():
        pytest.skip("no Python headers")
    out = tmp_path_factory.mktemp("finder_c") / (
        "_finder_c" + sysconfig.get_config_var("EXT_SUFFIX")
    )
    subprocess.run(
        [cc, "-shared", "-fPIC", "-O2", "-w", f"-I{include}", str(source), "-o", str(out)],
        check=True,
    )
    spec = importlib.util.spec_from_file_location("k5minus._finder_c", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def with_compiled(monkeypatch, compiled_kernel):
    monkeypatch.setattr(finder, "_finder_c", compiled_kernel)
    assert finder.compiled_available()


def _outcome(g, pat, limit, backend, anchors=None, restrict=None):
    tracker = BudgetTracker(limit)
    res = find_subdivision(
        g, pat, anchors=anchors, restrict=restrict, backend=backend, tracker=tracker
    )
    if isinstance(res, BudgetExceeded):
        key = ("budget", res.nodes_used)
    elif res is None:
        key = None
    else:
        key = (res.branch_map, res.paths)
    return key, tracker.used


def test_backends_identical(with_compiled):
    for seed in range(40):
        g = random_graph(9, 0.4, seed)
        for pat in (W4, K5_MINUS, C4):
            for limit in (50, 5_000, 2_000_000):
                assert _outcome(g, pat, limit, "c") == _outcome(g, pat, limit, "py")
    # restricted and anchored searches on larger hosts
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(6, 30)
        g = random_graph(n, rng.choice((0.15, 0.25, 0.4)), rng.randrange(10**6))
        pat = rng.choice((W4, K5_MINUS, C4))
        restrict = None
        if rng.random() < 0.6:
            restrict = {v for v in range(n) if rng.random() < 0.8}
        pool = sorted(restrict) if restrict is not None else list(range(n))
        anchors = {}
        for b in range(pat.k):
            if rng.random() < 0.25:
                free = [
                    v for v in pool
                    if g.degree(v) >= pat.degree(b) and v not in anchors.values()
                ]
                if free:
                    anchors[b] = rng.choice(free)
        limit = rng.choice((30, 500, 20_000, 200_000))
        args = (g, pat, limit)
        assert _outcome(*args, "c", anchors, restrict) == _outcome(
            *args, "py", anchors, restrict
        )


def test_large_host_falls_back_to_python(with_compiled):
    from k5minus.finder import backend_for

    g = Graph(70, [(i, i + 1) for i in range(69)])
    assert backend_for(g) == "py"
    with pytest.raises(RuntimeError):
        backend_for(g, "c")
