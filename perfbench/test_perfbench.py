"""Tests of the benchmark itself: inputs, output checks, tracing, metric names.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def api():
    return run.load_api()


def _items(api, workload, seed):
    return [item for rnd in workloads.make_rounds(api, workload, seed) for item in rnd]


def _lines(api, workload, seed):
    return [item.line for item in _items(api, workload, seed)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(api, workload):
    first = "\n".join(_lines(api, workload, 3)).encode()
    second = "\n".join(_lines(api, workload, 3)).encode()
    assert first == second


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_gives_other_inputs(api, workload):
    a, b = _items(api, workload, 3), _items(api, workload, 4)
    assert len(a) == len(b)
    assert [x.line for x in a] != [x.line for x in b]
    if workload != "ladder":  # ladder reuses its families under new labels
        assert not {x.key for x in a} & {x.key for x in b}


def test_relabelled_ladder_keeps_edge_count_and_degrees(api):
    family = workloads.ladder_family(api)
    rounds = workloads.make_rounds(api, "ladder", 5)
    assert len(rounds[0]) == len(family) == workloads.RATE_WINDOW["ladder"]
    relabelled_some = False
    for rnd in rounds[:3]:
        for item, (name, g) in zip(rnd, family):
            h = api.graphs.parse_graph6(item.line)
            assert item.key.startswith(name)
            assert (h.n, h.m) == (g.n, g.m)
            assert sorted(h.degree(v) for v in range(h.n)) == sorted(
                g.degree(v) for v in range(g.n))
            relabelled_some |= h != g
    assert relabelled_some


def test_sparse4_inputs_have_min_degree_four(api):
    for rnd in workloads.make_rounds(api, "sparse4", 0)[:2]:
        assert sorted(item.n for item in rnd) == list(range(8, 48))
        for item in rnd:
            assert item.graph.min_degree() >= 4
            assert api.graphs.parse_graph6(item.line) == item.graph


def test_gen4_rounds_cover_the_corpus_sizes(api):
    rnd = workloads.make_rounds(api, "gen4", 2)[0]
    assert [item.n for item in rnd] == list(range(6, 41))


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.per_layer_units()
    assert spec["paths"] == ["perfbench"]


# -- independent output checks ----------------------------------------------------


def _k5minus_embedding(api, g):
    emb = api.finder.find_subdivision(g, api.patterns.K5_MINUS)
    assert isinstance(emb, api.patterns.Embedding)
    return emb


def test_certificate_check_accepts_engine_output(api):
    g = api.generator.circulant(12, (1, 2))
    assert checks.check_certificate(g, _k5minus_embedding(api, g)) is None


def test_certificate_check_rejects_tampering(api):
    g = api.generator.circulant(12, (1, 2))
    emb = _k5minus_embedding(api, g)
    Emb = api.patterns.Embedding
    long_path = max(range(len(emb.paths)), key=lambda i: len(emb.paths[i]))
    path = emb.paths[long_path]
    assert len(path) >= 3  # C_12(1,2) has no K5-minus subgraph: some path bends

    wrong_end = list(emb.paths)
    other_branch = next(b for b in emb.branch_map if b not in (path[0], path[-1]))
    wrong_end[long_path] = path[:-1] + (other_branch,)
    assert "wrong ends" in checks.check_certificate(
        g, Emb(emb.pattern, emb.branch_map, tuple(wrong_end)))

    shortcut = list(emb.paths)
    shortcut[long_path] = (path[0], path[-1])
    if not g.has_edge(path[0], path[-1]):
        assert "not in the graph" in checks.check_certificate(
            g, Emb(emb.pattern, emb.branch_map, tuple(shortcut)))

    shared = list(emb.paths)
    other = next(i for i in range(len(emb.paths)) if i != long_path)
    shared[other] = emb.paths[other][:1] + (path[1],) + emb.paths[other][1:]
    assert checks.check_certificate(g, Emb(emb.pattern, emb.branch_map, tuple(shared)))

    duplicate = (emb.branch_map[0],) * 5
    assert "distinct" in checks.check_certificate(g, Emb(emb.pattern, duplicate, emb.paths))

    k5 = api.patterns.K5
    assert checks.check_certificate(g, Emb(k5, emb.branch_map, emb.paths)) == "pattern is not K5-minus"


def test_cut_check(api):
    g = api.graphs.Graph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])
    assert checks.check_cut(g, [2]) is None
    assert checks.check_cut(g, [0]) == "G - cut is connected"
    assert "> 3" in checks.check_cut(g, [0, 1, 4, 5])


def test_failures_name_gave_up_and_exceptions(api):
    g = api.generator.circulant(10, (1, 2))
    item = workloads.Item("x", api.graphs.write_graph6(g), g, g.n)
    gave_up = api.extractor.GaveUp("budget:find_w4")
    ops = [
        checks.Op(0, item, api.extractor.extract(g), None, 1),
        checks.Op(1, item, gave_up, None, 1),
        checks.Op(2, item, None, "Traceback\nValueError: boom\n", 1),
    ]
    kinds = [f["kind"] for f in checks.failures(ops, "ladder")]
    assert kinds == ["gave_up", "exception"]
    fp = checks.fingerprint(ops, "ladder")
    assert fp["outcomes"] == {"exception": 1, "found": 1, "gave_up": 1}
    assert fp == checks.fingerprint(ops, "ladder")


# -- tracing ------------------------------------------------------------------------


def test_tracer_restores_functions_and_self_times_add_up(api):
    before = {(m, a): getattr(getattr(api, m), a)
              for _, sites in tracing.PATCHES for m, a, _ in sites}
    g = api.generator.circulant(13, (1, 2))
    line = api.graphs.write_graph6(g)
    plain = workloads.op_extract(api, line)
    tracer = tracing.Tracer(api)
    tracer.install()
    try:
        traced = workloads.op_extract(api, line)
    finally:
        tracer.remove()
    assert {k: getattr(getattr(api, k[0]), k[1]) for k in before} == before
    assert traced.embedding == plain.embedding and traced.trace == plain.trace

    metrics, additivity = tracer.layer_metrics()
    assert additivity["self_sum_ns"] == additivity["extract_wall_ns"] > 0
    assert metrics["extractor.extract.calls"] == 1
    assert metrics["finder.find_subdivision.nodes"] == plain.nodes_used
    callers = sum(metrics[f"finder.{c}.calls"] for c in tracing.FINDER_CALLERS)
    assert callers == metrics["finder.find_subdivision.calls"]
    names = Counter(s[tracing.NAME] for s in tracer.spans)
    assert names["wheel.find_w4"] == 1 and names["graphs.parse_graph6"] == 1


def test_layer_metrics_count_a_call_that_raised(api):
    tracer = tracing.Tracer(api)
    tracer.install()
    try:
        with pytest.raises(ValueError):
            api.wheel.find_subdivision(api.generator.complete(5), api.patterns.W4, anchors={0: 99})
    finally:
        tracer.remove()
    metrics, _ = tracer.layer_metrics()
    assert metrics["finder.find_subdivision.calls"] == 1
    assert metrics["finder.budget_exceeded"] == 0


def test_calibration_unit_is_fixed_work():
    assert speed.unit() == speed.unit()


def test_speed_factor_follows_the_calibrations_around_a_moment():
    cal = speed.Calibrator()
    ref = speed.REF_UNIT_NS
    # a host at half the reference speed for 20 units, then at full speed
    cal.points = [(t, 2 * ref) for t in range(20)] + [(t, ref) for t in range(20, 40)]
    assert cal.factor(2) == pytest.approx(0.5)
    assert cal.factor(35) == pytest.approx(1.0)
    assert cal.factor(-1) == pytest.approx(0.5)  # before the first unit
    assert cal.factor(10**12) == pytest.approx(1.0)  # after the last one
    cal.points = cal.points[:3]  # fewer points than SPAN
    assert cal.factor(1) == pytest.approx(0.5)


def test_window_rates_use_busy_time():
    ms = 1_000_000
    assert run.window_rates([ms] * 10, 5) == [1000.0, 1000.0]
    assert run.window_rates([ms, 3 * ms], None) == [500.0]
