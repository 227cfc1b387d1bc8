"""Golden inputs for the extraction engine and the recorder that replays them.

Three files under tests/golden/ pin the engine's observable behaviour:

* extract.jsonl: `extract` on the acceptance corpus and on the sparse4
  inputs whose trace reaches case (c), (d), (e) or an escalation.  Each line
  holds the graph6, the outcome, the certificate / witness JSON (or the
  give-up reason), nodes_used and the full trace.
* handlers.jsonl: every live case-handler call the table audit makes, plus
  audit-style scaffolds that drive handler branches no extraction reaches.
  Each line holds the host graph6, the step kind and payload, the nodes the
  handler spent and its trace.
* flow.jsonl: the flow layer (`connectivity`) on seeded LCG graphs with n
  from 5 to 22, C_9..C_14(1,2) and the tori 3x3..6x6.  Each line holds
  kappa, `find_separator(g, 4)` and a seeded batch of `disjoint_paths`,
  `min_vertex_cut` and `fan` calls with their exact results.

`test_golden.py` replays all three files.  To rewrite them from the current code:

    PYTHONPATH=src python tests/golden_cases.py
"""

from __future__ import annotations

import json
import sys
import zlib
from pathlib import Path

from k5minus import case_c, case_d, case_e
from k5minus.audit import _C1, _D1
from k5minus.bridges import bridge_containing_edge, compute_bridges
from k5minus.connectivity import (
    PathSystem,
    disjoint_paths,
    fan,
    find_separator,
    min_vertex_cut,
    vertex_connectivity,
)
from k5minus.extractor import extract, resolve
from k5minus.finder import BudgetTracker, SearchBudget
from k5minus.generator import (
    Lcg,
    circulant,
    complete,
    complete_multipartite,
    generate_4connected,
    random_graph,
    torus,
)
from k5minus.graphs import Graph, write_graph6
from k5minus.tables import C1_COLS, C1_ROWS, D1_COLS, D1_ROWS, c1_case, d1_case
from k5minus.wheel import WheelW4
from k5minus._work import (
    Ctx,
    StepBudget,
    StepCut,
    StepFallback,
    StepFound,
    StepImprove,
    assemble_case_a,
    assemble_case_b,
)

GOLDEN = Path(__file__).resolve().parent / "golden"

# trace families that mark an input as exercising the case (c)/(d)/(e) engines
ENGINE_FAMILIES = frozenset({
    "c", "c_i", "c_ii_1", "c_ii_2", "d", "d_i", "d_ii_1", "d_ii_2",
    "e", "e_1", "e_2", "escalate",
})
SPARSE4_SEEDS = range(2000)
SPARSE4_P = (0.12, 0.18, 0.25, 0.35)


# -- extraction inputs ---------------------------------------------------------


def _density(n: int) -> float:
    if n <= 8:
        return 0.85
    if n <= 14:
        return 0.6
    if n <= 24:
        return 0.45
    return 0.35


def acceptance_corpus() -> list[tuple[str, Graph]]:
    """The criterion-1 corpus of tests/test_acceptance.py."""
    graphs = []
    for i in range(200):
        n = 6 + (i % 35)
        graphs.append((f"random4:{i}", generate_4connected(n, _density(n), seed=10_000 + i)))
    graphs.append(("k5", complete(5)))
    graphs.append(("k6", complete(6)))
    graphs.append(("octahedron", complete_multipartite((2, 2, 2))))
    for m in range(3, 7):
        for n in range(3, 7):
            graphs.append((f"torus{m}{n}", torus(m, n)))
    for n in (8, 9, 11, 13):
        graphs.append((f"circulant{n}", circulant(n, (1, 2))))
    return graphs


def sparse4_graph(s: int) -> Graph:
    """random_graph on the sparse4 recipe, padded to minimum degree 4 by
    joining v to v+1, v+2, ... (mod n) in vertex order."""
    n = 8 + s % 40
    g = random_graph(n, SPARSE4_P[s % 4], 5_000_000 + s)
    adj = [set(g.neighbors(v)) for v in range(n)]
    for v in range(n):
        step = 1
        while len(adj[v]) < 4:
            w = (v + step) % n
            if w not in adj[v]:
                adj[v].add(w)
                adj[w].add(v)
            step += 1
    return Graph(n, [(u, w) for u in range(n) for w in adj[u] if u < w])


def extract_record(name: str, g: Graph) -> dict:
    res = extract(g)
    if res.outcome == "found":
        answer = res.embedding.to_json()
    elif res.outcome == "not_four_connected":
        answer = res.witness.to_json()
    else:
        answer = res.reason
    return {
        "name": name,
        "graph6": write_graph6(g),
        "outcome": res.outcome,
        "answer": answer,
        "nodes_used": res.nodes_used,
        "trace": res.trace,
    }


def extract_inputs() -> list[tuple[str, Graph]]:
    out = acceptance_corpus()
    for s in SPARSE4_SEEDS:
        g = sparse4_graph(s)
        fams = {ev["case_label"].split(":", 1)[0] for ev in extract(g).trace}
        if fams & ENGINE_FAMILIES:
            out.append((f"sparse4:s={s}", g))
    return out


# -- handler inputs --------------------------------------------------------------


def _ctx(g: Graph) -> Ctx:
    tracker = BudgetTracker(SearchBudget().node_limit)
    return Ctx(g, tracker, [])


def _step_payload(step) -> tuple[str, object]:
    if isinstance(step, StepFound):
        return "found", step.embedding.to_json()
    if isinstance(step, StepImprove):
        return "improve", {"wheel": step.witness.wheel.to_json(),
                           "prefixes": list(step.witness.prefixes)}
    if isinstance(step, StepCut):
        sep = step.separator
        return "cut", {"label": step.label, "cut": sorted(sep.cut),
                       "side_a": sorted(sep.side_a), "side_b": sorted(sep.side_b)}
    if isinstance(step, StepFallback):
        return "fallback", step.reason
    if isinstance(step, StepBudget):
        return "budget", None
    raise TypeError(f"unknown step {step!r}")


def _bridge(g: Graph, w: WheelW4, P, a: int, b: int):
    hv = set(w.vertex_set()) | set(P)
    he = set(w.edge_set())
    for x, y in zip(P, P[1:]):
        he.add((min(x, y), max(x, y)))
    return bridge_containing_edge(compute_bridges(g, hv, he), a, b)


def _c_i(cfg):
    return lambda ctx: case_c.case_c_i(ctx, cfg.wheel(), cfg.P, cfg.p1, cfg.Q, cfg.q3, 0)


def _d_i(cfg):
    return lambda ctx: case_d.case_d_i(ctx, cfg.wheel(), cfg.P, cfg.p1, cfg.Q, cfg.q3, 0)


def _c_ii(cfg, g, u3: int):
    """Enter (c)(ii) with U3 the bridge of H + P holding the edge v3-u3."""
    w = cfg.wheel()
    v3 = w.smr[2]
    u3b = _bridge(g, w, cfg.P, v3, u3)
    att = set(u3b.attachments) - {v3}
    return lambda ctx: case_c.case_c_ii(ctx, w, cfg.P, cfg.p1, u3b, att, 0)


def _d_run(cfg):
    return lambda ctx: case_d.run(ctx, cfg.wheel(), cfg.P, cfg.p1, 0)


def _e_run(w: WheelW4, g: Graph, u1: int):
    u1b = bridge_containing_edge(
        compute_bridges(g, set(w.vertex_set()), set(w.edge_set())), w.smr[0], u1
    )
    return lambda ctx: resolve(ctx, case_e.run(ctx, w, u1b, 0))


def _long_d1():
    """The audit's (d)(ii)1 configuration: P3 = 0-5-6-16-7 with v3 = 7."""
    cfg = _D1()
    cfg.spokes = ((0, 1, 2), (0, 3, 4), (0, 5, 6, 16, 7), (0, 8, 9))
    cfg.smr = (2, 4, 7, 9)
    cfg.rim = ((2, 10, 4), (4, 11, 7), (7, 12, 9), (9, 13, 2))
    cfg.P = (2, 14, 5)
    cfg.p1 = 5
    cfg.n = 18
    return cfg


def _e_wheel() -> WheelW4:
    """The audit's case (e) wheel: long P1 (1, 15) and long R1 (9, 16)."""
    spokes = ((0, 1, 15, 2), (0, 3, 4), (0, 5, 6), (0, 7, 8))
    rim = ((2, 9, 16, 4), (4, 10, 6), (6, 11, 8), (8, 12, 2))
    return WheelW4(0, spokes, (2, 4, 6, 8), rim)


def handler_cases() -> list[tuple[str, Graph, object]]:
    """(name, host graph, call(ctx) -> step) for every handler input."""
    cases = []
    c1, d1 = _C1(), _D1()

    # the audit's live calls: the (c)(i) and (d)(i) tables
    for row in C1_ROWS:
        for col in C1_COLS:
            cid = c1_case(row, col)
            if cid == "7a":
                continue  # audited by direct certification, not by the handler
            r1, r2 = c1.row_anchor[row], c1.col_anchor[col]
            g = c1.graph({(min(r1, r2), max(r1, r2))})
            cases.append((f"audit:C1:{cid}:{row}->{col}", g, _c_i(c1)))
    for row in D1_ROWS:
        for col in D1_COLS:
            cid = d1_case(row, col)
            r1, r2 = d1.row_anchor[row], d1.col_anchor[col]
            g = d1.graph([(min(r1, r2), max(r1, r2))])
            cases.append((f"audit:D1:{cid}:{row}->{col}", g, _d_i(d1)))

    # the audit's (c)(ii) figures
    hp = c1.hp_edges()
    g = Graph(c1.n + 1, hp | {(6, 21), (21, 5)})
    cases.append(("audit:fig_cii1_cut", g, _c_ii(c1, g, 21)))
    for name, extra in (("redispatch", {(21, 15)}), ("cut", set())):
        g = Graph(c1.n + 1, hp | {(6, 21), (21, 12)} | extra)
        cases.append((f"audit:fig_cii2_{name}", g, _c_ii(c1, g, 21)))

    # the audit's (d)(ii) cuts
    hp = d1.hp_edges()
    g = Graph(16, hp | {(6, 15), (15, 5)})
    cases.append(("audit:fig_dii1_cut", g, _d_run(d1)))
    g = Graph(17, hp | {(6, 15), (15, 10), (6, 16), (16, 11)})
    cases.append(("audit:fig_dii2_cut", g, _d_run(d1)))

    # the audit's (e) figures
    w = _e_wheel()
    he = set(w.edge_set())
    for name, extra, n in (
        ("fig_e1_redispatch", {(2, 17), (17, 1), (15, 6)}, 18),
        ("fig_e1_cut", {(2, 17), (17, 1)}, 18),
        ("fig_e2_redispatch", {(2, 17), (17, 16), (9, 6)}, 18),
        ("fig_e2_cut", {(2, 17), (17, 9), (2, 18), (18, 12)}, 19),
    ):
        g = Graph(n, he | extra)
        cases.append((f"audit:{name}", g, _e_run(w, g, 17)))

    # the audit's (a) and (b) assemblies
    spokes = ((0, 1, 2), (0, 3, 4), (0, 5, 6), (0, 7, 8))
    rim = ((2, 9, 4), (4, 10, 6), (6, 11, 8), (8, 12, 2))
    wab = WheelW4(0, spokes, (2, 4, 6, 8), rim)
    g = Graph(14, set(wab.edge_set()) | {(2, 13), (13, 3)})
    cases.append(("audit:case_a", g, lambda ctx: assemble_case_a(ctx, wab, (2, 13, 3))))
    g = Graph(14, set(wab.edge_set()) | {(2, 13), (13, 6)})
    cases.append(("audit:case_b", g, lambda ctx: assemble_case_b(ctx, wab, (2, 13, 6))))

    cases.extend(scaffold_cases())
    return cases


def scaffold_cases() -> list[tuple[str, Graph, object]]:
    """Handler inputs for branches neither extraction nor the audit reaches."""
    cases = []
    c1, d1, dl = _C1(), _D1(), _long_d1()

    # (c)(ii)1 escapes: the pocket pair v3-5 / v3-21-5 on P3 plus an exit from
    # 21 into P1, P2, R1 or R4 (the last two re-enter (c)(i) by a spoke detour)
    hp = c1.hp_edges()
    for name, t in (("P1", 1), ("R1", 9), ("P2", 3), ("R4a", 15), ("R4b", 17)):
        g = Graph(c1.n + 1, hp | {(6, 21), (21, 5), (21, t)})
        cases.append((f"scaffold:c_ii_1_escape:{name}", g, _c_ii(c1, g, 21)))

    # the pair v3-5-0 / v3-21-0 ends at the hub; the exit 5-22-15 leaves from
    # the spoke-side path, so the other one becomes the new spoke
    g = Graph(c1.n + 2, hp | {(6, 21), (21, 0), (5, 22), (22, 15)})
    cases.append(("scaffold:c_ii_1_escape:hub_pair", g, _c_ii(c1, g, 21)))

    # (c)(ii)2 escapes from the R3-side pair v3-14 / v3-21-14
    for name, t in (("P1", 1), ("P2", 3), ("R4", 17)):
        g = Graph(c1.n + 1, hp | {(6, 21), (21, 14), (21, t)})
        cases.append((f"scaffold:c_ii_2_escape:R3:{name}", g, _c_ii(c1, g, 21)))

    # (d) opening: U3 lands inside R1 or R4, so the wheel is relabelled to (c)
    hp = d1.hp_edges()
    for name, t in (("R1", 9), ("R4", 12)):
        g = Graph(d1.n, hp | {(6, 14), (14, t)})
        cases.append((f"scaffold:d_relabel:{name}", g, _d_run(d1)))

    # (d)(ii)1 escapes: pocket v3-17-6 on the long spoke, exit 16-t
    hpl = dl.hp_edges()
    for name, t in (("P", 14), ("vP3p1", 0), ("R1", 10), ("P4", 8), ("P1", 1)):
        g = Graph(dl.n, hpl | {(7, 17), (17, 6), (16, t)})
        cases.append((f"scaffold:d_ii_1_escape:{name}", g, _d_run(dl)))

    # (d)(ii)2 escapes: U3 = {15} confined to one rim segment; a second v3
    # bridge {16} pairs with the other segment and exits to t
    for side, u3_foot, pair_foot in (("R2", 11, 10), ("R3", 10, 11)):
        for name, t in (("R4", 12), ("R1", 9), ("P1", 1), ("P2", 3), ("P", 13)):
            g = Graph(17, hp | {(6, 15), (15, u3_foot), (6, 16), (16, pair_foot), (16, t)})
            cases.append((f"scaffold:d_ii_2_escape:{side}:{name}", g, _d_run(d1)))

    # (e)2 escape from the R4 side: U1 = {17} pairs only with R1 (v1-9 /
    # v1-17-9, no exit); a second v1 bridge {18} pairs with R4 and exits to t
    w = _e_wheel()
    he = set(w.edge_set())
    for name, t in (("R2", 10), ("P3", 5), ("v3", 6)):
        g = Graph(19, he | {(2, 17), (17, 9), (2, 18), (18, 12), (18, t)})
        cases.append((f"scaffold:e_2_escape:R4:{name}", g, _e_run(w, g, 17)))
    return cases


def handler_record(name: str, g: Graph, call) -> dict:
    ctx = _ctx(g)
    kind, payload = _step_payload(call(ctx))
    return {
        "name": name,
        "graph6": write_graph6(g),
        "kind": kind,
        "answer": payload,
        "nodes_used": ctx.tracker.used,
        "trace": ctx.trace,
    }


# -- flow-layer inputs ------------------------------------------------------------


def flow_inputs() -> list[tuple[str, Graph]]:
    out = []
    for n in range(5, 23):
        for j, p in enumerate((0.3, 0.5, 0.7)):
            out.append((f"random:{n}:{p}", random_graph(n, p, 7_000_000 + 10 * n + j)))
    for n in range(9, 15):
        out.append((f"circulant{n}", circulant(n, (1, 2))))
    for m in range(3, 7):
        for n in range(m, 7):
            out.append((f"torus{m}{n}", torus(m, n)))
    return out


def _sep_json(sep) -> dict | None:
    if sep is None:
        return None
    return {"cut": sorted(sep.cut), "side_a": sorted(sep.side_a), "side_b": sorted(sep.side_b)}


def flow_record(name: str, g: Graph) -> dict:
    """kappa, the 4-separator and seeded path, cut and fan calls on g; the
    calls are drawn from an LCG seeded by the graph6 string."""
    rng = Lcg(zlib.crc32(write_graph6(g).encode()))
    n = g.n

    def pick(k: int) -> int:
        return rng.next_u64() % k

    def subset(pool, p: float) -> list[int]:
        return [v for v in pool if rng.next_unit() < p]

    calls = []
    for _ in range(3):
        u = pick(n)
        v = (u + 1 + pick(n - 1)) % n
        allowed = subset(range(n), 0.7)
        for lim in (1, 2, None):
            calls.append(["disjoint_paths", [u, v, lim, None],
                          disjoint_paths(g, u, v, lim)])
            calls.append(["disjoint_paths", [u, v, lim, allowed],
                          disjoint_paths(g, u, v, lim, frozenset(allowed))])
        if not g.has_edge(u, v):
            calls.append(["min_vertex_cut", [u, v], sorted(min_vertex_cut(g, u, v))])
    for k in range(1, 5):
        if n < k + 1:
            continue
        for p_forbid in (0.0, 0.25):
            u = pick(n)
            others = [v for v in range(n) if v != u]
            start = pick(len(others))
            size = min(len(others), k + pick(4))
            target = sorted(others[(start + i) % len(others)] for i in range(size))
            forbidden = subset((v for v in others if v not in target), p_forbid)
            res = fan(g, u, frozenset(target), k, frozenset(forbidden))
            if isinstance(res, PathSystem):
                answer = {"paths": res.paths, "apex": res.apex}
            else:
                answer = _sep_json(res)
            calls.append(["fan", [u, target, k, forbidden], answer])
    return json.loads(json.dumps({
        "name": name,
        "graph6": write_graph6(g),
        "kappa": vertex_connectivity(g),
        "separator4": _sep_json(find_separator(g, 4)),
        "calls": calls,
    }))


# -- files -----------------------------------------------------------------------


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line]


def write_jsonl(path: Path, records) -> None:
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    write_jsonl(GOLDEN / "extract.jsonl",
                [extract_record(name, g) for name, g in extract_inputs()])
    write_jsonl(GOLDEN / "handlers.jsonl",
                [handler_record(name, g, call) for name, g, call in handler_cases()])
    write_jsonl(GOLDEN / "flow.jsonl",
                [flow_record(name, g) for name, g in flow_inputs()])
    return 0


if __name__ == "__main__":
    sys.exit(main())
