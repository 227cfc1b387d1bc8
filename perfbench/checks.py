"""Output checks and exact-count fingerprints, run outside the timed region.

The checks re-derive validity from the generator's own graph, not from the
engine: they share no code with `patterns.verify_embedding` or the engine's
separator checks.  `networkx` is the reference for `gen4` connectivity.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass


@dataclass
class Op:
    """One completed operation of a run."""

    index: int
    item: object  # workloads.Item
    result: object  # extract result, or (Graph, graph6) for gen4; None on error
    error: str | None
    latency_ns: int


def _components_without(n: int, adj, removed: set[int]) -> int:
    seen = set(removed)
    count = 0
    for s in range(n):
        if s in seen:
            continue
        count += 1
        seen.add(s)
        stack = [s]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return count


def check_certificate(g, emb) -> str | None:
    """None when `emb` is a K5-minus subdivision of g, else the first fault."""
    pattern = emb.pattern
    pairs = {tuple(sorted(e)) for e in pattern.edges}
    if (
        pattern.k != 5
        or len(pattern.edges) != 9
        or len(pairs) != 9
        or any(a == b or not (0 <= a < 5 and 0 <= b < 5) for a, b in pairs)
    ):
        return "pattern is not K5-minus"
    branch = tuple(emb.branch_map)
    if len(branch) != 5 or len(set(branch)) != 5:
        return "branch vertices are not 5 distinct vertices"
    if any(not (0 <= v < g.n) for v in branch):
        return "branch vertex outside the graph"
    if len(emb.paths) != len(pattern.edges):
        return "one path per pattern edge is required"
    used = set(branch)
    for (a, b), path in zip(pattern.edges, emb.paths):
        if len(path) < 2 or {path[0], path[-1]} != {branch[a], branch[b]}:
            return f"path for pattern edge {a}-{b} has the wrong ends"
        if len(set(path)) != len(path):
            return f"path for pattern edge {a}-{b} repeats a vertex"
        for x, y in zip(path, path[1:]):
            if not (0 <= x < g.n and 0 <= y < g.n) or not g.has_edge(x, y):
                return f"path edge {x}-{y} is not in the graph"
        for v in path[1:-1]:
            if v in used:
                return f"path interior vertex {v} is shared or a branch vertex"
            used.add(v)
    return None


def check_cut(g, cut) -> str | None:
    """None when |cut| <= 3 and G - cut is disconnected, else the fault."""
    cut = set(cut)
    if len(cut) > 3:
        return f"cut has {len(cut)} > 3 vertices"
    if any(not (0 <= v < g.n) for v in cut):
        return "cut vertex outside the graph"
    adj = [g.neighbors(v) for v in range(g.n)]
    if _components_without(g.n, adj, cut) < 2:
        return "G - cut is connected"
    return None


def check_extract(g, res) -> str | None:
    outcome = res.outcome
    if outcome == "found":
        return check_certificate(g, res.embedding)
    if outcome == "not_four_connected":
        if res.witness.kind == "too_small":
            return None if g.n <= 4 else "too_small witness on a graph with n > 4"
        return check_cut(g, res.witness.cut)
    if outcome == "gave_up":
        return None  # not an incorrect output; counted in answered_share
    return f"unknown outcome {outcome!r}"


def check_gen4(item, result) -> str | None:
    # imported here so that networkx is not part of the measured process size
    import networkx as nx

    g = result[0]
    if g.n != item.n:
        return f"asked for n={item.n}, got n={g.n}"
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from(g.edges())
    kappa = nx.node_connectivity(ref)
    if kappa < 4:
        return f"networkx node_connectivity is {kappa} < 4"
    return None


def failures(ops: list[Op], workload: str) -> list[dict]:
    """Every failed operation: exception, gave_up, or a failed output check."""
    out = []
    for op in ops:
        if op.error is not None:
            out.append({"op": op.index, "input": op.item.key, "kind": "exception",
                        "detail": op.error.strip().splitlines()[-1]})
            continue
        if workload == "gen4":
            bad = check_gen4(op.item, op.result)
        else:
            bad = check_extract(op.item.graph, op.result)
            if bad is None and op.result.outcome == "gave_up":
                out.append({"op": op.index, "input": op.item.key, "kind": "gave_up",
                            "detail": op.result.reason})
                continue
        if bad is not None:
            out.append({"op": op.index, "input": op.item.key, "kind": "check", "detail": bad})
    return out


def label_family(case_label: str) -> str:
    """Trace labels carry sub-steps after ':' ('c_i:7a'); the family is the head."""
    return case_label.split(":", 1)[0]


def fingerprint(ops: list[Op], workload: str) -> dict:
    """Exact counts and a digest of every emitted object, in operation order."""
    nodes = 0
    outcomes: Counter = Counter()
    labels: Counter = Counter()
    digest = hashlib.sha256()
    for pos, op in enumerate(ops):
        if op.error is not None:
            name = op.error.strip().splitlines()[-1].split(":", 1)[0]
            outcomes["exception"] += 1
            payload = ["exception", name]
        elif workload == "gen4":
            outcomes["generated"] += 1
            payload = ["generated", op.result[1]]
        else:
            res = op.result
            nodes += res.nodes_used
            outcomes[res.outcome] += 1
            labels.update(ev["case_label"] for ev in res.trace)
            if res.outcome == "found":
                body = res.embedding.to_json()
            elif res.outcome == "not_four_connected":
                body = res.witness.to_json()
            else:
                body = res.reason
            payload = [res.outcome, res.nodes_used, body]
        digest.update(json.dumps([pos, op.item.key, payload], sort_keys=True).encode())
        digest.update(b"\n")
    return {
        "ops": len(ops),
        "nodes_used": nodes,
        "outcomes": dict(sorted(outcomes.items())),
        "labels": dict(sorted(labels.items())),
        "sha256": digest.hexdigest(),
    }
