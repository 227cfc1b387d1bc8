"""Constructive extraction: a verified K5-minus subdivision or a small cut.

Given any graph, the extractor maintains a short W4-subdivision, follows the
five-way case analysis on where an extra path from v1 can land, and drives
the configuration to one of three verified ends: a K5-minus embedding, a
strictly better wheel (loop), or a vertex cut of size at most three.  A
bookkeeping fallback (plain whole-graph search, then a separator) guarantees
an answer whenever the guided path runs out of script; its use is recorded
in the trace so the guided-path fidelity is measurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import case_c, case_d, case_e
from .bridges import bridge_containing_edge, compute_bridges, bridge_path
from .connectivity import Separator, find_separator, verify_separator
from .finder import (
    BudgetExceeded,
    BudgetTracker,
    SearchBudget,
    find_subdivision,
)
from .graphs import Graph
from .patterns import K5_MINUS, Embedding, verify_embedding
from .wheel import WheelW4, find_w4, make_short
from ._work import (
    Ctx,
    StepBudget,
    StepCut,
    StepFallback,
    StepFound,
    StepHandoff,
    StepImprove,
    StepReplace,
    assemble_case_a,
    assemble_case_b,
    fourth_neighbors,
    interior,
)


@dataclass(frozen=True)
class Witness:
    """Why the graph is not 4-connected."""

    kind: str  # "cut" | "too_small" | "low_degree"
    cut: tuple[int, ...] = ()
    separator: Separator | None = None
    vertex: int | None = None

    def to_json(self) -> dict:
        out = {"kind": self.kind, "cut": list(self.cut)}
        if self.vertex is not None:
            out["vertex"] = self.vertex
        if self.separator is not None:
            out["side_a"] = sorted(self.separator.side_a)
            out["side_b"] = sorted(self.separator.side_b)
        return out


@dataclass
class Found:
    embedding: Embedding
    trace: list = field(default_factory=list)
    nodes_used: int = 0

    outcome = "found"


@dataclass
class NotFourConnected:
    witness: Witness
    trace: list = field(default_factory=list)
    nodes_used: int = 0

    outcome = "not_four_connected"


@dataclass
class GaveUp:
    reason: str
    trace: list = field(default_factory=list)
    nodes_used: int = 0

    outcome = "gave_up"


def used_fallback(trace) -> bool:
    return any(ev["case_label"] == "fallback" for ev in trace)


def classify_p1(h: WheelW4, p1: int) -> str:
    """Total five-way classification of a landing vertex on the wheel."""
    if p1 not in h.vertex_set() or p1 == h.smr[0]:
        raise ValueError(f"p1={p1} is not a legal landing vertex")
    if p1 == h.smr[2]:
        return "B"
    if p1 in interior(h.spokes[1]) or p1 in interior(h.spokes[3]):
        return "A"
    if p1 in interior(h.rim[1]) or p1 in interior(h.rim[2]):
        return "C"
    if p1 in interior(h.spokes[2]):
        return "D"
    return "E"


def resolve(ctx: Ctx, step):
    """Follow case (e)'s hand-offs through the dispatcher to a final step."""
    while isinstance(step, StepHandoff):
        step = _analyze_with_path(
            ctx, step.wheel, step.path, step.p1, step.depth, step.spokes_main
        )
    return step


def _analyze_with_path(ctx: Ctx, h: WheelW4, P, p1, depth: int, spokes_main: bool):
    """Re-entry used by case hand-offs: classify the given landing and go."""
    label = classify_p1(h, p1)
    if label == "B":
        return assemble_case_b(ctx, h, P, spokes_main)
    if label == "A":
        if p1 in interior(h.spokes[3]):
            h = h.reorder(0, True)
        return assemble_case_a(ctx, h, P, spokes_main)
    if label == "C":
        if p1 in interior(h.rim[2]):
            h = h.reorder(0, True)
        return case_c.run(ctx, h, P, p1, depth, spokes_main)
    if label == "D":
        return case_d.run(ctx, h, P, p1, depth, spokes_main)
    bridges = compute_bridges(ctx.g, set(h.vertex_set()), set(h.edge_set()))
    u1_bridge = bridge_containing_edge(bridges, P[0], P[1])
    return case_e.run(ctx, h, u1_bridge, depth, spokes_main)


def _analyze(ctx: Ctx, h: WheelW4, depth: int):
    """Pick the landing case for the wheel's v1, preferring b > a > c > d > e."""
    g = ctx.g
    v1 = h.smr[0]
    v3 = h.smr[2]
    hv, he = set(h.vertex_set()), set(h.edge_set())
    bridges = compute_bridges(g, hv, he)
    reach: dict[int, object] = {}
    for bridge in bridges:
        if v1 in bridge.attachments:
            for t in sorted(bridge.attachments):
                if t != v1:
                    reach.setdefault(t, bridge)

    if v3 in reach:
        w = bridge_path(g, reach[v3], v1, v3)
        return assemble_case_b(ctx, h, w, True)

    for spoke_idx, flip in ((1, False), (3, True)):
        hits = sorted(set(interior(h.spokes[spoke_idx])) & reach.keys())
        if hits:
            p1 = hits[0]
            P = bridge_path(g, reach[p1], v1, p1)
            return assemble_case_a(ctx, h.reorder(0, True) if flip else h, P, True)

    best = None  # (distance to v3 along the segment, side, landing vertex)
    R2, R3 = h.rim[1], h.rim[2]
    for idx in range(1, len(R2) - 1):
        if R2[idx] in reach:
            cand = (len(R2) - 1 - idx, 0, R2[idx])
            best = cand if best is None or cand < best else best
    for idx in range(1, len(R3) - 1):
        if R3[idx] in reach:
            cand = (idx, 1, R3[idx])
            best = cand if best is None or cand < best else best
    if best is not None:
        _, side, p1 = best
        P = bridge_path(g, reach[p1], v1, p1)
        h2 = h.reorder(0, True) if side == 1 else h
        return case_c.run(ctx, h2, P, p1, depth, True)

    P3 = h.spokes[2]
    for idx in range(len(P3) - 2, 0, -1):  # closest to v3 first
        if P3[idx] in reach:
            p1 = P3[idx]
            P = bridge_path(g, reach[p1], v1, p1)
            return case_d.run(ctx, h, P, p1, depth, True)

    # everything from v1 stays inside R1, R4, P1
    fourth = fourth_neighbors(g, he, v1)
    if not fourth:
        return StepFallback("analyze:no_fourth_neighbor")
    u1_bridge = bridge_containing_edge(bridges, v1, fourth[0])
    return case_e.run(ctx, h, u1_bridge, depth, True)


def extract(
    g: Graph, budget: SearchBudget | None = None
) -> Found | NotFourConnected | GaveUp:
    tracker = BudgetTracker((budget or SearchBudget()).node_limit)
    trace: list[dict] = []
    ctx = Ctx(g, tracker, trace)

    if g.n <= 4:
        return NotFourConnected(Witness("too_small"), trace, tracker.used)
    for v in range(g.n):
        if g.degree(v) <= 3:
            cut = frozenset(g.neighbors(v))
            rest = frozenset(range(g.n)) - cut - {v}
            sep = Separator(cut, frozenset([v]), rest)
            ctx.emit("degree", "cut", 0)
            return NotFourConnected(
                Witness("low_degree", tuple(sorted(cut)), sep, v), trace, tracker.used
            )

    w = find_w4(g, tracker=tracker)
    if isinstance(w, BudgetExceeded):
        return GaveUp("budget:find_w4", trace, tracker.used)
    if w is None:
        sep = find_separator(g, 4)
        if sep is None:
            raise AssertionError("no wheel and no small cut: impossible")
        ctx.emit("no_w4", "cut", 0)
        return NotFourConnected(
            Witness("cut", tuple(sorted(sep.cut)), sep), trace, tracker.used
        )
    ctx.emit("start", "find_w4", w.total_spoke_length)
    wheel, steps, exhausted = make_short(g, w, tracker)
    for s in steps:
        ctx.emit("start", "improve", s.wheel.total_spoke_length)
    if exhausted:
        return GaveUp("budget:make_short", trace, tracker.used)

    iterations = 0
    while True:
        iterations += 1
        if iterations > 4 * g.n + 16:
            return _fallback(ctx, "iteration_cap", wheel)
        if tracker.exhausted:
            return GaveUp("budget:analysis", trace, tracker.used)
        step = resolve(ctx, _analyze(ctx, wheel, 0))
        if isinstance(step, StepFound):
            if verify_embedding(g, step.embedding) != []:
                return _fallback(ctx, "invalid_embedding", wheel)
            return Found(step.embedding, trace, tracker.used)
        if isinstance(step, StepCut):
            if verify_separator(g, step.separator) and len(step.separator.cut) <= 3:
                return NotFourConnected(
                    Witness(
                        "cut", tuple(sorted(step.separator.cut)), step.separator
                    ),
                    trace,
                    tracker.used,
                )
            return _fallback(ctx, "invalid_cut", wheel)
        if isinstance(step, StepImprove):
            new = step.witness.wheel
            if not new.total_spoke_length < wheel.total_spoke_length:
                return _fallback(ctx, "improve_guard", wheel)
            wheel, steps, exhausted = make_short(g, new, tracker)
            for s in steps:
                ctx.emit("driver", "improve", s.wheel.total_spoke_length)
            if exhausted:
                return GaveUp("budget:make_short", trace, tracker.used)
            continue
        if isinstance(step, StepReplace):
            new = step.wheel
            if not new.total_spoke_length < wheel.total_spoke_length:
                return _fallback(ctx, "replace_guard:" + step.note, wheel)
            ctx.emit("driver", "spoke_replace", new.total_spoke_length)
            wheel, steps, exhausted = make_short(g, new, tracker)
            for s in steps:
                ctx.emit("driver", "improve", s.wheel.total_spoke_length)
            if exhausted:
                return GaveUp("budget:make_short", trace, tracker.used)
            continue
        if isinstance(step, StepBudget):
            return GaveUp("budget:casework", trace, tracker.used)
        if isinstance(step, StepFallback):
            return _fallback(ctx, step.reason, wheel)
        raise AssertionError(f"unknown step {step!r}")


def _fallback(ctx: Ctx, reason: str, wheel: WheelW4 | None):
    """Soundness net: unrestricted search, then a separator."""
    total = wheel.total_spoke_length if wheel is not None else 0
    ctx.emit("fallback", "search:" + reason, total)
    emb = find_subdivision(ctx.g, K5_MINUS, tracker=ctx.tracker)
    if isinstance(emb, BudgetExceeded):
        return GaveUp(f"budget:fallback({reason})", ctx.trace, ctx.tracker.used)
    if emb is not None:
        if verify_embedding(ctx.g, emb) != []:
            raise AssertionError("the unrestricted search returned an invalid embedding")
        return Found(emb, ctx.trace, ctx.tracker.used)
    sep = find_separator(ctx.g, 4)
    if sep is None:
        raise AssertionError(
            "4-connected graph with no K5-minus subdivision: impossible"
        )
    ctx.emit("fallback", "cut", total)
    return NotFourConnected(
        Witness("cut", tuple(sorted(sep.cut)), sep), ctx.trace, ctx.tracker.used
    )
