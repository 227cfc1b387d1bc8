"""Constructive extraction: a verified K5-minus subdivision or a small cut.

Given any graph, the extractor maintains a short W4-subdivision, follows the
five-way case analysis on where an extra path from v1 can land, and drives
the configuration to one of three verified ends: a K5-minus embedding, a
strictly better wheel (loop), or a vertex cut of size at most three.  The
seed (`find_w4`) gives the first wheel or already a cut.  A bookkeeping
fallback (plain whole-graph search, then a separator) guarantees an answer
whenever the guided path runs out of script; its use is recorded in the
trace so the guided-path fidelity is measurable.  Before any give-up on the
node budget, a cut of at most three vertices is looked for by flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest

from . import case_c, case_d, case_e
from .bridges import bridge_containing_edge, bridge_path, bridges_from, compute_bridges
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
    assemble_case_a,
    assemble_case_b,
    fourth_neighbors,
    interior,
)


@dataclass(frozen=True, slots=True)
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


@dataclass(slots=True)
class Found:
    embedding: Embedding
    trace: list = field(default_factory=list)
    nodes_used: int = 0

    outcome = "found"


@dataclass(slots=True)
class NotFourConnected:
    witness: Witness
    trace: list = field(default_factory=list)
    nodes_used: int = 0

    outcome = "not_four_connected"


@dataclass(slots=True)
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
        step = _analyze_with_path(ctx, step.wheel, step.path, step.p1, step.depth)
    return step


def _analyze_with_path(ctx: Ctx, h: WheelW4, P, p1, depth: int):
    """The landing dispatcher: classify where the path P from v1 lands and
    run that case, mirrored so that the landing is on P2 (a) or R2 (c)."""
    label = classify_p1(h, p1)
    if label == "B":
        return assemble_case_b(ctx, h, P)
    if label == "A":
        if p1 in interior(h.spokes[3]):
            h = h.reorder(0, True)
        return assemble_case_a(ctx, h, P)
    if label == "C":
        if p1 in interior(h.rim[2]):
            h = h.reorder(0, True)
        return case_c.run(ctx, h, P, p1, depth)
    if label == "D":
        return case_d.run(ctx, h, P, p1, depth)
    bridges = compute_bridges(ctx.g, set(h.vertex_set()), set(h.edge_set()))
    u1_bridge = bridge_containing_edge(bridges, P[0], P[1])
    return case_e.run(ctx, h, u1_bridge, depth)


def _analyze(ctx: Ctx, h: WheelW4, depth: int):
    """Pick the landing of a path from the wheel's v1, preferring b > a > c > d > e:
    v3, then P2 before P4, then the rim vertex nearest v3 (R2 before R3 on
    ties), then the P3 vertex nearest v3."""
    g = ctx.g
    v1, v3 = h.smr[0], h.smr[2]
    he = set(h.edge_set())
    bridges = compute_bridges(g, set(h.vertex_set()), he)
    reach = bridges_from(bridges, v1)
    near_v3 = [x for pair in zip_longest(h.rim[1][-2:0:-1], h.rim[2][1:-1])
               for x in pair if x is not None]
    landings = (v3, *sorted(interior(h.spokes[1])), *sorted(interior(h.spokes[3])),
                *near_v3, *h.spokes[2][-2:0:-1])
    p1 = next((x for x in landings if x in reach), None)
    if p1 is not None:
        return _analyze_with_path(ctx, h, bridge_path(g, reach[p1], v1, p1), p1, depth)

    # everything from v1 stays inside R1, R4, P1
    fourth = fourth_neighbors(g, he, v1)
    if not fourth:
        return StepFallback("analyze:no_fourth_neighbor")
    u1_bridge = bridge_containing_edge(bridges, v1, fourth[0])
    return case_e.run(ctx, h, u1_bridge, depth)


def extract(
    g: Graph, budget: SearchBudget | None = None
) -> Found | NotFourConnected | GaveUp:
    tracker = BudgetTracker((budget or SearchBudget()).node_limit)
    trace: list[dict] = []
    ctx = Ctx(g, tracker, trace)

    if g.n <= 4:
        return NotFourConnected(Witness("too_small"), trace, tracker.used)
    for v, bits in enumerate(g._adj_bits):
        if bits.bit_count() <= 3:
            cut = frozenset(g.neighbors(v))
            rest = frozenset(range(g.n)) - cut - {v}
            sep = Separator(cut, frozenset([v]), rest)
            ctx.emit("degree", "cut", 0)
            return NotFourConnected(
                Witness("low_degree", tuple(sorted(cut)), sep, v), trace, tracker.used
            )

    stages: list[str] = []
    seed = find_w4(g, tracker=tracker, on_stage=stages.append)
    if isinstance(seed, Separator):
        ctx.emit("no_w4", "cut", 0)
        if verify_separator(g, seed) and len(seed.cut) <= 3:
            return _cut(ctx, seed)
        return _fallback(ctx, "invalid_cut", None)
    ctx.emit("start", stages[0], seed.total_spoke_length)
    wheel, steps, exhausted = make_short(g, seed, tracker)
    for s in steps:
        ctx.emit("start", "improve", s.wheel.total_spoke_length)
    if exhausted:
        return _give_up(ctx, "budget:make_short", wheel.total_spoke_length)

    iterations = 0
    while True:
        iterations += 1
        if iterations > 4 * g.n + 16:
            return _fallback(ctx, "iteration_cap", wheel)
        if tracker.exhausted:
            return _give_up(ctx, "budget:analysis", wheel.total_spoke_length)
        step = resolve(ctx, _analyze(ctx, wheel, 0))
        if isinstance(step, StepFound):
            if verify_embedding(g, step.embedding) != []:
                return _fallback(ctx, "invalid_embedding", wheel)
            return Found(step.embedding, trace, tracker.used)
        if isinstance(step, StepCut):
            if verify_separator(g, step.separator) and len(step.separator.cut) <= 3:
                return _cut(ctx, step.separator)
            return _fallback(ctx, "invalid_cut", wheel)
        if isinstance(step, StepImprove):
            new = step.witness.wheel
            if not new.total_spoke_length < wheel.total_spoke_length:
                return _fallback(ctx, "improve_guard", wheel)
            wheel, steps, exhausted = make_short(g, new, tracker)
            for s in steps:
                ctx.emit("driver", "improve", s.wheel.total_spoke_length)
            if exhausted:
                return _give_up(ctx, "budget:make_short", wheel.total_spoke_length)
            continue
        if isinstance(step, StepBudget):
            return _give_up(ctx, "budget:casework", wheel.total_spoke_length)
        if isinstance(step, StepFallback):
            return _fallback(ctx, step.reason, wheel)
        raise AssertionError(f"unknown step {step!r}")


def _cut(ctx: Ctx, sep: Separator) -> NotFourConnected:
    return NotFourConnected(
        Witness("cut", tuple(sorted(sep.cut)), sep), ctx.trace, ctx.tracker.used
    )


def _give_up(ctx: Ctx, reason: str, total: int):
    """Answer with a cut of at most three vertices when one exists; else
    give up for `reason`."""
    sep = find_separator(ctx.g, 4)
    if sep is not None and verify_separator(ctx.g, sep):
        ctx.emit("fallback", "cut:" + reason, total)
        return _cut(ctx, sep)
    return GaveUp(reason, ctx.trace, ctx.tracker.used)


def _fallback(ctx: Ctx, reason: str, wheel: WheelW4 | None):
    """Soundness net: unrestricted search, then a separator."""
    total = wheel.total_spoke_length if wheel is not None else 0
    ctx.emit("fallback", "search:" + reason, total)
    emb = find_subdivision(ctx.g, K5_MINUS, tracker=ctx.tracker)
    if isinstance(emb, BudgetExceeded):
        return _give_up(ctx, f"budget:fallback({reason})", total)
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
    return _cut(ctx, sep)
