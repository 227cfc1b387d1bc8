"""Shared machinery for the extraction case analysis.

Case handlers communicate through small Step objects; every terminal claim
is certified before it is returned (subdivision searches for K5-minus and
shorter-wheel claims, component checks for cuts), so a handler can never
smuggle out an unsound outcome — at worst it escalates to the driver's
fallback.

The two arguments that cases (c), (d) and (e) each run at their apex, the
spoke pocket and the paired rims, are implemented once here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from .bridges import compute_bridges
from .connectivity import Separator, disjoint_paths, separator_of
from .finder import BudgetExceeded, BudgetTracker, find_subdivision
from .graphs import Graph
from .patterns import K5_MINUS, Embedding, verify_embedding
from .wheel import (
    ShorterWitness,
    WheelW4,
    concat,
    improve_once,
    is_simple,
    path_edges,
    subpath,
)

MAX_DEPTH = 6


# -- step results ------------------------------------------------------------


@dataclass
class StepFound:
    embedding: Embedding


@dataclass
class StepImprove:
    witness: ShorterWitness  # a new wheel; the driver checks its total is shorter


@dataclass
class StepCut:
    separator: Separator
    label: str


@dataclass
class StepBudget:
    pass


@dataclass
class StepFallback:
    reason: str


@dataclass
class StepHandoff:
    """A replacement wheel plus a path from its v1 landing at p1, for the
    landing dispatcher to classify (case (e) re-enters the case analysis)."""

    wheel: WheelW4
    path: tuple
    p1: int
    depth: int


Step = object


@dataclass
class Ctx:
    g: Graph
    tracker: BudgetTracker
    trace: list
    _step: int = 0

    def emit(self, case_label: str, action: str, total: int) -> None:
        self.trace.append(
            {
                "step": self._step,
                "case_label": case_label,
                "action": action,
                "total_spoke_length": total,
            }
        )
        self._step += 1


# -- path and set helpers ----------------------------------------------------


def interior(path) -> frozenset[int]:
    return frozenset(path[1:-1])


def vset(*paths) -> set[int]:
    out: set[int] = set()
    for p in paths:
        out.update(p)
    return out


def eset(*paths) -> set[tuple[int, int]]:
    out: set[tuple[int, int]] = set()
    for p in paths:
        out.update(path_edges(p))
    return out


def search_path(g: Graph, sources, targets, allowed_internal) -> tuple[int, ...] | None:
    """Shortest path from any source to any target whose interior stays in
    allowed_internal; deterministic (sorted multi-source BFS)."""
    sources = sorted(set(sources))
    targets = set(targets)
    allowed = set(allowed_internal) - targets
    parent: dict[int, int] = {}
    queue: list[int] = []
    for s in sources:
        if s in targets:
            continue
        parent[s] = -1
        queue.append(s)
    qi = 0
    hit = None
    while qi < len(queue) and hit is None:
        x = queue[qi]
        qi += 1
        for y in g.neighbors(x):
            if y in parent:
                continue
            if y in targets:
                parent[y] = x
                hit = y
                break
            if y in allowed:
                parent[y] = x
                queue.append(y)
    if hit is None:
        return None
    path = [hit]
    while parent[path[-1]] != -1:
        path.append(parent[path[-1]])
    path.reverse()
    return tuple(path)


def fourth_neighbors(g: Graph, edge_set, v: int) -> list[int]:
    """Neighbours of v that edge_set does not join to it, in vertex order."""
    on = set()
    for a, b in edge_set:
        if a == v:
            on.add(b)
        elif b == v:
            on.add(a)
    return sorted(u for u in g.neighbors(v) if u not in on)


def safe_join(*parts) -> tuple[int, ...] | None:
    """concat that returns None instead of producing a self-intersecting path."""
    try:
        out = concat(*parts)
    except ValueError:
        return None
    return out if is_simple(out) else None


def minimal_pair(
    g: Graph, apex: int, candidates, allowed_base
) -> tuple[tuple, tuple, int] | None:
    """First candidate x admitting two internally disjoint apex-x paths whose
    interiors stay inside allowed_base; None when only the trivial pair exists."""
    for x in candidates:
        if x == apex:
            continue
        ps = disjoint_paths(
            g, apex, x, limit=2, allowed_internal=set(allowed_base) - {apex, x}
        )
        if len(ps) >= 2:
            return ps[0], ps[1], x
    return None


# -- certification -----------------------------------------------------------


def certify_k5minus(ctx: Ctx, comp_edges) -> Embedding | None | BudgetExceeded:
    """Search for a K5-minus subdivision inside the composite subgraph only."""
    cg = Graph(ctx.g.n, comp_edges)
    emb = find_subdivision(cg, K5_MINUS, tracker=ctx.tracker)
    if emb is None or isinstance(emb, BudgetExceeded):
        return emb
    # an embedding that fails verification is a failed claim
    return emb if verify_embedding(ctx.g, emb) == [] else None


def certify_shorter(
    ctx: Ctx, comp_edges, h_local: WheelW4
) -> ShorterWitness | None | BudgetExceeded:
    """Search the composite for a wheel shorter than h_local."""
    cg = Graph(ctx.g.n, set(comp_edges) | set(h_local.edge_set()))
    wit = improve_once(cg, h_local, tracker=ctx.tracker)
    if wit is None or isinstance(wit, BudgetExceeded):
        return wit
    return wit if wit.wheel.verify(ctx.g) == [] else None


def claim_k5minus(ctx: Ctx, comp_edges, h_local, label: str) -> Step:
    res = certify_k5minus(ctx, comp_edges)
    if isinstance(res, BudgetExceeded):
        return StepBudget()
    if res is not None:
        ctx.emit(label, "found", h_local.total_spoke_length)
        return StepFound(res)
    return _escalate(ctx, comp_edges, h_local, label + ":k5m_claim_failed",
                     skip_k5m=True)


def claim_shorter(ctx: Ctx, comp_edges, h_local, label: str) -> Step:
    res = certify_shorter(ctx, comp_edges, h_local)
    if isinstance(res, BudgetExceeded):
        return StepBudget()
    if res is not None:
        return _improve_step(ctx, res, label)
    return _escalate(ctx, comp_edges, h_local, label + ":shorter_claim_failed",
                     skip_shorter=True)


def _improve_step(ctx: Ctx, wit: ShorterWitness, label: str) -> Step:
    ctx.emit(label, "improve", wit.wheel.total_spoke_length)
    return StepImprove(wit)


def _escalate(
    ctx: Ctx, comp_edges, h_local, reason: str,
    skip_k5m: bool = False, skip_shorter: bool = False,
) -> Step:
    """A claim failed: try the other claim on the full composite, then punt."""
    if not skip_k5m:
        res = certify_k5minus(ctx, comp_edges)
        if isinstance(res, BudgetExceeded):
            return StepBudget()
        if res is not None:
            ctx.emit("escalate", "found", h_local.total_spoke_length)
            return StepFound(res)
    if not skip_shorter:
        wit = certify_shorter(ctx, comp_edges, h_local)
        if isinstance(wit, BudgetExceeded):
            return StepBudget()
        if wit is not None:
            return _improve_step(ctx, wit, "escalate")
    return StepFallback(reason)


# -- cut witnesses -----------------------------------------------------------


def try_cut(ctx: Ctx, vertices, label: str, total: int) -> Step | None:
    """Verify that the (deduplicated) vertex set disconnects the graph."""
    cut = frozenset(vertices)
    if len(cut) > 3:
        return None
    sep = separator_of(ctx.g, cut)
    if sep is None:
        return None
    ctx.emit(label, "cut", total)
    return StepCut(sep, label)


def cut_or_scan(ctx: Ctx, claimed, scan_sets, label: str, total: int) -> Step:
    """Claimed cut first; otherwise scan the promised cut shapes, then punt."""
    step = try_cut(ctx, claimed, label, total)
    if step is not None:
        return step
    for cand in scan_sets:
        step = try_cut(ctx, cand, label + ":scan", total)
        if step is not None:
            return step
    return StepFallback(label + ":cut_failed")


# -- the two immediate cases -------------------------------------------------


def assemble_case_b(ctx: Ctx, h: WheelW4, p_path) -> Step:
    """p1 = v3: K5-minus with trivertices v2, v4 and tetravertices v, v1, v3.

    p_path runs v1 -> v3 and meets the wheel only at its endpoints.
    """
    v1, v2, v3, v4 = h.smr
    bm = (h.hub, v1, v3, v2, v4)
    paths = (
        h.spokes[0],                  # v  -> v1
        h.spokes[2],                  # v  -> v3
        h.spokes[1],                  # v  -> v2
        h.spokes[3],                  # v  -> v4
        tuple(p_path),                # v1 -> v3
        h.rim[0],                     # v1 -> v2
        tuple(reversed(h.rim[3])),    # v1 -> v4
        tuple(reversed(h.rim[1])),    # v3 -> v2
        h.rim[2],                     # v3 -> v4
    )
    emb = Embedding(K5_MINUS, bm, paths)
    if verify_embedding(ctx.g, emb) == []:
        ctx.emit("b", "found", h.total_spoke_length)
        return StepFound(emb)
    comp = set(h.edge_set()) | eset(p_path)
    return claim_k5minus(ctx, comp, h, "b")


def assemble_case_a(ctx: Ctx, h: WheelW4, p_path) -> Step:
    """p1 internal on spoke P2 (after mirroring): wheel shortened at p1.

    p_path runs v1 -> p1 and meets the wheel only at its endpoints.  The new
    wheel keeps spokes P1, P3, P4, cuts P2 at p1, and reroutes the rim
    v1 -> p1 -> v3 through p_path and the abandoned spoke tail.
    """
    p1 = p_path[-1]
    v1, v2, v3, v4 = h.smr
    p2 = h.spokes[1]
    new_spoke2 = subpath(p2, h.hub, p1)
    tail = subpath(p2, p1, v2)  # abandoned spoke tail, reused by the rim
    rim_p1_v3 = safe_join(tail, h.rim[1])
    wheel = None
    if rim_p1_v3 is not None:
        wheel = WheelW4(
            h.hub,
            (h.spokes[0], new_spoke2, h.spokes[2], h.spokes[3]),
            (v1, p1, v3, v4),
            (tuple(p_path), rim_p1_v3, h.rim[2], h.rim[3]),
        ).canonical()
    if wheel is not None and wheel.verify(ctx.g) == []:
        prefixes = (
            len(h.spokes[0]) - 1,
            len(new_spoke2) - 1,
            len(h.spokes[2]) - 1,
            len(h.spokes[3]) - 1,
        )
        wit = ShorterWitness(wheel, prefixes)
        return _improve_step(ctx, wit, "a")
    comp = set(h.edge_set()) | eset(p_path)
    return claim_shorter(ctx, comp, h, "a")


# -- the near side of an apex: cases (c)(ii), (d)(ii) and (e) ------------------


class Corner:
    """The near side of the wheel at the apex a = h.smr[i] (v3 in cases (c)
    and (d), v1 in case (e)): the part `seg` of a's spoke and the near parts
    of the two rim segments at a, as (rim index, part in rim order) pairs.
    The rest of H and of the standing path P from v1 (none in case (e)) is
    the far side; the vertices off H and P are free.  Labels of the two
    arguments are label + "_1" (spoke pocket) and label + "_2" (paired rims).
    """

    def __init__(self, ctx: Ctx, h: WheelW4, i: int, P, seg, rims, label: str):
        self.h, self.i, self.seg, self.rims, self.label = h, i, seg, rims, label
        self.apex, self.spoke = h.smr[i], h.spokes[i]
        body = set(h.vertex_set()) | set(P)
        self.free = frozenset(range(ctx.g.n)) - body
        self.near_rims = vset(*(part for _, part in rims))
        self.far = body - set(seg) - self.near_rims
        self.comp = set(h.edge_set()) | eset(P)

    def pendant(self, ctx: Ctx) -> Step:
        """The bridge meets H and P only at the apex: the apex is a cut."""
        step = try_cut(ctx, {self.apex}, self.label + ":pendant", self.h.total_spoke_length)
        return step if step is not None else StepFallback(self.label + ":pendant_cut_failed")

    def pocket_end(self, g: Graph, default: int) -> int:
        """The vertex nearest the hub where a bridge of `seg` that misses the
        rest of the wheel attaches: how far the pocket reaches along the spoke."""
        rest = self.h.smr[(self.i + 1) % 4]
        attachments = set()
        for b in compute_bridges(g, set(self.seg), eset(self.seg)):
            if rest not in b.core:
                attachments |= set(b.attachments)
        return min(attachments, key=self.spoke.index) if attachments else default


def settle(ctx: Ctx, claims, r2, comp, wheel, label: str) -> Step | None:
    """Certify what an escape landing at r2 gives: claims = (the landings that
    give K5-minus, the landings that give a shorter wheel)."""
    k5m, shorter = claims
    if r2 in k5m:
        return claim_k5minus(ctx, comp, wheel, label + ":k5m")
    if r2 in shorter:
        return claim_shorter(ctx, comp, wheel, label + ":short")
    return None


class Pocket(NamedTuple):
    """The part of the apex's spoke from the apex a to x (nearer the hub),
    walled off from the far side by two internally disjoint a-x routes."""

    x: int
    sources: set        # an escape to the far side starts here ...
    allowed: set        # ... and runs through here
    touch: set          # a path to the near rims starts here ...
    touch_via: set      # ... and runs through here
    walls: tuple        # the a-x routes the near-rim claim keeps
    escape_walls: Callable[[], tuple]        # the a-x routes the escape claims keep
    route: Callable[[int, tuple], tuple | None]  # (r1, new path from a) -> x-a route
    cut_at: Callable[[], int]                # the apex's partner in the closing cut


def spoke_pocket(ctx: Ctx, corner: Corner, pocket: Pocket, claims, reroute, reenter,
                 depth: int) -> Step:
    """The spoke-pocket argument: (c)(ii)1, (d)(ii)1 and (e)1.

    An escape R from the pocket to the far side lands where `claims` settle
    it, or in `reroute`: then the spoke beyond x follows a pocket route, the
    new path from the apex runs along the wall R starts on (the spoke when R
    starts on it) and then R, and reenter(wheel, path, r2, depth) goes on.
    Without an escape, a pocket-to-rim path beats shortness; without that,
    the apex and cut_at() form a cut.
    """
    g, h, a = ctx.g, corner.h, corner.apex
    label = corner.label + "_1"
    r_path = search_path(g, pocket.sources, corner.far, pocket.allowed)
    if r_path is not None:
        r1, r2 = r_path[0], r_path[-1]
        walls = pocket.escape_walls()
        comp = corner.comp | eset(r_path, *walls)
        step = settle(ctx, claims, r2, comp, h, label)
        if step is not None:
            return step
        if r2 not in reroute:
            return _escalate(ctx, comp, h, label + ":odd_landing")
        feeder = next((w for w in walls if r1 in interior(w)), subpath(corner.spoke, a, pocket.x))
        q_new = safe_join(subpath(feeder, a, r1), r_path)
        route = None if q_new is None else pocket.route(r1, q_new)
        new_spoke = None if route is None else search_path(
            Graph(g.n, eset(subpath(corner.spoke, h.hub, pocket.x), route)),
            {h.hub}, {a}, range(g.n),
        )
        if new_spoke is None:
            return _escalate(ctx, comp, h, label + ":stitch_failed")
        spokes = list(h.spokes)
        spokes[corner.i] = new_spoke
        h_new = WheelW4(h.hub, tuple(spokes), h.smr, h.rim)
        if h_new.verify(g) != []:
            return _escalate(ctx, comp, h, label + ":bad_wheel")
        wit = improve_once(g, h_new, tracker=ctx.tracker)
        if isinstance(wit, BudgetExceeded):
            return StepBudget()
        if wit is not None:
            return _improve_step(ctx, wit, label + ":improved_replacement")
        if depth >= MAX_DEPTH:
            return StepFallback(label + ":depth")
        ctx.emit(label, "spoke_detour", h_new.total_spoke_length)
        return reenter(h_new, q_new, r2, depth + 1)

    touch = search_path(g, pocket.touch, corner.near_rims - {a}, pocket.touch_via)
    if touch is not None:
        comp = corner.comp | eset(touch, *pocket.walls)
        return claim_shorter(ctx, comp, h, label + ":to_rim")
    return cut_or_scan(ctx, {a, pocket.cut_at()}, [{a, w} for w in corner.seg if w != a],
                       label + ":cut", h.total_spoke_length)


def paired_rims(ctx: Ctx, corner: Corner, orders, spoke_from, land,
                depth: int) -> Step:
    """The paired-rim argument: (c)(ii)2, (d)(ii)2 and (e)2.

    On each near rim part in turn, take the first candidate x of its order
    (far end first) with two internally disjoint apex-x paths through free
    vertices and the part.  An escape R from inside the pair to the far side
    turns the pair path R does not start on into the new rim segment; the
    other pair path and R form a new path from the apex, and
    land(wheel, path, r2, composite, depth) settles where it lands.  Without
    an escape, a path from spoke_from to the near rims beats shortness;
    without that, the apex and the two pair ends form a cut.
    """
    g, h, a = ctx.g, corner.h, corner.apex
    label = corner.label + "_2"
    ctx.emit(label, "case", h.total_spoke_length)
    ends = []
    for (idx, part), order in zip(corner.rims, orders):
        pair = minimal_pair(g, a, order, corner.free | set(part))
        if pair is None:
            ends.append(a)
            continue
        pa, pb, x = pair
        ends.append(x)
        walls = set(pa) | set(pb)
        allowed = (corner.free - walls) | (set(subpath(h.rim[idx], a, x)) - {a, x} - walls)
        r_path = search_path(g, walls - {a, x}, corner.far, allowed)
        if r_path is None:
            continue
        r1, r2 = r_path[0], r_path[-1]
        feeder, replacement = (pa, pb) if r1 in set(pa) - {a, x} else (pb, pa)
        comp = corner.comp | eset(pa, pb, r_path)
        seg = h.rim[idx]
        if seg[0] == a:
            new_seg = safe_join(replacement, subpath(seg, x, seg[-1]))
        else:
            new_seg = safe_join(subpath(seg, seg[0], x), tuple(reversed(replacement)))
        if new_seg is None:
            return _escalate(ctx, comp, h, label + ":rim_stitch_failed")
        rim = list(h.rim)
        rim[idx] = new_seg
        h_new = WheelW4(h.hub, h.spokes, h.smr, tuple(rim))
        if h_new.verify(g) != []:
            return _escalate(ctx, comp, h, label + ":bad_rim")
        q_new = safe_join(subpath(feeder, a, r1), r_path)
        if q_new is None:
            return _escalate(ctx, comp, h, label + ":q_stitch_failed")
        return land(h_new, q_new, r2, comp, depth)

    path3 = search_path(g, spoke_from, corner.near_rims - {a}, corner.free)
    if path3 is not None:
        return claim_shorter(ctx, corner.comp | eset(path3), h, label + ":to_rim")
    near_a, near_b = (part for _, part in corner.rims)
    return cut_or_scan(ctx, {a, *ends}, [{a, b, c} for b in near_a for c in near_b],
                       label + ":cut", h.total_spoke_length)
