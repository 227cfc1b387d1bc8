"""Case (c): the new path from v1 lands internally on rim segment R2.

Entry assumes the wheel is oriented so that p1 is an internal vertex of
rim[1] (the analyze step mirrors R3 landings onto R2 first) and that P was
chosen landing as close to v3 along R2 as possible.
"""

from __future__ import annotations

from .bridges import bridge_containing_edge, bridge_path, bridges_from, compute_bridges
from .tables import K5MINUS, SHORTER_W4, c1_case, c1_outcome, outcome_rank
from .wheel import WheelW4, improve_once, subpath  # improve_once: only for perfbench/tracing.py
from ._work import (
    MAX_DEPTH,
    Corner,
    Ctx,
    Pocket,
    StepFallback,
    assemble_case_b,
    claim_k5minus,
    claim_shorter,
    cut_or_scan,
    eset,
    fourth_neighbors,
    interior,
    minimal_pair,
    paired_rims,
    safe_join,
    search_path,
    settle,
    spoke_pocket,
    vset,
    _escalate,
)


def run(ctx: Ctx, h: WheelW4, P, p1, depth: int, preferred_u3: int | None = None):
    g = ctx.g
    v = h.hub
    v1, v2, v3, v4 = h.smr
    P1, P2, P3, P4 = h.spokes
    R1, R2, R3, R4 = h.rim
    hv, he = set(h.vertex_set()), set(h.edge_set())
    total = h.total_spoke_length
    ctx.emit("c", "case", total)

    hp_v = hv | set(P)
    hp_e = he | eset(P)
    fourth = fourth_neighbors(g, he, v3)
    if not fourth:
        return StepFallback("c:no_fourth_neighbor_of_v3")
    u3 = preferred_u3 if preferred_u3 in fourth else fourth[0]
    bridges_hp = compute_bridges(g, hp_v, hp_e)
    U3 = bridge_containing_edge(bridges_hp, v3, u3)
    att = set(U3.attachments) - {v3}

    v2R2p1 = subpath(R2, v2, p1)
    p1R2v3 = subpath(R2, p1, v3)

    if v1 in att:
        w_path = bridge_path(g, U3, v3, v1)
        return assemble_case_b(ctx, h, tuple(reversed(w_path)))

    k5_zone = (set(R1) - {v1}) | (set(v2R2p1) - {p1}) | set(interior(P)) | set(interior(P1))
    hits = sorted(att & k5_zone)
    if hits:
        q_path = bridge_path(g, U3, v3, hits[0])
        return claim_k5minus(ctx, hp_e | eset(q_path), h, "c:fig1")

    hits = sorted(att & (set(interior(P2)) | set(interior(P4))))
    if hits:
        q_path = bridge_path(g, U3, v3, hits[0])
        return claim_shorter(ctx, hp_e | eset(q_path), h, "c:spoke_attach")

    confined = set(interior(R4)) | set(p1R2v3) | set(R3) | set(P3)
    if not att <= confined:
        return StepFallback("c:unconfined_attachments")

    # (i): is there any H u P-avoiding path from v3 to the interior of R4?
    # Choose the landing closest to v1 along R4.
    reach = bridges_from(bridges_hp, v3)
    q3 = next((x for x in R4[-2:0:-1] if x in reach), None)  # R4 runs v4 -> v1
    if q3 is not None:
        q_path = bridge_path(g, reach[q3], v3, q3)
        return case_c_i(ctx, h, P, p1, q_path, q3, depth)
    return case_c_ii(ctx, h, P, p1, U3, att, depth)


# -- (i): U3 reaches the interior of R4 --------------------------------------


def case_c_i(ctx: Ctx, h: WheelW4, P, p1, Q, q3, depth: int):
    g = ctx.g
    if depth > MAX_DEPTH:
        return StepFallback("c_i:depth")
    v = h.hub
    v1, v2, v3, v4 = h.smr
    P1, P2, P3, P4 = h.spokes
    R1, R2, R3, R4 = h.rim
    hv, he = set(h.vertex_set()), set(h.edge_set())
    total = h.total_spoke_length
    ctx.emit("c_i", "case", total)

    comp_v = hv | set(P) | set(Q)
    comp_e = he | eset(P) | eset(Q)
    g1v = vset(R1, R2, P1, P2, P)
    g2v = vset(R3, R4, P3, P4, Q)
    core = {v1, v, v3}
    side_a = g1v - core
    side_b = g2v - core

    v2R2p1 = subpath(R2, v2, p1)
    p1R2v3 = subpath(R2, p1, v3)
    v4R4q3 = subpath(R4, v4, q3)
    q3R4v1 = subpath(R4, q3, v1)

    def row_of(r1):
        if r1 == p1 or r1 in interior(P):
            return "P"
        if r1 in set(R1) - {v1}:
            return "R1"
        if r1 in interior(P1):
            return "P1"
        if r1 in interior(P2):
            return "P2"
        if r1 in set(v2R2p1) - {v2, p1}:
            return "v2R2p1"
        if r1 in set(p1R2v3) - {p1, v3}:
            return "p1R2v3"
        return None

    def col_of(r2):
        if r2 == q3 or r2 in interior(Q):
            return "Q"
        if r2 in set(R3) - {v3}:
            return "R3"
        if r2 in interior(P3):
            return "P3"
        if r2 in interior(P4):
            return "P4"
        if r2 in set(v4R4q3) - {v4, q3}:
            return "v4R4q3"
        if r2 in set(q3R4v1) - {q3, v1}:
            return "q3R4v1"
        return None

    bridges_c = compute_bridges(g, comp_v, comp_e)
    cands = []
    for bridge in bridges_c:
        aa = sorted(set(bridge.attachments) & side_a)
        bb = sorted(set(bridge.attachments) & side_b)
        for r1 in aa:
            row = row_of(r1)
            if row is None:
                continue
            for r2 in bb:
                col = col_of(r2)
                if col is None:
                    continue
                cid = c1_case(row, col)
                out = c1_outcome(cid)
                cands.append((outcome_rank(out), r1, r2, cid, out, col, bridge))
    if not cands:
        return cut_or_scan(ctx, {v1, v, v3}, [], "c_i:no_cross_path", total)
    cands.sort(key=lambda t: (t[0], t[1], t[2]))
    rank, r1, r2, cid, out, col, bridge = cands[0]
    r_path = bridge_path(g, bridge, r1, r2)
    comp_plus = comp_e | eset(r_path)
    if out == K5MINUS:
        return claim_k5minus(ctx, comp_plus, h, f"c_i:{cid}")
    if out == SHORTER_W4:
        return claim_shorter(ctx, comp_plus, h, f"c_i:{cid}")
    return _c_residual(ctx, h, P, p1, Q, q3, cands, depth)


def _c_residual(ctx: Ctx, h, P, p1, Q, q3, cands, depth):
    """Rows 2b/6b/7b/7c/7d/10b/13/22b: the secondary-path arguments."""
    g = ctx.g
    total = h.total_spoke_length
    R2 = h.rim[1]
    f1 = [c for c in cands if c[3] in ("6b", "7b", "7d", "10b")]
    f2 = [c for c in cands if c[3] in ("2b", "7c", "22b")]
    thirteen = [c for c in cands if c[3] == "13"]
    if f1:
        pos = {x: i for i, x in enumerate(subpath(R2, p1, h.smr[2]))}
        f1.sort(key=lambda c: (pos[c[1]], c[1], c[2]))
        _, r1, r2, cid, out, col, bridge = f1[0]
        r_path = bridge_path(g, bridge, r1, r2)
        return _c_residual_canonical(ctx, h, P, p1, Q, q3, r1, col, r_path, depth)
    if f2:
        # symmetric side: rotate the wheel half way and swap P and Q
        if depth >= MAX_DEPTH:
            return StepFallback("c_res:mirror_depth")
        ctx.emit("c_i", "mirror", total)
        h2 = h.reorder(2, False)
        return case_c_i(ctx, h2, Q, q3, P, p1, depth + 1)
    # only case 13 (P1 to P3) remains
    thirteen.sort(key=lambda c: (c[1], c[2]))
    _, r1, r2, cid, out, col, bridge = thirteen[0]
    r13 = bridge_path(g, bridge, r1, r2)
    return _c_case13(ctx, h, P, p1, Q, q3, r13, depth)


def _c_case13(ctx: Ctx, h, P, p1, Q, q3, r13, depth):
    g = ctx.g
    total = h.total_spoke_length
    v = h.hub
    v1, v2, v3, v4 = h.smr
    P1, P2, P3, P4 = h.spokes
    R1, R2, R3, R4 = h.rim
    hv, he = set(h.vertex_set()), set(h.edge_set())
    comp_v = hv | set(P) | set(Q)
    comp_e = he | eset(P) | eset(Q)
    ctx.emit("c_i", "case13", total)

    g1v = vset(R1, R2, P1, P2, P)
    g2v = vset(R3, R4, P3, P4, Q)
    core = {v1, v, v3}
    a2 = (g1v - set(P1)) - core
    b2 = (g2v - set(P3)) - core
    everything = frozenset(range(g.n))
    allowed = (everything - comp_v) | (set(P1) - {v1, v}) | (set(P3) - {v, v3})
    rp = search_path(g, a2, b2, allowed)
    if rp is None:
        return cut_or_scan(ctx, {v1, v, v3}, [], "c_i:13_cut", total)
    comp_plus = comp_e | eset(r13) | eset(rp)
    if set(rp[1:-1]) & (set(P1) | set(P3)):
        # the secondary path clips a spoke: one of the eight subpath classes
        return claim_shorter(ctx, comp_plus, h, "c_i:13_subpath")
    # rp qualifies as a fresh R avoiding P1 and P3; rescan will classify it
    # into one of the non-13 cells
    if depth >= MAX_DEPTH:
        return StepFallback("c_i:13_depth")
    return case_c_i(ctx, h, P, p1, Q, q3, depth + 1)


def _c_residual_canonical(ctx: Ctx, h, P, p1, Q, q3, r1, col, r_path, depth):
    """All cross paths land on p1R2v3; drive the r1-minimal argument."""
    g = ctx.g
    everything = frozenset(range(g.n))
    guard = 0
    while True:
        guard += 1
        if guard > g.n + 2:
            return StepFallback("c_res:loop_guard")
        total = h.total_spoke_length
        v = h.hub
        v1, v2, v3, v4 = h.smr
        P1, P2, P3, P4 = h.spokes
        R1, R2, R3, R4 = h.rim
        hv, he = set(h.vertex_set()), set(h.edge_set())
        comp_v = hv | set(P) | set(Q)
        comp_e = he | eset(P) | eset(Q)
        g1v = vset(R1, R2, P1, P2, P)
        g2v = vset(R3, R4, P3, P4, Q)
        v2R2p1 = subpath(R2, v2, p1)
        p1R2v3 = subpath(R2, p1, v3)
        r1R2v3 = subpath(R2, r1, v3)
        q3R4v1 = subpath(R4, q3, v1)
        ctx.emit("c_i", "residual", total)

        a2 = set(r1R2v3) - {r1}
        t2 = (g1v - set(P1)) - set(r1R2v3)
        free = everything - comp_v
        rp = search_path(g, a2, t2, free - set(r_path))
        crossing = False
        if rp is None:
            rp = search_path(g, a2, t2, free)
            crossing = rp is not None
        if rp is None:
            return cut_or_scan(
                ctx,
                {r1, v, v1},
                [{w, v, v1} for w in p1R2v3],
                "c_i:res_cut",
                total,
            )
        s, t = rp[0], rp[-1]
        comp_plus = comp_e | eset(r_path) | eset(rp)
        if t in interior(P2):
            return claim_shorter(ctx, comp_plus, h, "c_i:res_p2")
        if t in (set(R1) - {v1}) | (set(v2R2p1) - {v2, p1}) or t == v2:
            if col != "q3R4v1":
                return claim_k5minus(ctx, comp_plus, h, "c_i:res_eight")
            # the r2 argument: R lands on q3R4v1
            r2 = r_path[-1] if r_path[-1] in set(q3R4v1) else r_path[0]
            r2R4v1 = subpath(R4, r2, v1)
            a3 = set(r2R4v1) - {r2}
            t3 = (g2v - set(P3)) - set(r2R4v1)
            rpp = search_path(g, a3, t3, free)
            if rpp is None:
                return cut_or_scan(
                    ctx,
                    {r2, v, v3},
                    [{w, v, v3} for w in q3R4v1],
                    "c_i:res_r2_cut",
                    total,
                )
            return claim_k5minus(ctx, comp_plus | eset(rpp), h, "c_i:res_four")
        between = set(subpath(R2, p1, r1)) - {r1}
        if t in between and not crossing:
            # reroute the rim through rp and continue closer to v3
            new_r2 = safe_join(
                subpath(R2, v2, t), tuple(reversed(rp)), subpath(R2, s, v3)
            )
            new_r = safe_join(subpath(R2, s, r1), tuple(r_path))
            if new_r2 is not None and new_r is not None:
                h_new = WheelW4(
                    h.hub, h.spokes, h.smr, (R1, new_r2, R3, R4)
                )
                if h_new.verify(g) == []:
                    ctx.emit("c_i", "rim_replace", total)
                    h = h_new
                    r_path = new_r
                    r1 = s
                    continue
            return _escalate(ctx, comp_plus, h, "c_i:res_reroute_failed")
        # t == p1, t on P, or a crossing reroute: the choice arguments say these
        # cannot happen; certify whatever the composite holds, then punt
        return _escalate(ctx, comp_plus, h, "c_i:res_unexpected_landing")


# -- (ii): U3 confined to p1R2v3, R3, P3 -------------------------------------


def case_c_ii(ctx: Ctx, h, P, p1, U3, att, depth):
    """The spoke pocket at v3 when U3 meets P3, else the paired rims at v3."""
    g = ctx.g
    v = h.hub
    v1, v2, v3, v4 = h.smr
    P1, P2, P3, P4 = h.spokes
    R1, R2, R3, R4 = h.rim
    p1R2v3 = subpath(R2, p1, v3)
    corner = Corner(ctx, h, 2, P, P3, ((1, p1R2v3), (2, R3)), "c_ii")
    if not att:
        return corner.pendant(ctx)
    claims = (
        (set(P1) - {v}) | set(R1) | (set(subpath(R2, v2, p1)) - {p1}) | (set(P) - {p1}),
        interior(P2) | interior(P4),
    )

    if att & (set(P3) - {v3}):
        ctx.emit("c_ii_1", "case", h.total_spoke_length)
        pair = minimal_pair(g, v3, P3[:-1], corner.free | set(P3))
        if pair is None:
            return StepFallback("c_ii_1:no_pair")
        px, py, x = pair
        walls = set(px) | set(py)
        inner = walls - {v3, x}
        pocket = Pocket(
            x=x,
            sources=inner,
            allowed=(corner.free - walls) | (set(subpath(P3, v3, x)) - {v3, x} - walls),
            touch=inner,
            touch_via=(corner.free | set(P3) | walls) - {v3},
            walls=(px, py),
            escape_walls=lambda: (px, py),
            route=lambda r1, q_new: py if r1 in interior(px) else px,
            cut_at=lambda: x,
        )
        return spoke_pocket(
            ctx, corner, pocket, claims, interior(R4),
            lambda h_new, q_new, r2, d: case_c_i(ctx, h_new, P, p1, q_new, r2, d),
            depth,
        )

    def land(h_new, q_new, r2, comp, d):
        step = settle(ctx, claims, r2, comp, h_new, "c_ii_2")
        if step is None and r2 in interior(R4) and d < MAX_DEPTH:
            ctx.emit("c_ii_2", "rim_replace", h_new.total_spoke_length)
            step = case_c_i(ctx, h_new, P, p1, q_new, r2, d + 1)
        if step is None:
            step = _escalate(ctx, comp, h_new, "c_ii_2:odd_landing")
        return step

    return paired_rims(
        ctx, corner, (p1R2v3[:-1], R3[:0:-1]), interior(P3), land, depth
    )
