"""Case (d): the new path from v1 lands internally on spoke P3.

Landings on R1/R4 hand off to the rotated case (c) configuration; the rest
mirrors the (c) structure with the 3x3 endpoint table.
"""

from __future__ import annotations

from . import case_c
from .bridges import bridge_containing_edge, bridge_path, compute_bridges
from .tables import K5MINUS, SHORTER_W4, d1_case, d1_outcome, outcome_rank
from .wheel import WheelW4, improve_once, subpath  # improve_once: only for perfbench/tracing.py
from ._work import (
    MAX_DEPTH,
    Corner,
    Ctx,
    Pocket,
    StepFallback,
    claim_k5minus,
    claim_shorter,
    cut_or_scan,
    eset,
    fourth_neighbors,
    interior,
    paired_rims,
    search_path,
    settle,
    spoke_pocket,
    vset,
    _escalate,
)


def _to_case_c(ctx, h, q_path, t, old_p, depth, spokes_main):
    """Rotate the wheel so a v3-path landing on R1/R4 becomes a case-(c) shape."""
    if depth >= MAX_DEPTH:
        return StepFallback("d:relabel_depth")
    h2 = h.reorder(2, False)
    if t in interior(h.rim[0]):  # landing on R1 maps to the new R3: reflect
        h2 = h2.reorder(0, True)
    ctx.emit("d", "relabel_to_c", h.total_spoke_length)
    return case_c.run(
        ctx, h2, q_path, t, depth + 1, spokes_main, preferred_u3=old_p[1]
    )


def run(ctx: Ctx, h: WheelW4, P, p1, depth: int, spokes_main: bool):
    g = ctx.g
    v = h.hub
    v1, v2, v3, v4 = h.smr
    P1, P2, P3, P4 = h.spokes
    R1, R2, R3, R4 = h.rim
    hv, he = set(h.vertex_set()), set(h.edge_set())
    total = h.total_spoke_length
    ctx.emit("d", "case", total)

    hp_v = hv | set(P)
    hp_e = he | eset(P)
    fourth = fourth_neighbors(g, he, v3)
    if not fourth:
        return StepFallback("d:no_fourth_neighbor_of_v3")
    u3 = fourth[0]
    bridges_hp = compute_bridges(g, hp_v, hp_e)
    U3 = bridge_containing_edge(bridges_hp, v3, u3)
    att = set(U3.attachments) - {v3}

    vP3p1 = subpath(P3, v, p1)
    p1P3v3 = subpath(P3, p1, v3)

    k5_zone = {v, v1} | set(interior(P)) | (set(vP3p1) - {v, p1})
    hits = sorted(att & k5_zone)
    if hits:
        q_path = bridge_path(g, U3, v3, hits[0])
        return claim_k5minus(ctx, hp_e | eset(q_path), h, "d:front", spokes_main)

    hits = sorted(att & (set(interior(R1)) | set(interior(R4))))
    if hits:
        q_path = bridge_path(g, U3, v3, hits[0])
        return _to_case_c(ctx, h, q_path, hits[0], P, depth, spokes_main)

    hits = sorted(att & (set(interior(P2)) | set(interior(P4))))
    if hits:
        q_path = bridge_path(g, U3, v3, hits[0])
        return claim_shorter(ctx, hp_e | eset(q_path), h, "d:spoke_attach", spokes_main)

    confined = set(interior(P1)) | set(R2) | set(R3) | set(p1P3v3)
    if not att <= confined:
        return StepFallback("d:unconfined_attachments")

    att_p1 = sorted(att & set(interior(P1)), key=lambda x: P1.index(x))
    if att_p1:
        q3 = att_p1[0]  # closest to the hub along P1
        q_path = bridge_path(g, U3, v3, q3)
        return case_d_i(ctx, h, P, p1, q_path, q3, depth, spokes_main)

    # (ii): U3 confined to R2, R3, p1P3v3: the spoke pocket at v3 when U3
    # meets p1P3v3, else the paired rims at v3
    corner = Corner(ctx, h, 2, P, p1P3v3, ((1, R2), (2, R3)), "d_ii")
    if not att:
        return corner.pendant(ctx)
    on_spoke = sorted(att & (set(p1P3v3) - {v3}), key=P3.index)
    if on_spoke:
        q3 = on_spoke[0]  # closest to p1 along P3
        ctx.emit("d_ii_1", "case", total)
        v3P3q3 = subpath(P3, v3, q3)
        pocket = Pocket(
            x=q3,
            sources=set(v3P3q3) - {q3},
            allowed=corner.free,
            touch=set(v3P3q3) - {v3},
            touch_via=corner.free,
            walls=(),
            escape_walls=lambda: (bridge_path(g, U3, v3, q3),),
            route=lambda r1, q_new: search_path(g, {q3}, {v3}, set(U3.core) - set(q_new)),
            cut_at=lambda: corner.pocket_end(g, q3),
        )
        claims = (k5_zone, interior(P2) | interior(P4) | interior(R1) | interior(R4))
        return spoke_pocket(
            ctx, corner, pocket, claims, interior(P1),
            lambda h_new, q_new, r2, d: case_d_i(ctx, h_new, P, p1, q_new, r2, d, False),
            depth, spokes_main,
        )

    def land(h_new, q_new, r2, comp, d):
        step = settle(ctx, (k5_zone, interior(P2) | interior(P4)), r2, comp, h_new, "d_ii_2",
                      spokes_main)
        if step is not None:
            return step
        if r2 in interior(R1) | interior(R4):
            return _to_case_c(ctx, h_new, q_new, r2, P, d, spokes_main)
        if r2 in interior(P1) and d < MAX_DEPTH:
            ctx.emit("d_ii_2", "rim_replace", h_new.total_spoke_length)
            return case_d_i(ctx, h_new, P, p1, q_new, r2, d + 1, spokes_main)
        return _escalate(ctx, comp, h_new, "d_ii_2:odd_landing", spokes_main)

    return paired_rims(
        ctx, corner, (R2[1:-1], R3[-2:0:-1]), set(p1P3v3) - {v3}, land, depth, spokes_main
    )


# -- (i): U3 reaches the interior of P1 --------------------------------------


def case_d_i(ctx: Ctx, h: WheelW4, P, p1, Q, q3, depth: int, spokes_main: bool):
    g = ctx.g
    if depth > MAX_DEPTH:
        return StepFallback("d_i:depth")
    v = h.hub
    v1, v2, v3, v4 = h.smr
    P1, P2, P3, P4 = h.spokes
    R1, R2, R3, R4 = h.rim
    hv, he = set(h.vertex_set()), set(h.edge_set())
    total = h.total_spoke_length
    ctx.emit("d_i", "case", total)

    comp_v = hv | set(P) | set(Q)
    comp_e = he | eset(P) | eset(Q)
    everything = frozenset(range(g.n))
    g1v = vset(R1, R2, P2)
    g2v = vset(R3, R4, P4)
    core = {v1, v, v3}
    side_a = g1v - core
    side_b = g2v - core

    def cell(r1, r2):
        if r1 == v2:
            row = None
        elif r1 in set(R1) - {v1, v2}:
            row = "R1"
        elif r1 in set(R2) - {v2, v3}:
            row = "R2"
        elif r1 in interior(P2):
            row = "P2"
        else:
            return None
        if r2 == v4:
            col = None
        elif r2 in set(R3) - {v3, v4}:
            col = "R3"
        elif r2 in set(R4) - {v4, v1}:
            col = "R4"
        elif r2 in interior(P4):
            col = "P4"
        else:
            return None
        # boundary landings prefer the strongest claim
        if row is None:
            row = {"R3": "R1", "R4": "R2", "P4": "R1", None: "R1"}[col]
        if col is None:
            col = {"R1": "R3", "R2": "R4", "P2": "R3"}[row]
        return d1_case(row, col)

    bridges_c = compute_bridges(g, comp_v, comp_e)
    cands = []
    for bridge in bridges_c:
        aa = sorted(set(bridge.attachments) & side_a)
        bb = sorted(set(bridge.attachments) & side_b)
        for r1 in aa:
            for r2 in bb:
                cid = cell(r1, r2)
                if cid is None:
                    continue
                out = d1_outcome(cid)
                cands.append((outcome_rank(out), r1, r2, cid, out, bridge))
    if cands:
        cands.sort(key=lambda t: (t[0], t[1], t[2]))
        rank, r1, r2, cid, out, bridge = cands[0]
        r_path = bridge_path(g, bridge, r1, r2)
        comp_plus = comp_e | eset(r_path)
        if out == K5MINUS:
            return claim_k5minus(ctx, comp_plus, h, f"d_i:{cid}", spokes_main)
        if out == SHORTER_W4:
            return claim_shorter(ctx, comp_plus, h, f"d_i:{cid}", spokes_main)
        return _d_residual(ctx, h, P, p1, Q, q3, cands, depth, spokes_main)

    # no clean cross path: one that touches P, Q, P1, or P3 beats shortness
    loose = (everything - comp_v) | set(interior(P)) | set(interior(Q)) \
        | set(interior(P1)) | set(interior(P3))
    r_path = search_path(g, side_a, side_b, loose)
    if r_path is not None:
        return claim_shorter(
            ctx, comp_e | eset(r_path), h, "d_i:nine_classes", spokes_main
        )
    return cut_or_scan(ctx, {v1, v, v3}, [], "d_i:no_cross_path", total)


def _d_residual(ctx: Ctx, h, P, p1, Q, q3, cands, depth, spokes_main):
    """Cases 2 (R1 to R4) and 4 (R2 to R3): v2 gets separated."""
    g = ctx.g
    total = h.total_spoke_length
    v = h.hub
    v1, v2, v3, v4 = h.smr
    R1, R2 = h.rim[0], h.rim[1]
    ctx.emit("d_i", "residual", total)
    two = [c for c in cands if c[3] == "2"]
    four = [c for c in cands if c[3] == "4"]
    r1cut = v1
    if two:
        # endpoint on R1 closest to v2
        two.sort(key=lambda c: -R1.index(c[1]))
        r1cut = two[0][1]
    r2cut = v3
    if four:
        four.sort(key=lambda c: R2.index(c[1]))
        r2cut = four[0][1]
    shapes = [{a, v, b} for a in R1 for b in R2]
    return cut_or_scan(ctx, {r1cut, v, r2cut}, shapes, "d_i:res_cut", total)
