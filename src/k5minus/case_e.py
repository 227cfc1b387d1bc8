"""Case (e): the bridge at v1 attaches only inside R1, R4, and P1.

Either an attachment sits on P1 beyond v1 (pocket along the spoke: replace
the spoke and re-dispatch, or cut {v1, q'1}), or everything hugs the two rim
segments (paired-path families, rim replacement and re-dispatch, or cut
{v1, x, y}).  Re-dispatch is a StepHandoff that the extractor classifies.
"""

from __future__ import annotations

# compute_bridges and improve_once are kept only for perfbench/tracing.py
from .bridges import Bridge, bridge_path, compute_bridges
from .wheel import WheelW4, improve_once, subpath
from ._work import (
    MAX_DEPTH,
    Corner,
    Ctx,
    Pocket,
    StepFallback,
    StepHandoff,
    paired_rims,
    spoke_pocket,
    vset,
)


def run(ctx: Ctx, h: WheelW4, U1: Bridge, depth: int):
    g = ctx.g
    v1 = h.smr[0]
    P1 = h.spokes[0]
    R1, R4 = h.rim[0], h.rim[3]
    ctx.emit("e", "case", h.total_spoke_length)
    corner = Corner(ctx, h, 0, (), P1, ((0, R1), (3, R4)), "e")

    att = set(U1.attachments) - {v1}
    if not att:
        return corner.pendant(ctx)
    if not att <= vset(R1, R4, P1):
        return StepFallback("e:unconfined_attachments")

    att_p1 = sorted(att & (set(P1) - {v1}), key=P1.index)
    if att_p1:
        q1 = att_p1[0]  # closest to the hub
        ctx.emit("e_1", "case", h.total_spoke_length)
        px = bridge_path(g, U1, v1, q1)
        v1P1q1 = subpath(P1, v1, q1)
        pocket = Pocket(
            x=q1,
            sources=set(v1P1q1) - {q1},
            allowed=corner.free - set(U1.core),
            touch=set(v1P1q1) - {v1},
            touch_via=corner.free,
            walls=(px,),
            escape_walls=lambda: (px,),
            route=lambda r1, p_new: px,
            cut_at=lambda: corner.pocket_end(g, q1),
        )
        return spoke_pocket(
            ctx, corner, pocket, ((), ()), corner.far,
            lambda h_new, p_new, r2, d: StepHandoff(h_new, p_new, r2, d),
            depth,
        )

    def land(h_new, p_new, r2, comp, d):
        if d >= MAX_DEPTH:
            return StepFallback("e_2:depth")
        ctx.emit("e_2", "rim_replace", h_new.total_spoke_length)
        return StepHandoff(h_new, p_new, r2, d + 1)

    return paired_rims(
        ctx, corner, (R1[-2:0:-1], R4[1:-1]), set(P1) - {v1}, land, depth
    )
