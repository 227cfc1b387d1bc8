"""Structured W4-subdivision handling and the shortness improvement loop.

A wheel is stored as hub, four spokes (paths hub -> spoke-meets-rim vertex),
the four smr vertices in rim order, and four rim segments (segment i runs
from smr[i] to smr[(i+1) % 4]).  "Shorter than" follows the standard
definition: same hub, every spoke an initial segment of the corresponding old
spoke, at least one proper.  `improve_once` decides shortness exactly (up to
budget) by trying every prefix tuple and searching for a rim among the
remaining vertices with an anchored 4-cycle search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .finder import BudgetExceeded, BudgetTracker, find_subdivision
from .graphs import Graph
from .patterns import C4, W4, Embedding, verify_embedding


# -- path helpers shared with the extractor ---------------------------------


def path_edges(path) -> list[tuple[int, int]]:
    return [(a, b) if a < b else (b, a) for a, b in zip(path, path[1:])]


def subpath(path, a: int, b: int) -> tuple[int, ...]:
    """xPy: the portion of `path` between vertices a and b, oriented a -> b."""
    ia, ib = path.index(a), path.index(b)
    if ia <= ib:
        return tuple(path[ia:ib + 1])
    return tuple(reversed(path[ib:ia + 1]))


def concat(*parts) -> tuple[int, ...]:
    """Join paths end to start; consecutive parts must share an endpoint."""
    out = list(parts[0])
    for p in parts[1:]:
        if not p:
            continue
        if out and p[0] != out[-1]:
            raise ValueError(f"cannot join paths at {out[-1]} vs {p[0]}")
        out.extend(p[1:])
    return tuple(out)


def is_simple(path) -> bool:
    return len(set(path)) == len(path)


@dataclass(frozen=True)
class WheelW4:
    hub: int
    spokes: tuple[tuple[int, ...], ...]  # spokes[i]: hub -> smr[i]
    smr: tuple[int, int, int, int]
    rim: tuple[tuple[int, ...], ...]  # rim[i]: smr[i] -> smr[(i+1) % 4]

    # -- views -----------------------------------------------------------

    @property
    def total_spoke_length(self) -> int:
        return sum(len(s) - 1 for s in self.spokes)

    def vertex_set(self) -> frozenset[int]:
        out = {self.hub}
        for p in self.spokes + self.rim:
            out.update(p)
        return frozenset(out)

    def edge_set(self) -> frozenset[tuple[int, int]]:
        out = set()
        for p in self.spokes + self.rim:
            out.update(path_edges(p))
        return frozenset(out)

    def to_embedding(self) -> Embedding:
        # W4 pattern edge order: (0,1) (0,2) (0,3) (0,4) (1,2) (1,4) (2,3) (3,4)
        paths = (
            self.spokes[0],
            self.spokes[1],
            self.spokes[2],
            self.spokes[3],
            self.rim[0],
            tuple(reversed(self.rim[3])),
            self.rim[1],
            self.rim[2],
        )
        return Embedding(W4, (self.hub, *self.smr), paths)

    def verify(self, g: Graph) -> list[str]:
        out = list(verify_embedding(g, self.to_embedding()))
        for i in range(4):
            if self.spokes[i][0] != self.hub or self.spokes[i][-1] != self.smr[i]:
                out.append(f"spoke {i} endpoints wrong")
            if self.rim[i][0] != self.smr[i] or self.rim[i][-1] != self.smr[(i + 1) % 4]:
                out.append(f"rim segment {i} endpoints wrong")
        return out

    # -- relabeling ------------------------------------------------------

    def reorder(self, start: int, flip: bool) -> "WheelW4":
        """Same wheel with the rim walked from position `start`, optionally reversed."""
        if not flip:
            idx = [(start + i) % 4 for i in range(4)]
            spokes = tuple(self.spokes[i] for i in idx)
            smr = tuple(self.smr[i] for i in idx)
            rim = tuple(self.rim[i] for i in idx)
        else:
            idx = [(start - i) % 4 for i in range(4)]
            spokes = tuple(self.spokes[i] for i in idx)
            smr = tuple(self.smr[i] for i in idx)
            rim = tuple(
                tuple(reversed(self.rim[(start - 1 - i) % 4])) for i in range(4)
            )
        return WheelW4(self.hub, spokes, smr, rim)

    def canonical(self) -> "WheelW4":
        """smr[0] is the least smr vertex; orientation makes smr[1] minimal."""
        start = min(range(4), key=lambda i: self.smr[i])
        fwd = self.smr[(start + 1) % 4]
        bwd = self.smr[(start - 1) % 4]
        return self.reorder(start, flip=bwd < fwd)

    @staticmethod
    def from_embedding(emb: Embedding) -> "WheelW4":
        if emb.pattern != W4:
            raise ValueError(f"not a W4 embedding: pattern {emb.pattern.name!r}")
        bm = emb.branch_map
        spokes = emb.paths[0:4]
        rim = (
            emb.paths[4],
            emb.paths[6],
            emb.paths[7],
            tuple(reversed(emb.paths[5])),
        )
        return WheelW4(bm[0], spokes, (bm[1], bm[2], bm[3], bm[4]), rim).canonical()

    def to_json(self) -> dict:
        """Embedding JSON plus structural role tags."""
        out = self.to_embedding().to_json()
        out["roles"] = {
            "hub": self.hub,
            "spoke_meets_rim": list(self.smr),
            "spokes": [list(p) for p in self.spokes],
            "rim_segments": [list(p) for p in self.rim],
        }
        return out


@dataclass(frozen=True)
class ShorterWitness:
    """A wheel shorter than the one it improves: same hub, prefix spokes."""

    wheel: WheelW4
    prefixes: tuple[int, ...]  # per original spoke: kept edge count


# the three essentially different cyclic orders of four anchored rim vertices
_C4_ORDERS = ((0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3))


def find_w4(
    g: Graph,
    tracker: BudgetTracker | None = None,
) -> WheelW4 | None | BudgetExceeded:
    res = find_subdivision(g, W4, tracker=tracker)
    if res is None or isinstance(res, BudgetExceeded):
        return res
    return WheelW4.from_embedding(res)


def improve_once(
    g: Graph,
    h: WheelW4,
    tracker: BudgetTracker | None = None,
) -> ShorterWitness | None | BudgetExceeded:
    """One exact improvement step: a strictly shorter same-hub wheel, or None.

    Candidate prefix tuples are tried in increasing total length, so the
    first hit is a minimum-total shorter wheel; None means h is short.
    """
    lens = [len(s) - 1 for s in h.spokes]
    tuples = sorted(
        (t for t in product(*(range(1, L + 1) for L in lens)) if list(t) != lens),
        key=lambda t: (sum(t), t),
    )
    all_vertices = frozenset(range(g.n))
    for t in tuples:
        cuts = tuple(h.spokes[i][t[i]] for i in range(4))
        interiors = set()
        for i in range(4):
            interiors.update(h.spokes[i][: t[i]])
        allowed = all_vertices - interiors
        if any(
            sum(1 for w in g.neighbors(c) if w in allowed) < 2 for c in cuts
        ):
            continue
        for order in _C4_ORDERS:
            anchors = {j: cuts[order[j]] for j in range(4)}
            emb = find_subdivision(g, C4, anchors=anchors, restrict=allowed, tracker=tracker)
            if isinstance(emb, BudgetExceeded):
                return emb
            if emb is None:
                continue
            smr = tuple(cuts[order[j]] for j in range(4))
            spokes = tuple(h.spokes[order[j]][: t[order[j]] + 1] for j in range(4))
            # C4 pattern edges sort as (0,1) (0,3) (1,2) (2,3)
            rim = (
                emb.paths[0],
                emb.paths[2],
                emb.paths[3],
                tuple(reversed(emb.paths[1])),
            )
            wheel = WheelW4(h.hub, spokes, smr, rim).canonical()
            bad = wheel.verify(g)
            if bad:
                raise AssertionError(f"improvement produced an invalid wheel: {bad}")
            return ShorterWitness(wheel, tuple(t))
    return None


def make_short(
    g: Graph,
    h: WheelW4,
    tracker: BudgetTracker | None = None,
) -> tuple[WheelW4, list[ShorterWitness], bool]:
    """Iterate improve_once to a fixpoint.

    Returns (wheel, improvement steps, budget_exhausted).  Each step strictly
    decreases total spoke length, so at most the initial total many rounds run.
    """
    steps: list[ShorterWitness] = []
    cur = h
    while True:
        res = improve_once(g, cur, tracker=tracker)
        if res is None:
            return cur, steps, False
        if isinstance(res, BudgetExceeded):
            return cur, steps, True
        if res.wheel.total_spoke_length >= cur.total_spoke_length:
            raise AssertionError("improvement did not shorten the wheel")
        steps.append(res)
        cur = res.wheel
