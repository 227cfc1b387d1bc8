"""Structured W4-subdivision handling and the shortness improvement loop.

A wheel is stored as hub, four spokes (paths hub -> spoke-meets-rim vertex),
the four smr vertices in rim order, and four rim segments (segment i runs
from smr[i] to smr[(i+1) % 4]).  "Shorter than" follows the standard
definition: same hub, every spoke an initial segment of the corresponding old
spoke, at least one proper.  `improve_once` decides shortness exactly (up to
budget) by trying every prefix tuple and searching for a rim among the
remaining vertices with an anchored 4-cycle search.

The first wheel comes from `find_w4`: a bounded unrestricted search, then,
when that gives none, `fan_seed`, which builds one in polynomial time from
Dirac's fan lemma or returns a cut of at most three vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable

from .connectivity import Separator, fan, separator_of
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


# Finder nodes the unrestricted W4 search may spend before the fan seed takes
# over.  Under this allowance the search still seeds all but 11 of sparse4
# s = 0..7199, where a fan-only seed leaves more inputs to run make_short out
# of budget, while C_n(1,2) from n = 19, whose search costs 0.5M nodes and
# more, switch to the fan seed.
_SEARCH_ALLOWANCE = 20_000


def find_w4(
    g: Graph,
    tracker: BudgetTracker | None = None,
    on_stage: Callable[[str], None] | None = None,
) -> WheelW4 | Separator | None | BudgetExceeded:
    """A W4-subdivision of g, seeded in two stages.

    The unrestricted search runs first, under _SEARCH_ALLOWANCE nodes that
    are charged to tracker.  When it gives no wheel and every degree is at
    least 4, `fan_seed` answers with a wheel or a cut of at most three
    vertices.  Below degree 4 the fan lemma promises nothing, so the search's
    None or BudgetExceeded stands.  on_stage hears which stage gave the
    returned wheel: "find_w4" or "fan".
    """
    allowance = _SEARCH_ALLOWANCE
    if tracker is not None:
        allowance = min(allowance, tracker.remaining)
    search = BudgetTracker(allowance)
    res = find_subdivision(g, W4, tracker=search)
    if tracker is not None:
        tracker.charge(search.used)
    if isinstance(res, Embedding):
        w, stage = WheelW4.from_embedding(res), "find_w4"
    elif g.min_degree() < 4:
        return res
    else:
        w, stage = fan_seed(g), "fan"
        if isinstance(w, Separator):
            return w
    if on_stage is not None:
        on_stage(stage)
    return w


def fan_seed(g: Graph) -> WheelW4 | Separator:
    """A wheel by Dirac's fan lemma, or a cut of at most three vertices.

    Needs every degree at least 4.  The hub is a least-degree vertex, least
    label on ties, and the rim the shortest of the cycles of length >= 4
    that `_rim_through` finds in G - hub through each hub neighbour, least
    neighbour on ties.  Four paths from the hub to distinct rim vertices,
    disjoint but for the hub and with interiors off the rim, are the spokes;
    the rim arcs between their ends are the segments.  When no such fan
    exists, `fan` returns the blocking cut of fewer than 4 vertices.  When
    a hub neighbour lies on no cycle of length >= 4 in G - hub, the cut that
    `_rim_through` returns instead is the answer.
    """
    if g.min_degree() < 4:
        raise ValueError("the fan seed needs every degree at least 4")
    hub = min(range(g.n), key=lambda v: (g.degree(v), v))
    rim = None
    for x in g.neighbors(hub):
        found = _rim_through(g, hub, x)
        if isinstance(found, frozenset):
            sep = separator_of(g, found)
            if sep is None:
                raise AssertionError(f"rimless cut {sorted(found)} does not separate")
            return sep
        if rim is None or len(found) < len(rim):
            rim = found
    res = fan(g, hub, frozenset(rim), 4)
    if isinstance(res, Separator):
        return res
    pos = {v: i for i, v in enumerate(rim)}
    spokes = sorted(res.paths, key=lambda p: pos[p[-1]])
    ends = [pos[p[-1]] for p in spokes] + [pos[spokes[0][-1]] + len(rim)]
    around = rim + rim
    segments = tuple(tuple(around[ends[i]:ends[i + 1] + 1]) for i in range(4))
    wheel = WheelW4(hub, tuple(spokes), tuple(p[-1] for p in spokes), segments).canonical()
    bad = wheel.verify(g)
    if bad:
        raise AssertionError(f"the fan seed produced an invalid wheel: {bad}")
    return wheel


def _rim_through(g: Graph, hub: int, x: int) -> list[int] | frozenset[int]:
    """A short cycle of length >= 4 through x in G - hub, found by one
    breadth-first search from x; or, when it finds none, a cut {hub, x, c}.

    A cycle leaves x into one branch of the search tree (the subtree of a
    neighbour c of x) and comes back from another, so it is two tree paths
    joined by an edge between branches.  Edges between two neighbours of x
    only close triangles; a 4-cycle x c1 c2 c3 through three neighbours is
    the one such cycle they add.  If neither kind exists and every degree is
    at least 4, some branch reaches depth 2 while all its edges stay in the
    branch, so {hub, x, c} cuts it off.
    """
    parent = {x: x}
    depth = {x: 0}
    branch = {x: x}
    order = [x]
    for u in order:
        for w in g.neighbors(u):
            if w != hub and w not in parent:
                parent[w] = u
                depth[w] = depth[u] + 1
                branch[w] = w if u == x else branch[u]
                order.append(w)

    def up(v):
        path = [v]
        while path[-1] != x:
            path.append(parent[path[-1]])
        return path[::-1]

    best: list[int] | None = None
    for a in order[1:]:
        if depth[a] == 1 and (best is None or len(best) > 4):
            ends = [w for w in g.neighbors(a) if depth.get(w) == 1]
            if len(ends) >= 2:
                best = [x, ends[0], a, ends[1]]
        for b in g.neighbors(a):
            if b > a and depth.get(b, 0) > 0 and branch[b] != branch[a]:
                length = depth[a] + depth[b] + 1
                if length >= 4 and (best is None or length < len(best)):
                    best = up(a) + up(b)[:0:-1]
    if best is not None:
        return best
    deep = next((v for v in order if depth[v] == 2), None)
    if deep is None:
        raise AssertionError("no rim through a neighbour of a degree >= 4 hub")
    return frozenset((hub, x, branch[deep]))


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
    adj = g._adj_bits
    all_vertices = frozenset(range(g.n))
    for t in tuples:
        cuts = tuple(h.spokes[i][t[i]] for i in range(4))
        interiors = [v for i in range(4) for v in h.spokes[i][: t[i]]]
        allowed = (1 << g.n) - 1
        for v in interiors:
            allowed &= ~(1 << v)
        if any((adj[c] & allowed).bit_count() < 2 for c in cuts):
            continue
        restrict = all_vertices.difference(interiors)
        for order in _C4_ORDERS:
            anchors = {j: cuts[order[j]] for j in range(4)}
            emb = find_subdivision(g, C4, anchors=anchors, restrict=restrict, tracker=tracker)
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
