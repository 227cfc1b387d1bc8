"""Vertex connectivity, minimum separators, disjoint path systems, and fans.

Everything is exact and deterministic.  One augmenting-path routine,
`_flow_paths_cut`, runs Even's vertex-splitting construction on the graph
itself; no network is built.  The flow is kept per vertex: into[v] lists the
neighbours whose unit enters v, so len(into[v]) is the number of units
through v (at most one, except at the single sink of an s-t flow).  Each
augmentation is a breadth-first search over the states (v, in) and (v, out),
which visits, in this order:

* from (v, in): (v, out) if v is free, else (u, out) for the u whose unit
  enters v;
* from (v, out): (v, in) if v is busy, then (w, in) for every live neighbour
  w other than the source, in vertex order.

An edge into a sink carries at most one unit, so a source-sink edge is one
direct path.  This visiting order is the tie-break that fixes which paths
come out.  The minimum cut is read off the reach set of the last, failed
search and the paths by walking successors from the source.  Minimum cuts of
the whole graph are tie-broken to the lexicographically least vertex set
where that is affordable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .graphs import Graph, components


@dataclass(frozen=True, slots=True)
class Separator:
    """A vertex cut together with two separated sides.

    For separators produced by `find_separator` the sides live in G - cut.
    For blocking separators from `fan` they live in G - forbidden - cut
    (the fan contract), with side_b the unreachable target remnant.
    """

    cut: frozenset[int]
    side_a: frozenset[int]
    side_b: frozenset[int]


@dataclass(frozen=True)
class PathSystem:
    """Paths that are pairwise internally disjoint, or disjoint except at an apex."""

    paths: tuple[tuple[int, ...], ...]
    apex: int | None = None


def verify_separator(g: Graph, sep: Separator) -> bool:
    """Recheck that the cut actually separates side_a from side_b in G - cut."""
    if sep.cut & (sep.side_a | sep.side_b):
        return False
    if not sep.side_a or not sep.side_b or sep.side_a & sep.side_b:
        return False
    comp_of = {}
    for i, comp in enumerate(components(g, set(sep.cut))):
        for v in comp:
            comp_of[v] = i
    sides_a = {comp_of[v] for v in sep.side_a}
    sides_b = {comp_of[v] for v in sep.side_b}
    return not (sides_a & sides_b)


def verify_path_system(g: Graph, ps: PathSystem) -> bool:
    """Recheck simplicity, edge existence, and the declared disjointness."""
    for p in ps.paths:
        if len(set(p)) != len(p):
            return False
        for a, b in zip(p, p[1:]):
            if not g.has_edge(a, b):
                return False
    for i in range(len(ps.paths)):
        for j in range(i + 1, len(ps.paths)):
            pi, pj = ps.paths[i], ps.paths[j]
            shared = set(pi) & set(pj)
            ends = {pi[0], pi[-1]} & {pj[0], pj[-1]}
            if ps.apex is not None:
                ends = {ps.apex}
            if shared - ends:
                return False
    return True


def separator_of(g: Graph, cut) -> Separator | None:
    """Separator(cut, first component of G - cut, the rest), or None when
    G - cut is connected."""
    cut = frozenset(cut)
    comps = components(g, set(cut))
    if len(comps) < 2:
        return None
    return Separator(cut, frozenset(comps[0]), frozenset(v for c in comps[1:] for v in c))


# -- unit-capacity flow on the graph itself ------------------------------------


def _flow_paths_cut(
    g: Graph,
    source: int,
    sinks: frozenset[int],
    allowed_internal: frozenset[int],
    limit: int,
    cuttable_sinks: bool,
) -> tuple[list[tuple[int, ...]], frozenset[int]]:
    """Max paths from source to sinks, pairwise disjoint except at source.

    Internal vertices are confined to allowed_internal.  Each sink absorbs at
    most one path when cuttable_sinks is set, any number otherwise.  Returns
    the paths and, when fewer than `limit` exist, a blocking vertex set (drawn
    from allowed_internal, plus sinks when cuttable_sinks is set).
    """
    live = allowed_internal | sinks
    into: list[list[int]] = [[] for _ in range(g.n)]
    root = 2 * source + 1
    flow = 0
    while flow < limit:
        # breadth-first search over the states 2v = (v, in), 2v+1 = (v, out)
        parent = [-1] * (2 * g.n)
        parent[root] = root
        queue = [root]
        end = -1
        for x in queue:
            v = x >> 1
            if x & 1:
                steps = [x - 1] if into[v] else []
                steps += [2 * w for w in g.neighbors(v)
                          if w in live and not (w in sinks and v in into[w])]
            else:
                steps = [2 * u + 1 for u in into[v]] or [x + 1]
            for y in steps:
                if parent[y] < 0:
                    parent[y] = x
                    queue.append(y)
                    # the first sink with room ends the search
                    if y >> 1 in sinks and not (cuttable_sinks and into[y >> 1]):
                        end = y
                        break
            if end >= 0:
                break
        if end < 0:
            break
        # push a unit along the chain: a step (u, out) -> (w, in) sends u's
        # unit into w, a step (w, in) -> (u, out) takes it back
        flow += 1
        y = end
        while y != root:
            x = parent[y]
            if x >> 1 != y >> 1:
                if x & 1:
                    into[y >> 1].append(x >> 1)
                else:
                    into[x >> 1].remove(y >> 1)
            y = x

    cut: frozenset[int] = frozenset()
    if flow < limit:
        # the reach set of the failed search: a vertex whose in-state is
        # reached but whose out-state is not sits on the minimum cut; a sink
        # is cut when reached or when its source edge is used up
        cut = frozenset(
            v for v in allowed_internal if parent[2 * v] >= 0 and parent[2 * v + 1] < 0
        )
        if cuttable_sinks:
            cut |= {t for t in sinks if parent[2 * t] >= 0 or g.has_edge(source, t)}

    succ = {u: v for v in range(g.n) for u in into[v]}
    paths = []
    for w in g.neighbors(source):
        if source in into[w]:
            path = [source, w]
            while path[-1] not in sinks:
                path.append(succ[path[-1]])
            paths.append(tuple(path))
    return paths, cut


def disjoint_paths(
    g: Graph,
    u: int,
    v: int,
    limit: int | None = None,
    allowed_internal: frozenset[int] | None = None,
) -> list[tuple[int, ...]]:
    """Maximum set of internally disjoint u-v paths (capped at limit)."""
    if u == v:
        raise ValueError("endpoints must differ")
    if allowed_internal is None:
        allowed_internal = frozenset(range(g.n)) - {u, v}
    else:
        allowed_internal = frozenset(allowed_internal) - {u, v}
    cap = limit if limit is not None else g.n
    paths, _ = _flow_paths_cut(
        g, u, frozenset([v]), allowed_internal, cap, cuttable_sinks=False
    )
    return paths


def min_vertex_cut(g: Graph, u: int, v: int) -> frozenset[int]:
    """Minimum u-v vertex cut for nonadjacent u, v."""
    if g.has_edge(u, v):
        raise ValueError("cut undefined for adjacent endpoints")
    allowed = frozenset(range(g.n)) - {u, v}
    _, cut = _flow_paths_cut(g, u, frozenset([v]), allowed, g.n, cuttable_sinks=False)
    return cut


def max_disjoint_paths(g: Graph, u: int, v: int, limit: int | None = None) -> PathSystem:
    return PathSystem(tuple(disjoint_paths(g, u, v, limit)))


def _kappa_and_cut(g: Graph) -> tuple[int, frozenset[int]]:
    """kappa(G) and the minimum cut of the first s,t pair that reaches it.

    The pairs are s in {v0} + N(v0) for a least-degree v0 and every t not
    adjacent to s.  The cut is empty for trivial, complete and disconnected
    graphs.
    """
    n = g.n
    if n <= 1:
        return 0, frozenset()
    if g.is_complete():
        return n - 1, frozenset()
    if len(components(g)) > 1:
        return 0, frozenset()
    v0 = min(range(n), key=lambda v: (g.degree(v), v))
    best, best_cut = n - 1, frozenset()
    for s in (v0, *g.neighbors(v0)):
        for t in range(n):
            if t == s or g.has_edge(s, t):
                continue
            allowed = frozenset(range(n)) - {s, t}
            paths, cut = _flow_paths_cut(
                g, s, frozenset([t]), allowed, best, cuttable_sinks=False
            )
            if len(paths) < best:
                best, best_cut = len(paths), cut
    return best, best_cut


def vertex_connectivity(g: Graph) -> int:
    """kappa(G); n-1 for complete graphs, 0 for empty or disconnected ones."""
    return _kappa_and_cut(g)[0]


def find_separator(g: Graph, k: int) -> Separator | None:
    """A minimum separator when kappa(G) < k and G is incomplete; else None.

    The returned cut is the lexicographically least minimum cut whenever the
    brute-force scan of comb(n, kappa) vertex sets stays within 500,000 (for
    kappa = 3 that holds up to n = 145); otherwise it is the flow cut of the
    first s,t pair that reaches kappa.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if g.n == 0 or g.is_complete():
        return None
    kappa, flow_cut = _kappa_and_cut(g)
    if kappa >= k:
        return None
    if comb(g.n, kappa) <= 500_000:
        cuts = combinations(range(g.n), kappa)
    else:
        cuts = [flow_cut]
    for cut in cuts:
        sep = separator_of(g, cut)
        if sep is not None:
            return sep
    raise AssertionError("connectivity said a cut exists")


def fan(
    g: Graph,
    u: int,
    target: frozenset[int] | set[int],
    k: int,
    forbidden: frozenset[int] | set[int] = frozenset(),
) -> PathSystem | Separator:
    """k paths from u to distinct target vertices, disjoint except at u.

    Path interiors avoid target and forbidden.  When no such fan exists the
    result is a blocking Separator of fewer than k vertices (never u) whose
    removal separates u from the target set within G - forbidden.
    """
    target = frozenset(target)
    forbidden = frozenset(forbidden)
    if u in target or u in forbidden or (target & forbidden):
        raise ValueError("apex, target, and forbidden must be disjoint")
    if k < 1 or k > len(target):
        raise ValueError("need 1 <= k <= |target|")
    allowed = frozenset(range(g.n)) - target - forbidden - {u}
    paths, cut = _flow_paths_cut(g, u, target, allowed, k, cuttable_sinks=True)
    if len(paths) >= k:
        return PathSystem(tuple(paths[:k]), apex=u)
    removed = forbidden | cut
    side_a = next((frozenset(c) for c in components(g, removed) if u in c), None)
    if side_a is None:
        raise AssertionError("the blocking cut contains the apex")
    return Separator(cut, side_a, frozenset(range(g.n)) - removed - side_a)
