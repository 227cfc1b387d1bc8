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
search and the paths by walking successors from the source.  The flow reads
the graph's neighbour masks (`Graph._adj_bits`) low bit first, which is
vertex order, and takes its vertex sets as masks.  A minimum cut of the
whole graph is the flow cut of the first s,t pair that reaches kappa, and a
question "is kappa >= k?" stops every flow at k units.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, components, members


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


def _mask(vertices) -> int:
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


def _flow_paths_cut(
    g: Graph,
    source: int,
    sinks: int,
    allowed_internal: int,
    limit: int,
    cuttable_sinks: bool,
) -> tuple[list[tuple[int, ...]], int]:
    """Max paths from source to sinks, pairwise disjoint except at source.

    Vertex sets are masks.  Internal vertices are confined to
    allowed_internal.  Each sink absorbs at most one path when cuttable_sinks
    is set, any number otherwise.  Returns the paths and, when fewer than
    `limit` exist, the mask of a blocking vertex set (drawn from
    allowed_internal, plus sinks when cuttable_sinks is set), else 0.
    """
    adj = g._adj_bits
    live = allowed_internal | sinks
    into: list[list[int]] = [[] for _ in range(g.n)]
    # fed[v]: the sinks that v's units enter; such an edge is used up
    fed = [0] * g.n
    root = 2 * source + 1
    flow = 0
    while flow < limit:
        # the sinks with room: with cuttable_sinks, those no unit enters yet
        room = sinks
        if cuttable_sinks:
            for t in members(sinks):
                if into[t]:
                    room ^= 1 << t
        # breadth-first search over the states 2v = (v, in), 2v+1 = (v, out);
        # `reached` masks the vertices whose in-state the search has reached
        parent = [-1] * (2 * g.n)
        parent[root] = root
        reached = 0
        queue = [root]
        end = -1
        for x in queue:
            v = x >> 1
            if x & 1:
                if into[v] and not reached >> v & 1:
                    reached |= 1 << v
                    parent[x - 1] = x
                    queue.append(x - 1)
                fresh = adj[v] & live & ~reached & ~fed[v]
                reached |= fresh
                # the first sink with room ends the search, so the other
                # fresh neighbours need no queueing.  Only this step can
                # reach a sink: a sink never sends a unit, so no search
                # reaches its out-state, nor its in-state from there
                hit = fresh & room
                if hit:
                    end = 2 * ((hit & -hit).bit_length() - 1)
                    parent[end] = x
                    break
                while fresh:
                    low = fresh & -fresh
                    fresh ^= low
                    y = 2 * (low.bit_length() - 1)
                    parent[y] = x
                    queue.append(y)
            else:
                for u in into[v] or (v,):
                    y = 2 * u + 1
                    if parent[y] < 0:
                        parent[y] = x
                        queue.append(y)
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
                    w, u = y >> 1, x >> 1
                    into[w].append(u)
                    fed[u] |= sinks & 1 << w
                else:
                    w, u = x >> 1, y >> 1
                    into[w].remove(u)
                    fed[u] &= ~(1 << w)
            y = x

    cut = 0
    if flow < limit:
        # the reach set of the failed search: a vertex whose in-state is
        # reached but whose out-state is not sits on the minimum cut; a sink
        # is cut when reached or when its source edge is used up
        for v in members(allowed_internal & reached):
            if parent[2 * v + 1] < 0:
                cut |= 1 << v
        if cuttable_sinks:
            cut |= sinks & (reached | adj[source])

    succ = {u: v for v in range(g.n) for u in into[v]}
    paths = []
    for w in members(adj[source]):
        if source in into[w]:
            path = [source, w]
            while not sinks >> path[-1] & 1:
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
    allowed = (1 << g.n) - 1 if allowed_internal is None else _mask(allowed_internal)
    allowed &= ~(1 << u | 1 << v)
    cap = limit if limit is not None else g.n
    paths, _ = _flow_paths_cut(g, u, 1 << v, allowed, cap, cuttable_sinks=False)
    return paths


def min_vertex_cut(g: Graph, u: int, v: int) -> frozenset[int]:
    """Minimum u-v vertex cut for nonadjacent u, v."""
    if g.has_edge(u, v):
        raise ValueError("cut undefined for adjacent endpoints")
    allowed = (1 << g.n) - 1 & ~(1 << u | 1 << v)
    _, cut = _flow_paths_cut(g, u, 1 << v, allowed, g.n, cuttable_sinks=False)
    return frozenset(members(cut))


def max_disjoint_paths(g: Graph, u: int, v: int, limit: int | None = None) -> PathSystem:
    return PathSystem(tuple(disjoint_paths(g, u, v, limit)))


def _kappa_and_cut(g: Graph, cap: int | None = None) -> tuple[int, int]:
    """min(kappa(G), cap) and the mask of the minimum cut of the first s,t
    pair that reaches kappa when kappa < cap.

    The pairs are s in {v0} + N(v0) for a least-degree v0 and every t not
    adjacent to s.  Each flow stops at the least count found so far, which
    starts at min(n - 1, cap), so a pair that reaches the cap costs at most
    cap augmentations.  The cut is empty for trivial, complete and
    disconnected graphs and when kappa >= cap.
    """
    n = g.n
    best = n - 1 if cap is None else min(n - 1, cap)
    if n <= 1:
        return 0, 0
    if g.is_complete():
        return best, 0
    if len(components(g)) > 1:
        return 0, 0
    adj = g._adj_bits
    everyone = (1 << n) - 1
    v0 = min(range(n), key=lambda v: (g.degree(v), v))
    best_cut = 0
    for s in (v0, *members(adj[v0])):
        for t in members(everyone & ~adj[s] & ~(1 << s)):
            allowed = everyone & ~(1 << s | 1 << t)
            paths, cut = _flow_paths_cut(g, s, 1 << t, allowed, best, cuttable_sinks=False)
            if len(paths) < best:
                best, best_cut = len(paths), cut
    return best, best_cut


def vertex_connectivity(g: Graph, cap: int | None = None) -> int:
    """kappa(G), or min(kappa(G), cap) when a cap is given; n-1 for complete
    graphs, 0 for empty or disconnected ones.

    `vertex_connectivity(g, k) >= k` decides "is G k-connected?" with flows
    of at most k units.
    """
    if cap is not None and cap < 0:
        raise ValueError("cap must be nonnegative")
    return _kappa_and_cut(g, cap)[0]


def find_separator(g: Graph, k: int) -> Separator | None:
    """A minimum separator when kappa(G) < k and G is incomplete; else None.

    The cut is the flow cut of the first s,t pair that reaches kappa (see
    `_kappa_and_cut`).  Only kappa < k is asked, so each flow stops at k
    units.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if g.n == 0 or g.is_complete():
        return None
    kappa, cut = _kappa_and_cut(g, k)
    if kappa >= k:
        return None
    sep = separator_of(g, members(cut))
    if sep is None:
        raise AssertionError("the flow cut does not separate the graph")
    return sep


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
    sinks = _mask(target)
    allowed = (1 << g.n) - 1 & ~(sinks | _mask(forbidden) | 1 << u)
    paths, cut_mask = _flow_paths_cut(g, u, sinks, allowed, k, cuttable_sinks=True)
    if len(paths) >= k:
        return PathSystem(tuple(paths[:k]), apex=u)
    cut = frozenset(members(cut_mask))
    removed = forbidden | cut
    side_a = next((frozenset(c) for c in components(g, removed) if u in c), None)
    if side_a is None:
        raise AssertionError("the blocking cut contains the apex")
    return Separator(cut, side_a, frozenset(range(g.n)) - removed - side_a)
