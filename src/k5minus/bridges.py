"""H-bridge decomposition against an explicit subgraph (vertices + edges).

The subgraph H is passed as a vertex set plus an edge set rather than as an
embedding so that bridges can be taken against growing composites like
H ∪ P ∪ Q.  An inner bridge is a single non-H edge between H-vertices; an
outer bridge is a component of G - V(H) plus its feet.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, GraphError, component_masks, members, neighbourhood


class InvalidSubgraph(GraphError):
    pass


class NoSuchPath(GraphError):
    pass


@dataclass(frozen=True)
class Bridge:
    kind: str  # "inner" or "outer"
    core: frozenset[int]
    attachments: frozenset[int]
    feet: frozenset[tuple[int, int]]  # edges (u, v) with u < v

    def touches(self, vertices) -> bool:
        return bool(self.attachments & frozenset(vertices))


def _norm_edges(edges) -> frozenset[tuple[int, int]]:
    return frozenset((u, v) if u < v else (v, u) for u, v in edges)


def compute_bridges(g: Graph, h_vertices, h_edges) -> list[Bridge]:
    """All H-bridges, inner bridges first (by edge), then outer (by least core vertex)."""
    hv = frozenset(h_vertices)
    he = _norm_edges(h_edges)
    adj = g._adj_bits
    later: dict[int, int] = {}  # u -> mask of the v > u with (u, v) in he
    for u, v in he:
        if not adj[u] >> v & 1:
            raise InvalidSubgraph(f"subgraph edge ({u}, {v}) not in host")
        if u not in hv or v not in hv:
            raise InvalidSubgraph(f"subgraph edge ({u}, {v}) has endpoint outside V(H)")
        later[u] = later.get(u, 0) | 1 << v
    hmask = 0
    for v in hv:
        if not (0 <= v < g.n):
            raise InvalidSubgraph(f"subgraph vertex {v} outside host")
        hmask |= 1 << v

    out: list[Bridge] = []
    for u in sorted(hv):
        # host edges from u to later H vertices that H lacks
        chords = adj[u] & (hmask >> (u + 1) << (u + 1)) & ~later.get(u, 0)
        for v in members(chords):
            out.append(
                Bridge("inner", frozenset(), frozenset((u, v)), frozenset([(u, v)]))
            )

    for comp in component_masks(adj, ((1 << g.n) - 1) & ~hmask):
        att = neighbourhood(adj, comp) & hmask
        feet = set()
        for y in members(att):
            for x in members(adj[y] & comp):
                feet.add((x, y) if x < y else (y, x))
        out.append(
            Bridge("outer", frozenset(members(comp)), frozenset(members(att)), frozenset(feet))
        )
    return out


def bridge_containing_edge(bridges: list[Bridge], u: int, v: int) -> Bridge:
    """The bridge that contains the host edge (u, v)."""
    e = (u, v) if u < v else (v, u)
    for b in bridges:
        if b.kind == "inner" and e in b.feet:
            return b
        if b.kind == "outer" and (u in b.core or v in b.core):
            return b
    raise NoSuchPath(f"edge ({u}, {v}) lies in no bridge")


def bridges_from(bridges: list[Bridge], v: int) -> dict[int, Bridge]:
    """For each vertex that some bridge attached at v also attaches to, the
    first such bridge in list order."""
    out: dict[int, Bridge] = {}
    for b in bridges:
        if v in b.attachments:
            for t in b.attachments:
                out.setdefault(t, b)
    return out


def bridge_path(g: Graph, b: Bridge, src: int, dst: int) -> tuple[int, ...]:
    """A path between two attachments meeting H only at its endpoints.

    Internal vertices all lie in the bridge core (breadth-first, so shortest
    and deterministic).
    """
    if src not in b.attachments or dst not in b.attachments:
        raise NoSuchPath(f"{src} or {dst} is not an attachment")
    if src == dst:
        return (src,)
    if b.kind == "inner":
        return (src, dst)
    adj = g._adj_bits
    core = b.core
    dbit = 1 << dst
    parent = {src: src}
    seen = 1 << src
    queue = [src]
    for x in queue:  # grows while it is walked
        if adj[x] & dbit and x in core:
            # the direct src-dst edge is a different (inner) bridge
            parent[dst] = x
            break
        new = adj[x] & ~seen
        seen |= new
        while new:
            low = new & -new
            new ^= low
            y = low.bit_length() - 1
            if y in core:
                parent[y] = x
                queue.append(y)
    else:
        raise NoSuchPath(f"no core path {src} -> {dst}")
    path = [dst]
    while path[-1] != src:
        path.append(parent[path[-1]])
    path.reverse()
    return tuple(path)
