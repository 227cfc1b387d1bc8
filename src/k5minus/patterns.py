"""Abstract patterns and subdivision embeddings, plus the certificate verifier.

An Embedding is the certificate format used everywhere: an injective map from
pattern branch vertices to host vertices, and one host path per pattern edge.
`verify_embedding` rechecks a certificate against the host graph without any
reference to how it was found.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .graphs import Graph


@dataclass(frozen=True)
class Pattern:
    """A simple pattern graph on branch vertices 0..k-1."""

    k: int
    edges: tuple[tuple[int, int], ...]
    name: str = ""

    def __post_init__(self):
        seen = set()
        degs = [0] * self.k
        for a, b in self.edges:
            if not (0 <= a < self.k) or not (0 <= b < self.k):
                raise ValueError(f"branch pair ({a}, {b}) outside 0..{self.k - 1}")
            if a >= b:
                raise ValueError(f"pattern edges must be (a, b) with a < b, got ({a}, {b})")
            if (a, b) in seen:
                raise ValueError(f"duplicate pattern edge ({a}, {b})")
            seen.add((a, b))
            degs[a] += 1
            degs[b] += 1
        # computed once: the finder reads them on every search
        object.__setattr__(self, "_degrees", tuple(degs))

    def degree(self, b: int) -> int:
        return self._degrees[b] if 0 <= b < self.k else 0

    def degrees(self) -> tuple[int, ...]:
        return self._degrees


def _pat(k, edges, name):
    return Pattern(k, tuple(sorted(tuple(sorted(e)) for e in edges)), name)


# Branch 0 is the hub; 1..4 the rim cycle in order.
W4 = _pat(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (1, 4)], "w4")

K5 = _pat(5, [(a, b) for a in range(5) for b in range(a + 1, 5)], "k5")

# Branches 0, 1, 2 are the tetravertices; 3 and 4 the trivertices
# (the endpoints of the missing edge).
K5_MINUS = _pat(
    5, [(a, b) for a in range(5) for b in range(a + 1, 5) if (a, b) != (3, 4)], "k5minus"
)

C4 = _pat(4, [(0, 1), (1, 2), (2, 3), (0, 3)], "c4")

NAMED_PATTERNS = {"w4": W4, "k5": K5, "k5minus": K5_MINUS}


@dataclass(frozen=True, slots=True)
class Embedding:
    """A subdivision certificate: branch images plus one path per pattern edge.

    paths[i] realizes pattern.edges[i] and is oriented from the image of the
    smaller branch vertex to the image of the larger one.
    """

    pattern: Pattern
    branch_map: tuple[int, ...]
    paths: tuple[tuple[int, ...], ...]

    def vertices(self) -> frozenset[int]:
        out = set(self.branch_map)
        for p in self.paths:
            out.update(p)
        return frozenset(out)

    def edge_set(self) -> frozenset[tuple[int, int]]:
        out = set()
        for p in self.paths:
            for a, b in zip(p, p[1:]):
                out.add((a, b) if a < b else (b, a))
        return frozenset(out)

    def to_json(self) -> dict:
        return {
            "pattern": {
                "k": self.pattern.k,
                "edges": [list(e) for e in self.pattern.edges],
                "name": self.pattern.name,
            },
            "branch_map": list(self.branch_map),
            "paths": [list(p) for p in self.paths],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json())

    @staticmethod
    def from_json(obj: dict) -> "Embedding":
        pat = obj["pattern"]
        pattern = Pattern(
            int(pat["k"]),
            tuple(tuple(int(x) for x in e) for e in pat["edges"]),
            str(pat.get("name", "")),
        )
        return Embedding(
            pattern,
            tuple(int(x) for x in obj["branch_map"]),
            tuple(tuple(int(x) for x in p) for p in obj["paths"]),
        )


def verify_embedding(g: Graph, emb: Embedding) -> list[str]:
    """All violated embedding clauses; an empty list means the certificate is valid."""
    out = []
    pat = emb.pattern
    bm = emb.branch_map
    if len(bm) != pat.k:
        return [f"branch_map has {len(bm)} entries, pattern has {pat.k}"]
    if len(emb.paths) != len(pat.edges):
        return [f"{len(emb.paths)} paths for {len(pat.edges)} pattern edges"]
    for v in bm:
        if not (0 <= v < g.n):
            out.append(f"branch image {v} outside host")
            return out
    if len(set(bm)) != len(bm):
        out.append("branch map not injective")
    images = set(bm)
    internal_owner: dict[int, int] = {}
    n = g.n
    adj = g._adj_bits
    for i, (a, b) in enumerate(pat.edges):
        p = emb.paths[i]
        if len(p) < 2:
            out.append(f"path {i} too short")
            continue
        if p[0] != bm[a] or p[-1] != bm[b]:
            out.append(f"path {i} endpoints {p[0]},{p[-1]} != images of branches {a},{b}")
        if len(set(p)) != len(p):
            out.append(f"path {i} revisits a vertex")
        for x, y in zip(p, p[1:]):
            if not (0 <= x < n and 0 <= y < n and adj[x] >> y & 1):
                out.append(f"path {i} uses missing edge ({x}, {y})")
                break
        for x in p[1:-1]:
            if x in images:
                out.append(f"path {i} passes through branch image {x}")
            elif x in internal_owner:
                out.append(
                    f"paths {internal_owner[x]} and {i} share internal vertex {x}"
                )
            else:
                internal_owner[x] = i
    return out
