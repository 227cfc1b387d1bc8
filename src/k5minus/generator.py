"""Deterministic test-graph sources: standard families and seeded random graphs.

The random stream is pinned down exactly so corpora are reproducible across
implementations and languages: a 64-bit linear congruential generator with
Knuth's MMIX constants,

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64,

seeded directly with the user seed.  Each candidate edge (u, v), u < v, taken
in lexicographic order, is included iff the next draw, mapped to [0, 1) as
(state >> 11) / 2^53, is below p.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .connectivity import vertex_connectivity
from .graphs import Graph

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1


class BadSpec(Exception):
    pass


class ExhaustedAttempts(Exception):
    def __init__(self, attempts: int):
        super().__init__(f"no 4-connected graph in {attempts} attempts")
        self.attempts = attempts


class Lcg:
    """The pinned 64-bit LCG stream."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (_MULT * self.state + _INC) & _MASK
        return self.state

    def next_unit(self) -> float:
        return (self.next_u64() >> 11) / float(1 << 53)


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Independent-edge random graph on the pinned LCG stream."""
    if n < 0 or not (0.0 < p < 1.0):
        raise BadSpec(f"random graph needs n >= 0 and 0 < p < 1, got n={n} p={p}")
    rng = Lcg(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.next_unit() < p:
                edges.append((u, v))
    return Graph(n, edges)


def complete(n: int) -> Graph:
    if n < 1:
        raise BadSpec("complete(n) needs n >= 1")
    return Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def complete_multipartite(parts: tuple[int, ...]) -> Graph:
    if not parts or any(p < 1 for p in parts):
        raise BadSpec("multipartite parts must be positive")
    bounds = []
    start = 0
    for p in parts:
        bounds.append(range(start, start + p))
        start += p
    edges = []
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            edges.extend((a, b) for a in bounds[i] for b in bounds[j])
    return Graph(start, edges)


def torus(m: int, n: int) -> Graph:
    """Cartesian product of cycles C_m x C_n (4-regular for m, n >= 3)."""
    if m < 3 or n < 3:
        raise BadSpec("torus needs m, n >= 3")
    def vid(i, j):
        return i * n + j
    edges = set()
    for i in range(m):
        for j in range(n):
            a = vid(i, j)
            for b in (vid((i + 1) % m, j), vid(i, (j + 1) % n)):
                edges.add((a, b) if a < b else (b, a))
    return Graph(m * n, edges)


def circulant(n: int, offsets: tuple[int, ...]) -> Graph:
    if n < 1 or not offsets:
        raise BadSpec("circulant needs n >= 1 and offsets")
    for off in offsets:
        if not (1 <= off <= n // 2):
            raise BadSpec(f"offset {off} outside 1..{n // 2}")
    edges = set()
    for off in offsets:
        for i in range(n):
            a, b = i, (i + off) % n
            if a != b:
                edges.add((a, b) if a < b else (b, a))
    return Graph(n, edges)


@dataclass(frozen=True)
class FamilySpec:
    family: str
    params: tuple = field(default_factory=tuple)

    @staticmethod
    def parse(text: str) -> "FamilySpec":
        """Parse specs like complete:5, multipartite:2,2,2, torus:3,3,
        circulant:8:1,2, random:12:0.5, fourconnected:12:0.5."""
        parts = text.strip().split(":")
        name = parts[0].lower()
        try:
            if name == "complete":
                return FamilySpec("complete", (int(parts[1]),))
            if name in ("multipartite", "complete_multipartite"):
                return FamilySpec(
                    "complete_multipartite",
                    tuple(int(x) for x in parts[1].split(",")),
                )
            if name == "torus":
                a, b = parts[1].split(",")
                return FamilySpec("torus", (int(a), int(b)))
            if name == "circulant":
                return FamilySpec(
                    "circulant",
                    (int(parts[1]), tuple(int(x) for x in parts[2].split(","))),
                )
            if name == "random":
                return FamilySpec("random", (int(parts[1]), float(parts[2])))
            if name == "fourconnected":
                return FamilySpec("fourconnected", (int(parts[1]), float(parts[2])))
        except (IndexError, ValueError) as exc:
            raise BadSpec(f"cannot parse family spec {text!r}: {exc}") from None
        raise BadSpec(f"unknown family {name!r}")


def generate(spec: FamilySpec, seed: int = 0) -> Graph:
    if spec.family == "complete":
        return complete(*spec.params)
    if spec.family == "complete_multipartite":
        return complete_multipartite(tuple(spec.params))
    if spec.family == "torus":
        return torus(*spec.params)
    if spec.family == "circulant":
        return circulant(spec.params[0], tuple(spec.params[1]))
    if spec.family == "random":
        n, p = spec.params
        return random_graph(n, p, seed)
    if spec.family == "fourconnected":
        n, p = spec.params
        return generate_4connected(n, p, seed)
    raise BadSpec(f"unknown family {spec.family!r}")


def generate_4connected(
    n: int, density: float = 0.5, seed: int = 0, attempts: int = 300
) -> Graph:
    """Rejection-sample seeded random graphs until one verifies kappa >= 4."""
    if n < 5:
        raise BadSpec("a 4-connected graph needs n >= 5")
    for i in range(attempts):
        g = random_graph(n, density, seed + i)
        if g.min_degree() < 4:
            continue
        if vertex_connectivity(g, 4) >= 4:
            return g
    raise ExhaustedAttempts(attempts)
