"""Seeded inputs for the three benchmark workloads.

Every workload is a list of rounds; a round is one sweep over the workload's
size range, so each round has the same shape and only the seed-dependent
parts (random edges, vertex labels, generator seeds) differ.  The program
under test sees each input only as one text line: a graph6 line for the two
extraction workloads, and an `n density seed` line for `gen4`.

The generators here use the engine's own deterministic sources
(`random_graph`, `circulant`, `torus`, `Lcg`) so that a seed names the same
inputs on every machine.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("sparse4", "ladder", "gen4")

# sparse4: one round is 40 consecutive s values, so it meets every n = 8..47
# (and with it every edge probability) exactly once.
SPARSE4_ROUND = 40
SPARSE4_ROUNDS = 60
SPARSE4_P = (0.12, 0.18, 0.25, 0.35)

# ladder: C_19(1,2) is the smallest circulant whose unrestricted W4 seeding
# costs about half a million finder nodes (and under some labellings runs out
# the 2M-node budget); the lighter circulants and tori repeat so that every
# round also holds enough cheap operations for stable quantiles (24 repeats
# give about 5000 latency samples in a 30 s run; 8 left the p90 spread across
# runs at the metric's bound).
LADDER_HEAVY = (19,)
LADDER_CIRCULANTS = tuple(range(9, 15))
LADDER_TORUS_SIDES = (3, 4, 5, 6)
LADDER_LIGHT_REPEATS = 24
LADDER_ROUNDS = 24

# gen4: one round is n = 6..40, the sizes of the criterion-1 corpus.
GEN4_ROUND = 35
GEN4_ROUNDS = 24
# a rejection-sampled graph scans seeds s, s+1, ..., so ops sit 1000 apart
GEN4_SEED_STRIDE = 1000

# graphs_per_s is the median, over windows of this many consecutive
# operations, of the window's operations per second.  In sparse4 about one
# input in 300 takes 1000x the median time, so a whole-run mean swings with
# how many of them a seed draws; short windows keep those out of the median
# (they show in the per-layer counts and the printed mean rate).  A ladder
# window is one round, so each window holds one C_19 search, the cost that
# workload is there to measure.  gen4 has no such outliers (a rejected sample
# costs one cheap degree test), so its window is the whole run: a mean over
# every round is steadier than a median of a dozen round rates.
RATE_WINDOW = {
    "sparse4": 10,
    "ladder": len(LADDER_HEAVY) + LADDER_LIGHT_REPEATS * (
        len(LADDER_CIRCULANTS) + len(LADDER_TORUS_SIDES) * (len(LADDER_TORUS_SIDES) + 1) // 2),
    "gen4": None,
}


@dataclass(frozen=True)
class Item:
    """One operation's input: a stable key, the text line, and its source graph."""

    key: str
    line: str
    graph: object = None  # the generator's Graph, kept for the output check
    n: int = 0


def gen4_density(n: int) -> float:
    """Edge density by size, the same schedule as the acceptance corpus."""
    if n <= 8:
        return 0.85
    if n <= 14:
        return 0.6
    if n <= 24:
        return 0.45
    return 0.35


def sparse4_graph(api, s: int):
    """random_graph on the item-4 recipe, padded to minimum degree 4 by
    joining v to v+1, v+2, ... (mod n) in vertex order."""
    n = 8 + s % 40
    g = api.generator.random_graph(n, SPARSE4_P[s % 4], 5_000_000 + s)
    adj = [set(g.neighbors(v)) for v in range(n)]
    for v in range(n):
        step = 1
        while len(adj[v]) < 4:
            w = (v + step) % n
            if w not in adj[v]:
                adj[v].add(w)
                adj[w].add(v)
            step += 1
    return api.graphs.Graph(n, [(u, w) for u in range(n) for w in adj[u] if u < w])


def permutation(rng, n: int) -> list[int]:
    """Fisher-Yates shuffle of 0..n-1 drawn from an `Lcg` stream."""
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.next_u64() % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def relabel(api, g, perm):
    return api.graphs.Graph(g.n, [(perm[a], perm[b]) for a, b in g.edges()])


def ladder_family(api) -> list[tuple[str, object]]:
    """One round's (name, unlabelled graph) list, heavy circulants first."""
    gen = api.generator
    heavy = [(f"C{n}(1,2)", gen.circulant(n, (1, 2))) for n in LADDER_HEAVY]
    light = [(f"C{n}(1,2)", gen.circulant(n, (1, 2))) for n in LADDER_CIRCULANTS]
    light += [
        (f"T{a}x{b}", gen.torus(a, b))
        for a in LADDER_TORUS_SIDES
        for b in LADDER_TORUS_SIDES
        if a <= b
    ]
    return heavy + light * LADDER_LIGHT_REPEATS


def _extract_item(api, key: str, g) -> Item:
    return Item(key, api.graphs.write_graph6(g), g, g.n)


def sparse4_rounds(api, seed: int) -> list[list[Item]]:
    base = seed * SPARSE4_ROUND * SPARSE4_ROUNDS
    return [
        [
            _extract_item(api, f"s={s}", sparse4_graph(api, s))
            for s in range(base + r * SPARSE4_ROUND, base + (r + 1) * SPARSE4_ROUND)
        ]
        for r in range(SPARSE4_ROUNDS)
    ]


def ladder_rounds(api, seed: int) -> list[list[Item]]:
    family = ladder_family(api)
    rounds = []
    for r in range(LADDER_ROUNDS):
        rng = api.generator.Lcg(seed * LADDER_ROUNDS + r)
        rounds.append(
            [
                _extract_item(api, f"{name}#r{r}.{j}", relabel(api, g, permutation(rng, g.n)))
                for j, (name, g) in enumerate(family)
            ]
        )
    return rounds


def gen4_rounds(api, seed: int) -> list[list[Item]]:
    rounds = []
    for r in range(GEN4_ROUNDS):
        items = []
        for j in range(GEN4_ROUND):
            i = r * GEN4_ROUND + j
            n = 6 + i % GEN4_ROUND
            s = (seed * GEN4_ROUND * GEN4_ROUNDS + i) * GEN4_SEED_STRIDE
            items.append(Item(f"n={n},seed={s}", f"{n} {gen4_density(n)!r} {s}", None, n))
        rounds.append(items)
    return rounds


ROUNDS = {"sparse4": sparse4_rounds, "ladder": ladder_rounds, "gen4": gen4_rounds}


def make_rounds(api, workload: str, seed: int) -> list[list[Item]]:
    return ROUNDS[workload](api, seed)


# -- the operations under test ----------------------------------------------
# Module attributes are looked up on every call, so the traced run's patches
# on `graphs`, `extractor` and `generator` are seen here.


def op_extract(api, line: str):
    return api.extractor.extract(api.graphs.parse_graph6(line))


def op_gen4(api, line: str):
    n, density, seed = line.split()
    g = api.generator.generate_4connected(int(n), float(density), int(seed))
    return g, api.graphs.write_graph6(g)


OPS = {"sparse4": op_extract, "ladder": op_extract, "gen4": op_gen4}
