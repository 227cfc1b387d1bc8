"""Public subdivision search: backend selection, budgets, result types.

The search itself lives in a kernel with two interchangeable backends: a
compiled Cython module (`_finder_c`, used when importable and the host fits
in 64-bit masks) and a pure-Python twin (`_finder_py`).  Both are
deterministic and return identical embeddings; set K5MINUS_BACKEND=py or =c
to force one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from . import _finder_py
from .graphs import Graph
from .patterns import Embedding, Pattern

try:  # compiled kernel is optional
    from . import _finder_c  # type: ignore[attr-defined]
except ImportError:  # pragma: no cover - depends on build environment
    _finder_c = None

DEFAULT_NODE_LIMIT = 2_000_000


@dataclass(frozen=True)
class SearchBudget:
    node_limit: int = DEFAULT_NODE_LIMIT

    def __post_init__(self):
        if self.node_limit <= 0:
            raise ValueError("node_limit must be positive")


class BudgetExceeded:
    """Distinct search outcome: the node budget ran out before exhaustion."""

    __slots__ = ("nodes_used",)

    def __init__(self, nodes_used: int):
        self.nodes_used = nodes_used

    def __repr__(self):
        return f"BudgetExceeded(nodes_used={self.nodes_used})"


class BudgetTracker:
    """Mutable budget shared by the searches inside one larger computation."""

    def __init__(self, node_limit: int = DEFAULT_NODE_LIMIT):
        self.remaining = node_limit
        self.used = 0

    def charge(self, nodes: int) -> None:
        self.remaining -= nodes
        self.used += nodes

    @property
    def exhausted(self) -> bool:
        return self.remaining <= 0


def compiled_available() -> bool:
    return _finder_c is not None


def backend_for(g: Graph, backend: str | None = None) -> str:
    choice = backend or os.environ.get("K5MINUS_BACKEND", "auto")
    if choice not in ("auto", "c", "py"):
        raise ValueError(f"unknown backend {choice!r}")
    if choice == "c":
        if _finder_c is None:
            raise RuntimeError("compiled backend requested but not built")
        if g.n > 64:
            raise RuntimeError("compiled backend handles at most 64 vertices")
        return "c"
    if choice == "py":
        return "py"
    if _finder_c is not None and g.n <= 64:
        return "c"
    return "py"


def find_subdivision(
    g: Graph,
    pattern: Pattern,
    budget: SearchBudget | None = None,
    anchors: dict[int, int] | None = None,
    restrict: frozenset[int] | set[int] | None = None,
    backend: str | None = None,
    tracker: BudgetTracker | None = None,
) -> Embedding | None | BudgetExceeded:
    """Search g for a subdivision of `pattern`.

    anchors pins branch vertices to host vertices; restrict confines the whole
    embedding to a vertex subset.  Returns an Embedding, None when the search
    space is exhausted, or BudgetExceeded when the node budget ran out (never
    conflated with None).
    """
    if restrict is None:
        restrict_set = frozenset(range(g.n))
    else:
        restrict_set = frozenset(restrict)
        for v in restrict_set:
            if not (0 <= v < g.n):
                raise ValueError(f"restrict vertex {v} outside host")
    anchor_items: list[tuple[int, int]] = []
    if anchors:
        seen_hosts = set()
        for b, v in sorted(anchors.items()):
            if not (0 <= b < pattern.k):
                raise ValueError(f"anchor branch {b} outside pattern")
            if not (0 <= v < g.n):
                raise ValueError(f"anchor image {v} outside host")
            if v in seen_hosts:
                raise ValueError("anchor images must be distinct")
            seen_hosts.add(v)
            if g.degree(v) < pattern.degree(b):
                raise ValueError(
                    f"anchor image {v} has degree {g.degree(v)} < pattern degree"
                )
            if v not in restrict_set:
                raise ValueError("restrict must contain all anchor images")
            anchor_items.append((b, v))

    restrict_mask = 0
    for v in restrict_set:
        restrict_mask |= 1 << v

    if tracker is not None:
        limit = tracker.remaining
    else:
        limit = (budget or SearchBudget()).node_limit
    if limit <= 0:
        return BudgetExceeded(0)

    degs = list(pattern.degrees())
    edges = list(pattern.edges)

    # the compiled kernel takes sorted adjacency lists, the Python one masks
    if backend_for(g, backend) == "c":
        kernel = _finder_c
        adj = [g.neighbors(v) for v in range(g.n)]
    else:
        kernel = _finder_py
        adj = g._adj_bits

    # iterative widening: search with capped path lengths first, so compact
    # embeddings are found cheaply; only the final uncapped pass may declare
    # NotFound
    nrestrict = len(restrict_set)
    caps = []
    cap = 3
    while cap < nrestrict:
        caps.append(cap)
        cap *= 2
    caps.append(nrestrict)

    total_nodes = 0
    for cap in caps:
        status, img, paths, nodes = kernel.search(
            g.n,
            adj,
            restrict_mask,
            pattern.k,
            edges,
            degs,
            anchor_items,
            limit - total_nodes,
            cap,
        )
        total_nodes += nodes
        if status == 0:
            if tracker is not None:
                tracker.charge(total_nodes)
            return Embedding(pattern, tuple(img), tuple(paths))
        if status == 2:
            if tracker is not None:
                tracker.charge(total_nodes)
            return BudgetExceeded(total_nodes)
    if tracker is not None:
        tracker.charge(total_nodes)
    return None
