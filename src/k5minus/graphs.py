"""Immutable simple undirected graphs with graph6 and edge-list interchange.

Vertices are dense integers 0..n-1.  A Graph stores one neighbour bitmask
per vertex and nothing else; the sorted neighbour tuples are derived from the
masks on first use.  graph6 decoding reads each column of the upper triangle
as one integer, the mask of a vertex's lower neighbours, and mirrors its bits
into the masks of those neighbours.  `components`, `component_masks` and
`neighbourhood` work on the masks, as do the finder kernel, `bridges`,
`wheel.improve_once` and `verify_embedding`, so a typical extraction never
builds the tuples.  Graph values never change after construction (the lazy
tuple fill is idempotent), so they can be shared freely between concurrent
searches.
"""

from __future__ import annotations

from typing import Iterable


class GraphError(Exception):
    pass


class OutOfRange(GraphError):
    pass


class SelfLoop(GraphError):
    pass


class MalformedEncoding(GraphError):
    """Raised on a bad graph6 string; carries the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class Graph:
    """Simple undirected graph on vertices 0..n-1, stored as neighbour masks.

    Bit v of `_adj_bits[u]` is set iff u-v is an edge: n/8 bytes per vertex,
    where a tuple or frozenset of neighbours costs hundreds at this engine's
    sizes.  The sorted neighbour tuples that `neighbors` returns are built
    from the masks on its first call; that fill is idempotent, so a Graph can
    still be shared freely.
    """

    __slots__ = ("n", "_adj_bits", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise OutOfRange(f"negative vertex count {n}")
        bits = [0] * n
        for u, v in edges:
            if not (0 <= u < n) or not (0 <= v < n):
                raise OutOfRange(f"edge ({u}, {v}) outside 0..{n - 1}")
            if u == v:
                raise SelfLoop(f"self-loop at {u}")
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        self.n = n
        self._adj_bits: tuple[int, ...] = tuple(bits)
        self._adj: tuple[tuple[int, ...], ...] | None = None

    @classmethod
    def _from_bits(cls, n: int, bits: list[int]) -> Graph:
        """Wrap symmetric, loop-free masks that the caller has validated."""
        g = object.__new__(cls)
        g.n = n
        g._adj_bits = tuple(bits)
        g._adj = None
        return g

    # -- queries ---------------------------------------------------------

    @property
    def vertices(self) -> range:
        return range(self.n)

    @property
    def m(self) -> int:
        return sum(b.bit_count() for b in self._adj_bits) // 2

    def neighbors(self, v: int) -> tuple[int, ...]:
        adj = self._adj
        if adj is None:
            adj = self._adj = tuple(members(b) for b in self._adj_bits)
        return adj[v]

    def degree(self, v: int) -> int:
        return self._adj_bits[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return self._adj_bits[u] >> v & 1 == 1

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        return [
            (u, v)
            for u, b in enumerate(self._adj_bits)
            for v in members(b >> (u + 1) << (u + 1))
        ]

    def min_degree(self) -> int:
        return min((b.bit_count() for b in self._adj_bits), default=0)

    def is_complete(self) -> bool:
        return all(b.bit_count() == self.n - 1 for b in self._adj_bits)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._adj_bits == other._adj_bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self._adj_bits))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def members(mask: int) -> tuple[int, ...]:
    """The set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Validate and construct; duplicate edges are silently merged."""
    return Graph(n, edges)


def induced_subgraph(g: Graph, s: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced on s, relabeled onto 0..|s|-1.

    Returns the subgraph and the old->new relabeling map (sorted order).
    """
    keep = sorted(set(s))
    for v in keep:
        if not (0 <= v < g.n):
            raise OutOfRange(f"vertex {v} outside 0..{g.n - 1}")
    relabel = {v: i for i, v in enumerate(keep)}
    edges = [
        (relabel[u], relabel[v])
        for u, v in g.edges()
        if u in relabel and v in relabel
    ]
    return Graph(len(keep), edges), relabel


# -- graph6 ---------------------------------------------------------------

_G6_HEADER = ">>graph6<<"
# each data character as its six bits, most significant first
_G6_BITS = {c: format(c - 63, "06b") for c in range(63, 127)}


def _g6_size(data: str, offset: int) -> tuple[int, int]:
    """Decode the leading N(n) field; returns (n, bytes consumed)."""
    if not data:
        raise MalformedEncoding("empty graph6 string", offset)
    c = ord(data[0])
    if c != 126:
        if not 63 <= c <= 126:
            raise MalformedEncoding(f"bad size byte {c}", offset)
        return c - 63, 1
    if len(data) >= 2 and ord(data[1]) == 126:
        if len(data) < 8:
            raise MalformedEncoding("truncated 8-byte size field", offset)
        vals = [ord(ch) - 63 for ch in data[2:8]]
        if any(not 0 <= x <= 63 for x in vals):
            raise MalformedEncoding("bad size byte", offset + 2)
        n = 0
        for x in vals:
            n = (n << 6) | x
        return n, 8
    if len(data) < 4:
        raise MalformedEncoding("truncated 4-byte size field", offset)
    vals = [ord(ch) - 63 for ch in data[1:4]]
    if any(not 0 <= x <= 63 for x in vals):
        raise MalformedEncoding("bad size byte", offset + 1)
    n = (vals[0] << 12) | (vals[1] << 6) | vals[2]
    return n, 4


def parse_graph6(text: str) -> Graph:
    """Parse one graph6 line (optionally prefixed with '>>graph6<<')."""
    line = text.strip()
    offset = 0
    if line.startswith(_G6_HEADER):
        line = line[len(_G6_HEADER):]
        offset = len(_G6_HEADER)
    n, used = _g6_size(line, offset)
    body = line[used:]
    offset += used
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) < nbytes:
        raise MalformedEncoding(
            f"need {nbytes} data bytes, got {len(body)}", offset + len(body)
        )
    if len(body) > nbytes:
        raise MalformedEncoding("trailing bytes", offset + nbytes)
    # each data byte becomes its six bits; any other character stays one
    # character, so the length shows whether the body holds one
    bits = body.translate(_G6_BITS)
    if len(bits) != 6 * len(body):
        i = next(i for i, ch in enumerate(body) if not "?" <= ch <= "~")
        raise MalformedEncoding(f"bad data byte {ord(body[i])}", offset + i)
    i = bits.find("1", nbits)
    if i >= 0:
        raise MalformedEncoding("nonzero padding", offset + i // 6)
    # bit i of the upper triangle, column by column, is edge (u, v) with
    # i = v(v-1)/2 + u and u < v.  Column v, the v bits from v(v-1)/2 on,
    # read in reverse is the mask of v's lower neighbours, each of which gets
    # v mirrored in.  The body is reversed once, so column 1 comes last and
    # each column costs time in its own length
    rbits = bits[::-1]
    end = len(rbits)
    adj = [0] * n
    for v in range(1, n):
        start = end - v
        lower = adj[v] = int(rbits[start:end], 2)
        end = start
        vbit = 1 << v
        while lower:
            low = lower & -lower
            lower ^= low
            adj[low.bit_length() - 1] |= vbit
    return Graph._from_bits(n, adj)


def write_graph6(g: Graph) -> str:
    """Encode in standard graph6 (no header)."""
    n = g.n
    if n <= 62:
        out = [chr(n + 63)]
    elif n <= 258047:
        out = ["~", chr((n >> 12) + 63), chr(((n >> 6) & 63) + 63), chr((n & 63) + 63)]
    else:
        out = ["~", "~"]
        out.extend(chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
    bits = []
    for v in range(1, n):
        for u in range(v):
            bits.append(1 if g.has_edge(u, v) else 0)
    while len(bits) % 6:
        bits.append(0)
    for i in range(0, len(bits), 6):
        x = 0
        for b in bits[i:i + 6]:
            x = (x << 1) | b
        out.append(chr(x + 63))
    return "".join(out)


# -- plain edge-list text ---------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse 'n m' on the first line followed by m lines 'u v'."""
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise GraphError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphError(f"expected 'n m' header, got {lines[0]!r}")
    n, m = _ints(head, lines[0])
    if len(lines) - 1 != m:
        raise GraphError(f"header says {m} edges, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"expected 'u v', got {ln!r}")
        edges.append(_ints(parts, ln))
    return Graph(n, edges)


def _ints(tokens, line: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in tokens)
    except ValueError:
        raise GraphError(f"expected integers, got {line!r}") from None


def write_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# -- small helpers shared across modules ------------------------------------


def components(g: Graph, removed: frozenset[int] | set[int] = frozenset()) -> list[list[int]]:
    """Connected components of g minus `removed`, each sorted, ordered by min vertex."""
    left = (1 << g.n) - 1
    for v in removed:
        if 0 <= v < g.n:
            left &= ~(1 << v)
    return [list(members(comp)) for comp in component_masks(g._adj_bits, left)]


def component_masks(adj_bits, left: int) -> list[int]:
    """The vertex masks of the components of the subgraph induced on the
    mask `left`, ordered by least vertex."""
    comps = []
    while left:
        comp = frontier = left & -left  # the least vertex left
        while frontier:
            frontier = neighbourhood(adj_bits, frontier) & left & ~comp
            comp |= frontier
        left &= ~comp
        comps.append(comp)
    return comps


def neighbourhood(adj_bits, mask: int) -> int:
    """The union of the neighbour masks of the vertices in mask."""
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= adj_bits[low.bit_length() - 1]
    return out
