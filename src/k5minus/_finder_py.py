"""Pure-Python subdivision-search kernel.

This is the reference twin of the compiled kernel in `_finder_c.pyx`; the two
must stay step-for-step identical, including candidate order, path
enumeration order (shortest first, lexicographic within a length), and the
points where the node budget is charged.  `tests/test_finder.py` checks that
both backends return byte-identical results.

The search interleaves branch placement with path routing: a pattern edge is
routed as soon as both of its branch images are chosen, so infeasible
placements die before the remaining branches are enumerated.

Unlike the compiled twin, this kernel works on neighbour bitmasks and runs on
an explicit stack, so it has no size limit and no recursion limit:

- a route step computes, by a mask-frontier BFS from the far end w, the
  layers `near[r]` of allowed vertices at distance <= r - 1 from w (expanding
  only through allowed vertices), where the compiled kernel keeps a distance
  list.  The layers are built lazily: the BFS stops at the layer of the
  near end u, and each longer path tried grows them by one level from the
  BFS state (`seen`, `frontier`, `allowed`) kept with the step;
- a path grows from u one vertex at a time; the candidates of a vertex x
  with r edges still to go are `adj_bits[x] & near[r] & ~onpath`, taken from
  the low bit up, which is the compiled kernel's sorted-adjacency order
  (`near` lies inside the allowed set, so the masks need no restriction);
- each step of the schedule keeps its iteration state in `state[si]`, and
  the path in progress keeps the untried candidates of its vertices on a
  list, so backtracking pops instead of returning.

The schedule is computed once per pattern and set of anchored branches, and
an all-anchored search (improve_once's C4) skips the candidate sort.

Kernel contract: `search` returns (status, branch_map, paths, nodes_used)
with status 0 = found, 1 = exhausted (no embedding), 2 = budget exceeded.
The Python kernel takes the host as neighbour bitmasks (`Graph._adj_bits`);
the compiled one takes sorted adjacency lists.  Anchor images must lie in
`restrict_mask`, as `find_subdivision` checks: the Python kernel reads the
unrestricted masks of placed vertices.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import neighbourhood


def make_schedule(k, edges, anchor_branches, degs):
    """Alternating assign/route schedule; shared by both kernels.

    Branch order: anchored first, then decreasing pattern degree, then id.
    Each edge is routed immediately after its second endpoint is placed.
    Steps are (0, branch) or (1, edge_index).
    """
    order = sorted(
        range(k), key=lambda b: (0 if b in anchor_branches else 1, -degs[b], b)
    )
    steps = []
    placed = set()
    routed = set()
    for b in order:
        steps.append((0, b))
        placed.add(b)
        for ei, (x, y) in enumerate(edges):
            if ei not in routed and x in placed and y in placed:
                steps.append((1, ei))
                routed.add(ei)
    return steps


@lru_cache(maxsize=256)
def _schedule(k, edges, anchored, degs):
    """make_schedule, computed once per pattern and set of anchored branches."""
    return tuple(make_schedule(k, edges, anchored, degs))


def search(n, adj_bits, restrict_mask, k, edges, degs, anchors, node_limit, max_len=None):
    if max_len is None:
        max_len = n
    anchor_of = dict(anchors)
    steps = _schedule(k, tuple(edges), tuple(anchor_of), tuple(degs))
    nsteps = len(steps)
    # the degree of a vertex inside the allowed set; only anchors and
    # restricted vertices are ever candidates
    if len(anchor_of) == k:  # every branch anchored: no candidate order
        rdeg = {v: (adj_bits[v] & restrict_mask).bit_count() for v in anchor_of.values()}
        cands_of = [(anchor_of[b],) for b in range(k)]
    else:
        rdeg = [(m & restrict_mask).bit_count() for m in adj_bits]
        # by decreasing restricted degree, then label (the sort is stable)
        base_cands = sorted(
            [v for v in range(n) if restrict_mask >> v & 1],
            key=rdeg.__getitem__,
            reverse=True,
        )
        cands_of = [(anchor_of[b],) if b in anchor_of else base_cands for b in range(k)]

    img = [-1] * k
    counter = 0
    # per step: the used mask on entry, and the iteration state (an assign
    # step's next candidate index; a route step's suspended path search)
    entry_used = [0] * nsteps
    state: list = [None] * nsteps

    si = 0
    used = 0
    entering = True  # True: run(si, used) was just called; False: resume si
    while True:
        if si == nsteps:
            break
        if si < 0:
            return 1, None, None, counter
        kind, arg = steps[si]

        if kind == 0:  # place branch `arg`
            b = arg
            if entering:
                entry_used[si] = used
                ci = 0
            else:
                used = entry_used[si]
                ci = state[si]
            cands = cands_of[b]
            need = degs[b]
            while ci < len(cands):
                v = cands[ci]
                ci += 1
                counter += 1
                if counter > node_limit:
                    return 2, None, None, counter
                if used >> v & 1 or rdeg[v] < need:
                    continue
                img[b] = v
                state[si] = ci
                used |= 1 << v
                si += 1
                entering = True
                break
            else:
                img[b] = -1
                si -= 1
                entering = False
            continue

        # route pattern edge `arg` from u = img[a] to w = img[b]
        if entering:
            entry_used[si] = used
            a, b = edges[arg]
            u, w = img[a], img[b]
            ubit = 1 << u
            allowed = restrict_mask & ~used
            maxlen = allowed.bit_count() + 1
            if maxlen > max_len:
                maxlen = max_len
            # near[r]: allowed vertices within distance r - 1 of w, the
            # candidates of a path vertex with r edges to go.  The BFS from
            # w stops at the level that reaches u (or past maxlen); each
            # longer path tried grows near by one level from seen, frontier
            seen = frontier = 1 << w
            near = [0, 0]
            while frontier and not seen & ubit and len(near) <= maxlen + 1:
                nxt = neighbourhood(adj_bits, frontier) & ~seen
                seen |= nxt
                near.append(seen & allowed)
                frontier = nxt & allowed
            if not seen & ubit:  # unreachable, or farther than maxlen
                si -= 1
                entering = False
                continue
            length = len(near) - 3  # one less than dist(u, w)
            cmask = 0  # untried candidates of the path's last vertex
            stack: list[int] = []  # untried candidates of the vertices before it
            path: list[int] = []
            onpath = 0
            rem = 0  # edges still to route from the path's last vertex
        else:
            (u, ubit, w, near, seen, frontier, allowed, maxlen, length,
             cmask, stack, path, onpath, rem, _) = state[si]

        leaf = -1
        while True:
            if cmask:
                low = cmask & -cmask
                cmask ^= low
                counter += 1
                if counter > node_limit:
                    return 2, None, None, counter
                y = low.bit_length() - 1
                if rem == 2:  # y is in near[2], so a neighbour of w: done
                    leaf = y
                    break
                stack.append(cmask)
                path.append(y)
                onpath |= low
                rem -= 1
                cmask = adj_bits[y] & near[rem] & ~onpath
                continue
            if path:  # every extension of the last vertex failed
                onpath ^= 1 << path.pop()
                rem += 1
                cmask = stack.pop()
                continue
            length += 1
            if length > maxlen:
                break
            counter += 1
            if counter > node_limit:
                return 2, None, None, counter
            if length == 1:  # only when u is a neighbour of w
                leaf = u
                break
            while len(near) <= length:
                nxt = neighbourhood(adj_bits, frontier) & ~seen
                seen |= nxt
                near.append(seen & allowed)
                frontier = nxt & allowed
            stack.append(0)
            path.append(u)
            onpath = ubit
            rem = length
            cmask = adj_bits[u] & near[length]

        if leaf < 0:
            si -= 1
            entering = False
            continue
        state[si] = (u, ubit, w, near, seen, frontier, allowed, maxlen, length,
                     cmask, stack, path, onpath, rem, leaf)
        used = entry_used[si] | ((onpath | 1 << leaf) & ~ubit)
        si += 1
        entering = True

    paths: list[tuple[int, ...] | None] = [None] * len(edges)
    for si, (kind, arg) in enumerate(steps):
        if kind == 1:
            _, _, w, *_, path, _, _, leaf = state[si]
            paths[arg] = (*path, leaf, w)
    return 0, tuple(img), tuple(paths), counter
