"""Brute-force ground truth at desk scale.

Exhaustively enumerates the legal edge colorings of a small graph,
partitions them into Kempe equivalence classes by breadth-first closure
under single switches, and answers equivalence queries (with a shortest
switch path) without passing to any cover. Also provides a seeded random
instance generator for tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable

from .coloring import (
    BichromaticCycle,
    Color,
    EdgeColoring,
    SwitchSequence,
    bichromatic_cycles,
    common_degree,
    kempe_switch,
)
from .errors import EnumerationLimitError, GraphStructureError, RegularityError
from .graph import Multigraph, is_regular

DEFAULT_MAX_EDGES = 30
#: enumeration and path search stop beyond this many colorings (seconds of work)
MAX_COLORINGS = 400_000
#: above this edge count the instance generator stops sampling the second
#: coloring uniformly and falls back to a color permutation plus switch walk
SAMPLING_MAX_EDGES = 24


@dataclass(frozen=True, eq=False)
class ColoringCensus:
    """All legal colorings of a graph with their Kempe class partition.

    ``classes`` holds index tuples into ``colorings``; the representative of
    a class is its smallest index. ``paths`` maps a coloring index to a
    shortest switch sequence from its class representative.
    """

    graph: Multigraph
    colorings: tuple[EdgeColoring, ...]
    classes: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]
    paths: dict[int, SwitchSequence] = field(repr=False)


def _enumeration_order(g: Multigraph) -> list[int]:
    # vertex-local edge order prunes much earlier than raw id order
    order = []
    taken = set()
    for v in g.vertices():
        for e in g.edges_at(v):
            if e not in taken:
                taken.add(e)
                order.append(e)
    return order


def _color_vectors(g: Multigraph, max_edges: int) -> tuple[int, list[tuple[Color, ...]]]:
    """The degree and every legal coloring as a color tuple in edge-id order, sorted."""
    d = is_regular(g)
    if d is None:
        raise RegularityError("enumeration needs a regular graph")
    if g.edge_count > max_edges:
        raise EnumerationLimitError(
            f"{g.edge_count} edges exceeds the enumeration bound {max_edges}"
        )
    position = {e: p for p, e in enumerate(g._edges)}
    steps = [(position[e], *g._edges[e]) for e in _enumeration_order(g)]
    bits = [(color, 1 << color) for color in range(1, d + 1)]
    used = [0] * g.vertex_count
    assignment = [0] * g.edge_count
    found: list[tuple[Color, ...]] = []

    def backtrack(k: int) -> None:
        if k == len(steps):
            if len(found) == MAX_COLORINGS:
                raise EnumerationLimitError(f"more than {MAX_COLORINGS} legal colorings")
            found.append(tuple(assignment))
            return
        p, u, v = steps[k]
        for color, bit in bits:
            if (used[u] | used[v]) & bit:
                continue
            assignment[p] = color
            used[u] |= bit
            used[v] |= bit
            backtrack(k + 1)
            used[u] ^= bit
            used[v] ^= bit

    backtrack(0)
    found.sort()
    return d, found


def enumerate_legal_colorings(g: Multigraph, max_edges: int = DEFAULT_MAX_EDGES) -> list[EdgeColoring]:
    """All legal colorings, in increasing edge-id-lexicographic order.

    Backtracks over edges with per-vertex used-color bitmasks. Refuses graphs
    with more than ``max_edges`` edges or ``MAX_COLORINGS`` colorings.
    """
    d, vectors = _color_vectors(g, max_edges)
    ids = g.edge_ids()
    return [EdgeColoring(d, dict(zip(ids, vector))) for vector in vectors]


def _pack(colors: Iterable[Color], width: int) -> int:
    """A coloring as one integer: the color at position p fills bits width*p onwards."""
    return sum(color << (width * p) for p, color in enumerate(colors))


def _switch_walker(g: Multigraph, d: int):
    """The Kempe-switch neighbours of a packed legal coloring of the d-regular ``g``.

    Colorings are keyed by :func:`_pack` over edge-id order, with width
    ``d.bit_length()``. The returned function yields, for every color pair
    in order and every component of that pair in canonical order, the pair,
    the component's dart list and a mask: the key XOR the mask is the
    switched coloring, since ``c ^ (lo ^ hi)`` swaps ``lo`` and ``hi``.
    Per coloring it fills one vertex-by-color table of edge positions; a
    component is walked by alternating lookups in two of its rows, from its
    smallest position at slot 0, so it comes out as ``_cycle_decomposition``
    gives it. The table is total because every key fed in is a legal coloring.
    """
    ids = g.edge_ids()
    width = d.bit_length()
    field = (1 << width) - 1
    ends = [g._edges[e] for e in ids]
    tail = [u for u, _ in ends]
    head = [v for _, v in ends]
    cross = [u ^ v for u, v in ends]
    unit = [1 << shift for shift in range(0, width * len(ids), width)]
    darts = [((e, 0), (e, 1)) for e in ids]
    pairs = [(pair, pair[0] ^ pair[1]) for pair in combinations(range(1, d + 1), 2)]
    n = g.vertex_count

    def neighbors(key: int):
        rows = [[0] * n for _ in range(d + 1)]
        spread = [0] * (d + 1)
        rest = key
        for p, bit in enumerate(unit):
            color = rest & field
            rest >>= width
            row = rows[color]
            row[tail[p]] = p
            row[head[p]] = p
            spread[color] |= bit
        for pair, flip in pairs:
            lo, hi = pair
            todo = spread[lo] | spread[hi]
            while todo:
                covered = todo & -todo
                first = (covered.bit_length() - 1) // width
                here, there = (rows[hi], rows[lo]) if spread[lo] & covered else (rows[lo], rows[hi])
                walk = [darts[first][0]]
                x = head[first]
                p = here[x]
                while p != first:
                    walk.append(darts[p][tail[p] != x])
                    covered |= unit[p]
                    x ^= cross[p]
                    here, there = there, here
                    p = here[x]
                todo ^= covered
                yield pair, walk, flip * covered

    return neighbors


def kempe_class_partition(g: Multigraph, max_edges: int = DEFAULT_MAX_EDGES) -> ColoringCensus:
    """Partition all legal colorings into Kempe classes by BFS closure."""
    d, vectors = _color_vectors(g, max_edges)
    ids = g.edge_ids()
    colorings = [EdgeColoring(d, dict(zip(ids, vector))) for vector in vectors]
    width = d.bit_length()
    keys = [_pack(vector, width) for vector in vectors]
    index_of = {key: k for k, key in enumerate(keys)}
    neighbors = _switch_walker(g, d)
    paths: dict[int, SwitchSequence] = {}
    classes: list[tuple[int, ...]] = []
    visited = [False] * len(colorings)
    for root in range(len(colorings)):
        if visited[root]:
            continue
        visited[root] = True
        paths[root] = ()
        members = [root]
        frontier = [root]
        while frontier:
            nxt = []
            for idx in frontier:
                key = keys[idx]
                for pair, walk, mask in neighbors(key):
                    n_idx = index_of[key ^ mask]
                    if not visited[n_idx]:
                        visited[n_idx] = True
                        paths[n_idx] = paths[idx] + (BichromaticCycle(pair, tuple(walk)),)
                        members.append(n_idx)
                        nxt.append(n_idx)
            frontier = nxt
        classes.append(tuple(sorted(members)))
    return ColoringCensus(
        graph=g,
        colorings=tuple(colorings),
        classes=tuple(classes),
        representatives=tuple(cls[0] for cls in classes),
        paths=paths,
    )


def equivalent_without_cover(
    g: Multigraph,
    c1: EdgeColoring,
    c2: EdgeColoring,
    max_edges: int = DEFAULT_MAX_EDGES,
) -> SwitchSequence | None:
    """A shortest switch sequence from c1 to c2 on the graph itself, if any.

    Returns None when the colorings lie in different Kempe classes (the case
    that forces passing to a cover). Stops beyond ``MAX_COLORINGS`` colorings.
    """
    d = common_degree(g, c1, c2)
    if g.edge_count > max_edges:
        raise EnumerationLimitError(
            f"{g.edge_count} edges exceeds the enumeration bound {max_edges}"
        )
    ids, width = g.edge_ids(), d.bit_length()
    start = _pack(map(c1._colors.__getitem__, ids), width)
    goal = _pack(map(c2._colors.__getitem__, ids), width)
    if start == goal:
        return ()
    neighbors = _switch_walker(g, d)
    # each reached key -> (the key it was reached from, the switch's pair and walk)
    parent: dict[int, tuple | None] = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for current in frontier:
            for pair, walk, mask in neighbors(current):
                neighbor = current ^ mask
                if neighbor in parent:
                    continue
                parent[neighbor] = (current, pair, walk)
                if neighbor == goal:
                    path = []
                    while neighbor != start:
                        neighbor, pair, walk = parent[neighbor]
                        path.append(BichromaticCycle(pair, tuple(walk)))
                    return tuple(reversed(path))
                if len(parent) > MAX_COLORINGS:
                    raise EnumerationLimitError(f"more than {MAX_COLORINGS} colorings searched")
                nxt.append(neighbor)
        frontier = nxt
    return None


def random_colored_instance(
    seed: int, d: int, n: int
) -> tuple[Multigraph, EdgeColoring, EdgeColoring]:
    """Seeded random d-regular instance with two legal colorings.

    The graph is a union of d uniformly shuffled perfect matchings on n
    vertices (parallel edges across matchings are kept; loops cannot occur),
    and the first coloring colors matching k with color k+1. The second is
    drawn uniformly from all legal colorings when the graph is small enough
    to enumerate, otherwise a random color permutation of the first followed
    by a random switch walk. Identical seeds give identical instances.
    """
    if d < 1:
        raise GraphStructureError(f"degree must be >= 1, got {d}")
    if n < 2 or n % 2:
        raise GraphStructureError(f"vertex count must be even and >= 2, got {n}")
    rng = random.Random(seed)
    pairs = []
    for _ in range(d):
        perm = list(range(n))
        rng.shuffle(perm)
        pairs.extend((perm[t], perm[t + 1]) for t in range(0, n, 2))
    g = Multigraph.from_edges(n, pairs)
    half = n // 2
    c1 = EdgeColoring(d, {e: e // half + 1 for e in g.edge_ids()})

    legal = None
    if g.edge_count <= SAMPLING_MAX_EDGES:
        try:
            _, legal = _color_vectors(g, DEFAULT_MAX_EDGES)
        except EnumerationLimitError:  # too many colorings to sample from
            pass
    if legal is not None:
        c2 = EdgeColoring(d, dict(zip(g.edge_ids(), legal[rng.randrange(len(legal))])))
    else:
        shuffled = list(range(1, d + 1))
        rng.shuffle(shuffled)
        relabel = {k + 1: shuffled[k] for k in range(d)}
        c2 = EdgeColoring(d, {e: relabel[c1[e]] for e in g.edge_ids()})
        for _ in range(2 * d):
            i, j = rng.sample(range(1, d + 1), 2)
            cycles = bichromatic_cycles(g, c2, min(i, j), max(i, j))
            c2 = kempe_switch(g, c2, cycles[rng.randrange(len(cycles))])
    return g, c1, c2
