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

from .coloring import (
    BichromaticCycle,
    Color,
    EdgeColoring,
    SwitchSequence,
    _cycle_decomposition,
    bichromatic_cycles,
    common_degree,
    kempe_switch,
)
from .errors import EnumerationLimitError, GraphStructureError, RegularityError
from .graph import EdgeId, Multigraph, is_regular

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


def _switch_neighbors(g: Multigraph, colors: tuple[Color, ...], degree: int, position: dict[EdgeId, int]):
    """Every (color pair, closed walk, switched tuple) one Kempe switch away.

    ``colors`` lists one color per edge in edge-id order and ``position``
    maps an edge id to its index there. The walks are flipped unchecked.
    """
    for pair in combinations(range(1, degree + 1), 2):
        lo, hi = pair
        member = [e for e, p in position.items() if colors[p] == lo or colors[p] == hi]
        for walk in _cycle_decomposition(g, member):
            flipped = list(colors)
            for e, _ in walk:
                p = position[e]
                flipped[p] = lo + hi - flipped[p]
            yield pair, walk, tuple(flipped)


def _vector(c: EdgeColoring, ids: tuple[EdgeId, ...]) -> tuple[Color, ...]:
    """The colors of a total coloring, listed in the order of ``ids``."""
    return tuple(map(c._colors.__getitem__, ids))


def kempe_class_partition(g: Multigraph, max_edges: int = DEFAULT_MAX_EDGES) -> ColoringCensus:
    """Partition all legal colorings into Kempe classes by BFS closure."""
    colorings = enumerate_legal_colorings(g, max_edges)
    ids = g.edge_ids()
    position = {e: p for p, e in enumerate(ids)}
    vectors = [_vector(c, ids) for c in colorings]
    index_of = {vector: k for k, vector in enumerate(vectors)}
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
                switches = _switch_neighbors(g, vectors[idx], colorings[idx].degree, position)
                for pair, walk, neighbor in switches:
                    n_idx = index_of[neighbor]
                    if not visited[n_idx]:
                        visited[n_idx] = True
                        paths[n_idx] = paths[idx] + (BichromaticCycle(pair, walk),)
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
    ids = g.edge_ids()
    start, goal = _vector(c1, ids), _vector(c2, ids)
    if start == goal:
        return ()
    position = {e: p for p, e in enumerate(ids)}
    seen = {start: ()}
    frontier = [start]
    while frontier:
        nxt = []
        for current in frontier:
            for pair, walk, neighbor in _switch_neighbors(g, current, d, position):
                if neighbor in seen:
                    continue
                seen[neighbor] = seen[current] + (BichromaticCycle(pair, walk),)
                if neighbor == goal:
                    return seen[neighbor]
                if len(seen) > MAX_COLORINGS:
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
