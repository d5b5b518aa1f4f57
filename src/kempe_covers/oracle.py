"""Brute-force ground truth at desk scale.

Exhaustively enumerates the legal edge colorings of a small graph, as
ordered choices of disjoint perfect matchings for the color classes,
partitions them into Kempe equivalence classes by breadth-first closure
under single switches, and answers equivalence queries (with a shortest
switch path) without passing to any cover. Also provides a seeded random
instance generator for tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations, islice
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
from .errors import ColoringError, EnumerationLimitError, GraphStructureError, RegularityError
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
    shortest switch sequence from its class representative. The paths share
    their switches: the search builds each distinct switch once, when it
    first keeps it, and reads each coloring's color masks from its key only
    at a class root, deriving every other coloring's from its parent's.
    """

    graph: Multigraph
    colorings: tuple[EdgeColoring, ...]
    classes: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]
    paths: dict[int, SwitchSequence] = field(repr=False)


def _shifts(width: int, count: int) -> list[int]:
    """Where each position's field starts in a :func:`_pack` key, position 0 first."""
    return [width * p for p in range(count - 1, -1, -1)]


def _pack(colors: Iterable[Color], width: int) -> int:
    """A coloring as one integer: position 0 fills the most significant ``width`` bits."""
    key = 0
    for color in colors:
        key = key << width | color
    return key


def _edge_colorings(g: Multigraph, d: int, keys: list[int]) -> list[EdgeColoring]:
    """The colorings of ``g`` that :func:`_pack` keys with width ``d.bit_length()`` stand for.

    Each field of a key is a color in ``1..d`` by construction, so only the
    degree is checked, with the public constructor's error."""
    if d < 1:
        raise ColoringError(f"ambient degree must be >= 1, got {d}")
    width = d.bit_length()
    field = (1 << width) - 1
    shifts = _shifts(width, g.edge_count)
    # list() trims the comprehension's spare slots: a census keeps every coloring
    return [EdgeColoring._adopt(d, list([key >> shift & field for shift in shifts])) for key in keys]


def _coloring_keys(g: Multigraph, max_edges: int) -> tuple[int, list[int]]:
    """The degree and every legal coloring as a :func:`_pack` key, sorted.

    On a d-regular graph each color class of a legal coloring is a perfect
    matching, so a coloring is an ordered choice of d pairwise disjoint
    perfect matchings. The matchings are listed once, each as the sum of
    its positions' field units; colors 1..d-1 pick disjoint ones, and color
    d takes the edges left, which form a perfect matching. The key is the
    sum of each color times its matching's units. Position 0 fills the most
    significant field, so sorting the keys sorts the color tuples.

    The list stops beyond ``MAX_COLORINGS`` matchings. The colorings are
    then matched color by color instead, each color among the edges the
    earlier ones left, so the search stops at coloring ``MAX_COLORINGS``
    + 1 without listing every matching first. The matching search keeps
    its own stack, of at most 1 + (d-1)·n/2 entries on n vertices.
    """
    d = is_regular(g)
    if d is None:
        raise RegularityError("enumeration needs a regular graph")
    if g.edge_count > max_edges:
        raise EnumerationLimitError(
            f"{g.edge_count} edges exceeds the enumeration bound {max_edges}"
        )
    if not g.edge_count:  # the empty coloring, before any table of the vertices
        return d, [0]
    unit = [1 << shift for shift in _shifts(d.bit_length(), g.edge_count)]
    partners: list[list[tuple[int, int]]] = [[] for _ in range(g.vertex_count)]
    for bit, u, v in zip(unit, g._tails, g._heads):
        partners[u].append((v, bit))
        partners[v].append((u, bit))
    everyone, every_edge = (1 << g.vertex_count) - 1, sum(unit)
    keys: list[int] = []

    def matchings(left: int):
        # each perfect matching within the edges in left, depth first: the
        # lowest free vertex takes its partners in id order
        stack = [(everyone, 0)]
        while stack:
            free, units = stack.pop()
            if not free:
                yield units
                continue
            low = free & -free
            free ^= low
            for w, bit in reversed(partners[low.bit_length() - 1]):
                if bit & left and free >> w & 1:
                    stack.append((free ^ 1 << w, units | bit))

    def found(batch: list[int]) -> None:
        keys.extend(batch)
        if len(keys) > MAX_COLORINGS:
            raise EnumerationLimitError(f"more than {MAX_COLORINGS} legal colorings")

    def choose(c: int, candidates: list[int], key: int) -> None:
        # colors below c are chosen; key colors every edge left with d, and
        # taking matching M for color c lowers its edges by d - c
        if c < d - 1:
            for units in candidates:
                choose(c + 1, [other for other in candidates if not other & units], key - (d - c) * units)
            return
        found([key - units for units in candidates] if c == d - 1 else [key])

    def extend(c: int, left: int, key: int) -> None:
        # as choose, with color c matched in left, the edges no earlier color took
        if c < d:
            for units in matchings(left):
                extend(c + 1, left ^ units, key - (d - c) * units)
        else:
            found([key])

    pool = list(islice(matchings(every_edge), MAX_COLORINGS + 1))
    if len(pool) > MAX_COLORINGS:
        extend(1, every_edge, d * every_edge)
    else:
        choose(1, pool, d * every_edge)
    keys.sort()
    # each recursive closure holds itself through its own cell, and that cycle would keep
    # keys alive until the cyclic collector runs, which the CLI pauses
    del choose, extend
    return d, keys


def enumerate_legal_colorings(g: Multigraph, max_edges: int = DEFAULT_MAX_EDGES) -> list[EdgeColoring]:
    """All legal colorings, in increasing edge-id-lexicographic order.

    Chooses disjoint perfect matchings as color classes. Refuses graphs
    with more than ``max_edges`` edges or ``MAX_COLORINGS`` colorings.
    """
    d, keys = _coloring_keys(g, max_edges)
    return _edge_colorings(g, d, keys)


def _switch_walker(g: Multigraph, d: int):
    """The Kempe-switch neighbours of a packed legal coloring of the d-regular ``g``.

    Colorings are keyed by :func:`_pack` over edge-id order, with width
    ``d.bit_length()``. Returns three functions. ``masks_of(key)`` reads the
    key's bit planes into a list whose entry ``c`` holds 1 in the low bit of
    each field colored ``c``. ``neighbors(key, masks)`` yields, for every
    color pair in order and every component of that pair in order of its
    smallest edge, the pair, ``covered`` and a mask: ``covered`` holds 1 in
    the low bit of each of the component's fields, and the key XOR the mask
    is the switched coloring, since ``c ^ (lo ^ hi)`` swaps ``lo`` and
    ``hi``. A search reads masks from a key only where it starts and derives
    every other coloring's with :func:`_switched`. ``cycle(pair, covered)``
    builds the switch, so only a switch the search keeps pays for its edge
    ids, and a census shares each one among its paths. A pair's components
    depend only on its 2-factor, the edges colored ``lo`` or ``hi``, and a
    search meets the same 2-factors again and again. So ``neighbors`` looks
    each 2-factor up among those the walker has walked. Only for an unseen
    one does it fill, once per coloring, a vertex-by-color table of edge
    positions, and walk each component by alternating lookups in two of its
    rows. The table is total because every key fed in is a legal coloring.
    """
    ids = g.edge_ids()
    width = d.bit_length()
    field = (1 << width) - 1
    tail, head = g._tails, g._heads
    cross = [u ^ v for u, v in zip(tail, head)]
    unit = [1 << shift for shift in _shifts(width, len(ids))]
    units = sum(unit)
    last = len(ids) - 1
    # fields are read from the least significant end: last position first
    fill = range(last, -1, -1)
    pairs = [(pair, pair[0] ^ pair[1]) for pair in combinations(range(1, d + 1), 2)]
    n = g.vertex_count
    walked: dict[int, list[int]] = {}  # a 2-factor's units -> each component's, smallest edge first

    def masks_of(key: int) -> list[int]:
        planes = [key >> j & units for j in range(width)]
        masks = [0] * (d + 1)
        for color in range(1, d + 1):
            mask = units
            for j, plane in enumerate(planes):
                mask &= plane if color >> j & 1 else ~plane
            masks[color] = mask
        return masks

    def neighbors(key: int, masks: list[int]):
        rows = None
        for pair, flip in pairs:
            lo, hi = pair
            todo = masks[lo] | masks[hi]
            components = walked.get(todo)
            if components is None:
                components = walked[todo] = []
                if rows is None:
                    rows = [[0] * n for _ in range(d + 1)]
                    rest = key
                    for p in fill:
                        row = rows[rest & field]
                        rest >>= width
                        row[tail[p]] = row[head[p]] = p
                while todo:
                    top = todo.bit_length() - 1
                    covered = 1 << top
                    first = last - top // width
                    here, there = (rows[hi], rows[lo]) if masks[lo] & covered else (rows[lo], rows[hi])
                    x = head[first]
                    p = here[x]
                    while p != first:
                        covered |= unit[p]
                        x ^= cross[p]
                        here, there = there, here
                        p = here[x]
                    todo ^= covered
                    components.append(covered)
            for covered in components:
                yield pair, covered, flip * covered

    def cycle(pair, covered: int) -> BichromaticCycle:
        return BichromaticCycle(pair, tuple([e for e, bit in zip(ids, unit) if covered & bit]))

    return masks_of, neighbors, cycle


def _switched(masks: list[int], pair: tuple[Color, Color], covered: int) -> list[int]:
    """The :func:`_switch_walker` masks of a coloring after the switch of ``pair`` on
    ``covered``, from the masks before it, which stay as they are: the switch swaps
    ``lo`` and ``hi`` exactly on ``covered``."""
    lo, hi = pair
    masks = masks.copy()
    masks[lo] ^= covered
    masks[hi] ^= covered
    return masks


def kempe_class_partition(g: Multigraph, max_edges: int = DEFAULT_MAX_EDGES) -> ColoringCensus:
    """Partition all legal colorings into Kempe classes by BFS closure."""
    d, keys = _coloring_keys(g, max_edges)
    colorings = _edge_colorings(g, d, keys)
    index_of = {key: k for k, key in enumerate(keys)}
    masks_of, neighbors, cycle = _switch_walker(g, d)
    switches: dict[tuple, BichromaticCycle] = {}  # (pair, covered) -> the one switch every path shares
    paths: dict[int, SwitchSequence] = {}
    classes: list[tuple[int, ...]] = []
    visited = [False] * len(colorings)
    for root in range(len(colorings)):
        if visited[root]:
            continue
        visited[root] = True
        paths[root] = ()
        members = [root]
        # each entry: a coloring, the masks of the one it was first reached from, and that move
        frontier = [(root, masks_of(keys[root]), None, 0)]
        while frontier:
            nxt = []
            for idx, masks, pair, covered in frontier:
                if covered:
                    masks = _switched(masks, pair, covered)
                key, path = keys[idx], paths[idx]
                for pair, covered, mask in neighbors(key, masks):
                    n_idx = index_of[key ^ mask]
                    if not visited[n_idx]:
                        visited[n_idx] = True
                        switch = switches.get((pair, covered))
                        if switch is None:
                            switch = switches[pair, covered] = cycle(pair, covered)
                        paths[n_idx] = path + (switch,)
                        members.append(n_idx)
                        nxt.append((n_idx, masks, pair, covered))
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
    width = d.bit_length()
    start = _pack(c1._colors, width)
    goal = _pack(c2._colors, width)
    if start == goal:
        return ()
    masks_of, neighbors, cycle = _switch_walker(g, d)
    # each reached key -> (the key it was reached from, the switch's pair and covered fields)
    parent: dict[int, tuple | None] = {start: None}
    # parent holds each key's move, so an entry is one expanded key's masks and the keys
    # first reached from it (the start's own masks and the start, at first)
    frontier = [(masks_of(start), [start])]
    while frontier:
        nxt = []
        for before, reached in frontier:
            for current in reached:
                if current == start:
                    masks = before
                else:
                    _, pair, covered = parent[current]
                    masks = _switched(before, pair, covered)
                children = []
                for pair, covered, mask in neighbors(current, masks):
                    neighbor = current ^ mask
                    if neighbor in parent:
                        continue
                    parent[neighbor] = (current, pair, covered)
                    if neighbor == goal:
                        path = []
                        while neighbor != start:
                            neighbor, pair, covered = parent[neighbor]
                            path.append(cycle(pair, covered))
                        return tuple(reversed(path))
                    if len(parent) > MAX_COLORINGS:
                        raise EnumerationLimitError(f"more than {MAX_COLORINGS} colorings searched")
                    children.append(neighbor)
                if children:
                    nxt.append((masks, children))
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
    g = Multigraph(n, pairs)
    half = n // 2
    c1 = EdgeColoring(d, [e // half + 1 for e in g.edge_ids()])

    legal = None
    if g.edge_count <= SAMPLING_MAX_EDGES:
        try:
            _, legal = _coloring_keys(g, DEFAULT_MAX_EDGES)
        except EnumerationLimitError:  # too many colorings to sample from
            pass
    if legal is not None:
        [c2] = _edge_colorings(g, d, [legal[rng.randrange(len(legal))]])
    else:
        shuffled = list(range(1, d + 1))
        rng.shuffle(shuffled)
        relabel = {k + 1: shuffled[k] for k in range(d)}
        c2 = EdgeColoring(d, [relabel[col] for _, col in c1.items()])
        for _ in range(2 * d):
            i, j = rng.sample(range(1, d + 1), 2)
            cycles = bichromatic_cycles(g, c2, min(i, j), max(i, j))
            c2 = kempe_switch(g, c2, cycles[rng.randrange(len(cycles))])
    return g, c1, c2
