"""Legal edge colorings, bi-chromatic cycles, and Kempe switches.

A legal coloring of a d-regular graph assigns a color from ``{1..d}`` to
every edge so that adjacent edges differ. For any two colors i != j the
edges colored i or j form a disjoint union of cycles; switching the two
colors along one such cycle (a Kempe switch) yields another legal coloring.

The public :class:`EdgeColoring` constructor checks every color, because
its table may come from outside: each must be an integer in ``1..degree``.
An id that names no edge is refused where the coloring meets a graph. The private :meth:`EdgeColoring._adopt`
takes as is the tables the package derives from checked colorings: switch
and replay results, pull-backs, restrictions to the lower colors or to one
component, and an alignment cover's shifted coloring. Each exchanges, copies
or computes colors inside ``1..degree``, so a check would prove nothing new.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import ColoringError, IllegalColoringError, RegularityError, StaleSwitchError
from .graph import EdgeId, Multigraph, VertexId, is_regular

Color = int


class EdgeColoring:
    """Total map edge id -> color in ``{1..degree}``. Immutable."""

    __slots__ = ("_degree", "_colors")

    def __init__(self, degree: int, colors: Mapping[EdgeId, Color]):
        if type(degree) is not int:
            raise ColoringError(f"ambient degree must be an integer, got {degree!r}")
        if degree < 1:
            raise ColoringError(f"ambient degree must be >= 1, got {degree}")
        for c in colors.values():
            if type(c) is not int or not 1 <= c <= degree:  # bools are not integers here
                for e, col in colors.items():  # name the first fault
                    if type(col) is not int:
                        raise ColoringError(f"edge {e}: color {col!r} is not an integer")
                    if not (1 <= col <= degree):
                        raise ColoringError(f"edge {e}: color {col} outside 1..{degree}")
        self._degree = degree
        self._colors = dict(colors)

    @classmethod
    def _adopt(cls, degree: int, colors: dict[EdgeId, Color]) -> "EdgeColoring":
        """A coloring owning ``colors`` unchecked and uncopied: the caller
        proves ``degree >= 1`` and every color lies in ``1..degree``."""
        c = cls.__new__(cls)
        c._degree = degree
        c._colors = colors
        return c

    @property
    def degree(self) -> int:
        return self._degree

    def __getitem__(self, e: EdgeId) -> Color:
        try:
            return self._colors[e]
        except KeyError:
            raise ColoringError(f"edge {e} is not colored") from None

    def items(self):
        return self._colors.items()

    def color_class(self, color: Color) -> frozenset[EdgeId]:
        """Edge set carrying the given color."""
        return frozenset([e for e, c in self._colors.items() if c == color])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeColoring):
            return NotImplemented
        return self._degree == other._degree and self._colors == other._colors

    def __repr__(self) -> str:
        return f"EdgeColoring(degree={self._degree}, edges={len(self._colors)})"


@dataclass(frozen=True)
class BichromaticCycle:
    """A component of the two-color subgraph: its color pair and its edge set.

    ``colors`` is the ordered pair (i, j) with i < j, and ``edge_ids`` lists
    the component's edges in increasing order (the parser sorts them). A
    component is fixed by its edges, so they are the whole switch;
    :func:`_replay` checks that they are distinct and form the component
    before a flip. A sorted tuple takes a sixth of the memory of a
    frozenset, and a witness holds thousands of switches.
    """

    colors: tuple[Color, Color]
    edge_ids: tuple[EdgeId, ...]

    @property
    def edges(self) -> frozenset[EdgeId]:
        return frozenset(self.edge_ids)

    def __len__(self) -> int:
        return len(self.edge_ids)


#: A replayable ordered list of switches.
SwitchSequence = tuple[BichromaticCycle, ...]


def is_legal(g: Multigraph, c: EdgeColoring) -> bool:
    """True iff no two adjacent edges of ``g`` share a color under ``c``, by the
    domain check of :func:`_replay`: totality first (else ColoringError), then legality.
    That check fills ``n * (degree + 1)`` slots, for ``c``'s ambient degree."""
    try:
        _replay(g, c.degree, c._colors, ())
    except IllegalColoringError:
        return False
    return True


def common_degree(g: Multigraph, *colorings: EdgeColoring) -> int:
    """Validate a regular carrier with legal colorings of its degree; return d.

    Degrees are compared before any table is filled; then each coloring gets
    one domain check of :func:`_replay`, whose error names the faulty edges."""
    d = is_regular(g)
    if d is None:
        raise RegularityError("graph is not regular")
    if any(c.degree != d for c in colorings):
        degrees = ", ".join(str(c.degree) for c in colorings)
        raise ColoringError(f"colorings have degrees {degrees}; graph is {d}-regular")
    for c in colorings:
        _replay(g, d, c._colors, ())
    return d


def _cycle_decomposition(g: Multigraph, edges: Iterable[EdgeId]) -> list[tuple[EdgeId, ...]]:
    """The sorted edge ids of each cycle that makes up an edge set, ordered by smallest id.

    Raises unless every vertex the edges touch meets exactly two of them.
    The walk reads only the edge table: each touched vertex indexes its
    first and its last member edge, and each cycle is walked from its
    smallest edge. Every edge must be in ``g``.
    """
    member = sorted(set(edges))
    table = g._edges
    one: dict[VertexId, EdgeId] = {}
    two: dict[VertexId, EdgeId] = {}
    for e in member:
        u, w = table[e]
        if u in one:
            two[u] = e
        else:
            one[u] = e
        if w in one:
            two[w] = e
        else:
            one[w] = e
    # the edges have 2 * len(member) ends: every touched vertex meets at least
    # two when both indexes are equally large, and then exactly two when there
    # are as many touched vertices as edges
    if not len(one) == len(two) == len(member):
        raise IllegalColoringError("edge set is not 2-regular on its support")
    cycles = []
    used: set[EdgeId] = set()
    for first in member:
        if first in used:
            continue
        cycle = [first]
        e, v = first, table[first][1]  # v: the vertex the walk has arrived at
        while True:
            e = two[v] if one[v] == e else one[v]
            if e == first:
                break
            cycle.append(e)
            u, w = table[e]
            v = w if u == v else u
        used.update(cycle)
        cycle.sort()
        cycles.append(tuple(cycle))
    return cycles


def bichromatic_cycles(g: Multigraph, c: EdgeColoring, i: Color, j: Color) -> list[BichromaticCycle]:
    """The components of the {i, j}-colored subgraph, ordered by smallest edge id.

    ``c`` must pass the domain check of :func:`_replay`, which raises as a
    switch on ``c`` does. Each vertex that meets color i or j must then meet
    exactly two such edges, as in a regular graph of ``c``'s degree; else
    IllegalColoringError, even for the legal path 0-1-2 colored 1, 2.
    """
    if i == j:
        raise ColoringError(f"need two distinct colors, got {i} twice")
    lo, hi = min(i, j), max(i, j)
    if lo < 1 or hi > c.degree:
        raise ColoringError(f"color pair ({i}, {j}) outside 1..{c.degree}")
    _replay(g, c.degree, c._colors, ())
    member = [e for e, col in c._colors.items() if col == lo or col == hi]
    return [BichromaticCycle((lo, hi), edges) for edges in _cycle_decomposition(g, member)]


def _stale(msg: str, index: int | None) -> StaleSwitchError:
    at = "" if index is None else f" (sequence position {index})"
    return StaleSwitchError(f"stale switch{at}: {msg}", index=index)


def _misfit(table, colors, edges, pair, index) -> StaleSwitchError | None:
    """The rejection of the smallest edge of the set that is unknown or off the pair, if any."""
    for e in sorted(edges):
        if e not in table:
            return _stale(f"edge {e} not in graph", index)
        if colors[e] not in pair:
            return _stale(f"edge {e} has color {colors[e]}, not in {pair}", index)
    return None


def _replay(
    g: Multigraph,
    degree: int,
    colors: dict[EdgeId, Color],
    steps: Iterable[tuple[int | None, BichromaticCycle]],
) -> None:
    """Check each switch against ``colors`` and transpose it there, in order.

    ``colors`` maps edge ids to colors in ``1..degree``; ``steps`` pairs
    each switch with the sequence position that names it if it is stale
    (None for a lone switch). A switch acts on a legal coloring of ``g``
    that colors exactly its edges. Before the first switch is drawn, the
    package's one domain check raises ColoringError for the smallest edge
    not colored, else the smallest colored edge ``g`` does not have, then
    IllegalColoringError for two edges of one color at a vertex, leaving
    ``colors`` as it was. With no steps it is that check alone, as run by
    ``common_degree``, ``is_legal`` and ``bichromatic_cycles``.

    One walk follows the component of a switch's smallest edge. At each
    vertex it reaches it steps on along the pair edge it did not arrive by,
    which has the other color, until it is back at the first edge; a vertex
    with no such edge rejects the switch. So the component is an alternating
    cycle and the walk meets each of its edges once. Every edge it meets must
    be in the switch, and it must meet as many edges as the switch lists:
    then the switch is the component. A rejection names the smallest listed
    edge that is unknown or off the pair, if there is one.

    The walk reads a color table filled once per replay from the edge table:
    slot (v, c) holds the edge of color c at v, or None. The edge the walk
    arrives by is the one of its color, so each step is the slot of the
    pair's other color. A flip transposes a whole alternating two-color
    component, which keeps a legal coloring legal, so a replay that starts
    legal stays legal at every step without re-checking the graph; the flip
    rewrites the pair's slots at both ends of every flipped edge. Every
    replay in the package runs this loop, and no other code flips an edge's
    color in place.
    """
    table, width = g._edges, degree + 1
    if colors.keys() != table.keys():
        missing = table.keys() - colors.keys()
        if missing:
            raise ColoringError(f"edge {min(missing)} is not colored")
        raise ColoringError(f"edge {min(colors.keys() - table.keys())} is not in the graph")
    slots: list = [None] * (g._n * width)
    for e, (u, w) in table.items():
        col = colors[e]
        at_u, at_w = u * width + col, w * width + col
        if slots[at_u] is not None or slots[at_w] is not None:
            at = at_u if slots[at_u] is not None else at_w
            raise IllegalColoringError(
                f"colors do not make a legal coloring: edges {slots[at]} and {e} "
                f"both have color {col} at vertex {at // width}"
            )
        slots[at_u] = slots[at_w] = e
    for index, cycle in steps:
        lo, hi = pair = cycle.colors
        if not (1 <= lo < hi <= degree):
            raise _stale(f"color pair {pair} invalid for degree {degree}", index)
        if not cycle.edge_ids:
            raise _stale("empty cycle", index)
        edges = set(cycle.edge_ids)
        if len(edges) != len(cycle.edge_ids):
            raise _stale("repeated edge in switch", index)
        first = min(edges)
        if first not in table or (colors[first] != lo and colors[first] != hi):
            raise _misfit(table, colors, edges, pair, index)
        both = lo + hi
        col, v, met = colors[first], table[first][1], 1
        while True:
            col = both - col
            nxt = slots[v * width + col]
            if nxt is None:
                raise _stale(f"cycle is not a full two-color component at vertex {v}", index)
            if nxt == first:
                break
            if nxt not in edges:
                raise _misfit(table, colors, edges, pair, index) or _stale(
                    f"cycle is not a full two-color component: it misses edge {nxt}", index
                )
            u, w = table[nxt]
            v, met = w if u == v else u, met + 1
        if met != len(edges):
            raise _misfit(table, colors, edges, pair, index) or _stale(
                f"edge set is not a single cycle: edges lie off the cycle of edge {first}", index
            )
        for e in cycle.edge_ids:
            col = both - colors[e]
            colors[e] = col
            u, w = table[e]
            slots[u * width + col] = e
            slots[w * width + col] = e


def kempe_switch(g: Multigraph, c: EdgeColoring, cycle: BichromaticCycle) -> EdgeColoring:
    """Transpose the cycle's two colors along it; all other edges unchanged.

    ``c`` must color exactly the edges of ``g``, legally; otherwise ColoringError.
    """
    colors = dict(c._colors)
    _replay(g, c.degree, colors, [(None, cycle)])
    # the replay only exchanges the two colors of a checked pair in 1..degree
    return EdgeColoring._adopt(c.degree, colors)


def apply_sequence(g: Multigraph, c: EdgeColoring, sequence: Sequence[BichromaticCycle]) -> EdgeColoring:
    """Left-to-right replay of switches; fails on the first stale switch.

    ``c`` must color exactly the edges of ``g``, legally; otherwise ColoringError
    before the first switch.
    """
    colors = dict(c._colors)
    _replay(g, c.degree, colors, enumerate(sequence))
    # the replay only exchanges the two colors of a checked pair in 1..degree
    return EdgeColoring._adopt(c.degree, colors)
