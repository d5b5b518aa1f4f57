"""Legal edge colorings, bi-chromatic cycles, and Kempe switches.

A legal coloring of a d-regular graph assigns a color from ``{1..d}`` to
every edge so that adjacent edges differ. For any two colors i != j the
edges colored i or j form a disjoint union of cycles; switching the two
colors along one such cycle (a Kempe switch) yields another legal coloring.

A coloring is the list of its edges' colors, in edge id order. The public
:class:`EdgeColoring` constructor takes a sequence, or a mapping keyed by
exactly ``0..E-1``, and checks every color, because its table may come from
outside: each must be an integer in ``1..degree``. A list of another length
is refused where the coloring meets a graph. The private :meth:`EdgeColoring._adopt`
takes as is the lists the package derives from checked colorings: switch
and replay results, pull-backs, restrictions to the lower colors or to one
component, an alignment cover's shifted coloring, and the oracle's
enumerated colorings. Each exchanges, copies or computes colors inside
``1..degree``, so a check would prove nothing new.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count
from typing import Iterable, Mapping, Sequence

from .errors import ColoringError, IllegalColoringError, RegularityError, StaleSwitchError
from .graph import EdgeId, Multigraph, VertexId, _in_id_order, is_regular

Color = int


class EdgeColoring:
    """The colors of edges ``0..E-1``, each in ``{1..degree}``. Immutable."""

    __slots__ = ("_degree", "_colors")

    def __init__(self, degree: int, colors: Sequence[Color] | Mapping[EdgeId, Color]):
        if type(degree) is not int:
            raise ColoringError(f"ambient degree must be an integer, got {degree!r}")
        if degree < 1:
            raise ColoringError(f"ambient degree must be >= 1, got {degree}")
        colors = _in_id_order(colors, ColoringError)
        for c in colors:
            if type(c) is not int or not 1 <= c <= degree:  # bools are not integers here
                for e, col in enumerate(colors):  # name the first fault
                    if type(col) is not int:
                        raise ColoringError(f"edge {e}: color {col!r} is not an integer")
                    if not (1 <= col <= degree):
                        raise ColoringError(f"edge {e}: color {col} outside 1..{degree}")
        self._degree = degree
        self._colors = colors

    @classmethod
    def _adopt(cls, degree: int, colors: list[Color]) -> "EdgeColoring":
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
        if type(e) is not int or not 0 <= e < len(self._colors):
            raise ColoringError(f"edge {e} is not colored")
        return self._colors[e]

    def items(self):
        """(edge id, color) pairs in id order."""
        return enumerate(self._colors)

    def color_class(self, color: Color) -> frozenset[EdgeId]:
        """Edge set carrying the given color."""
        return frozenset(compress(count(), map(color.__eq__, self._colors)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeColoring):
            return NotImplemented
        return self._degree == other._degree and self._colors == other._colors

    def __repr__(self) -> str:
        return f"EdgeColoring(degree={self._degree}, edges={len(self._colors)})"


@dataclass(frozen=True, slots=True)
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
    That check fills ``degree + 1`` rows of ``n`` slots, for ``c``'s ambient degree."""
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
    tails, heads = g._tails, g._heads
    one: dict[VertexId, EdgeId] = {}
    two: dict[VertexId, EdgeId] = {}
    for e in member:
        u, w = tails[e], heads[e]
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
        e, v = first, heads[first]  # v: the vertex the walk has arrived at
        while True:
            e = two[v] if one[v] == e else one[v]
            if e == first:
                break
            cycle.append(e)
            v ^= tails[e] ^ heads[e]  # the other end of e
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
    member = [e for e, col in enumerate(c._colors) if col == lo or col == hi]
    return [BichromaticCycle((lo, hi), edges) for edges in _cycle_decomposition(g, member)]


def _stale(msg: str, index: int | None) -> StaleSwitchError:
    at = "" if index is None else f" (sequence position {index})"
    return StaleSwitchError(f"stale switch{at}: {msg}", index=index)


def _misfit(colors, edges, pair, index) -> StaleSwitchError | None:
    """The rejection of the smallest edge of the set that is unknown or off the pair, if any."""
    for e in sorted(edges):
        if not 0 <= e < len(colors):  # a list would read -1 as its last slot
            return _stale(f"edge {e} not in graph", index)
        if colors[e] not in pair:
            return _stale(f"edge {e} has color {colors[e]}, not in {pair}", index)
    return None


def _replay(
    g: Multigraph,
    degree: int,
    colors: list[Color],
    steps: Iterable[tuple[int | None, BichromaticCycle]],
) -> None:
    """Check each switch against ``colors`` and transpose it there, in order.

    ``colors`` lists the color in ``1..degree`` of each edge id; ``steps``
    pairs each switch with the sequence position that names it if it is
    stale (None for a lone switch). Before the first switch is drawn, the
    package's one domain check raises ColoringError for the first edge not
    colored, else the first colored edge ``g`` does not have, then
    IllegalColoringError for two edges of one color at a vertex. With no
    steps it is that check alone, as ``common_degree``, ``is_legal`` and
    ``bichromatic_cycles`` run it.

    The check fills a color table once: row c holds at each vertex its edge
    of color c, or None. One walk follows the component of a switch's
    smallest edge: it arrives by an edge of one color of the pair and leaves
    by the other color's row, its next vertex the XOR of the edge's ends with
    the current one, until it is back at the first edge; a vertex with no
    such edge rejects the switch. Every edge it meets must be in the switch,
    and it must meet as many edges as the switch lists: then the switch is
    the component. The walk also flips it: at each vertex, the pair's two
    row entries trade places and the edge it leaves by takes the other
    color. So a rejected switch leaves ``colors``, which the caller owns,
    part-flipped; its rejection names the smallest listed edge that is
    unknown (outside ``0..E-1``, checked before any list is indexed with it)
    or off the pair, if there is one, and the walk flips no such edge. A
    flip of a whole alternating component keeps a legal coloring legal, so
    no step re-checks the graph. No other code flips an edge's color in place.
    """
    tails, heads, size = g._tails, g._heads, len(g._tails)
    if len(colors) < size:
        raise ColoringError(f"edge {len(colors)} is not colored")
    if len(colors) > size:
        raise ColoringError(f"edge {size} is not in the graph")
    rows: list[list] = [[None] * g._n for _ in range(degree + 1)]
    for e, u, w, col in zip(count(), tails, heads, colors):
        row = rows[col]
        if row[u] is not None or row[w] is not None:
            at = u if row[u] is not None else w
            raise IllegalColoringError(
                f"colors do not make a legal coloring: edges {row[at]} and {e} "
                f"both have color {col} at vertex {at}"
            )
        row[u] = row[w] = e
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
        if not 0 <= first < size or (colors[first] != lo and colors[first] != hi):
            raise _misfit(colors, edges, pair, index)
        # the walk arrives by an edge of one color (there[v]) and leaves by the other (here[v])
        here, there = (rows[hi], rows[lo]) if colors[first] == lo else (rows[lo], rows[hi])
        v, met, both = heads[first], 1, lo + hi
        while True:
            nxt = here[v]
            if nxt is None:
                raise _stale(f"cycle is not a full two-color component at vertex {v}", index)
            if nxt not in edges:
                raise _misfit(colors, edges, pair, index) or _stale(
                    f"cycle is not a full two-color component: it misses edge {nxt}", index
                )
            here[v], there[v] = there[v], nxt
            colors[nxt] = both - colors[nxt]
            if nxt == first:
                break
            v ^= tails[nxt] ^ heads[nxt]
            here, there = there, here
            met += 1
        if met != len(edges):
            raise _misfit(colors, edges, pair, index) or _stale(
                f"edge set is not a single cycle: edges lie off the cycle of edge {first}", index
            )


def kempe_switch(g: Multigraph, c: EdgeColoring, cycle: BichromaticCycle) -> EdgeColoring:
    """Transpose the cycle's two colors along it; all other edges unchanged.

    ``c`` must color exactly the edges of ``g``, legally; otherwise ColoringError.
    """
    colors = list(c._colors)
    _replay(g, c.degree, colors, [(None, cycle)])
    # the replay only exchanges the two colors of a checked pair in 1..degree
    return EdgeColoring._adopt(c.degree, colors)


def apply_sequence(g: Multigraph, c: EdgeColoring, sequence: Sequence[BichromaticCycle]) -> EdgeColoring:
    """Left-to-right replay of switches; fails on the first stale switch.

    ``c`` must color exactly the edges of ``g``, legally; otherwise ColoringError
    before the first switch.
    """
    colors = list(c._colors)
    _replay(g, c.degree, colors, enumerate(sequence))
    # the replay only exchanges the two colors of a checked pair in 1..degree
    return EdgeColoring._adopt(c.degree, colors)
