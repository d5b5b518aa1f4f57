"""The explicit cover that aligns the top color of two legal colorings.

Fix two legal colorings ``c1``, ``c2`` of a d-regular graph and look at
their color-d classes (two perfect matchings). Edges colored d by both form
a partial matching (the *shared* part); edges colored d by exactly one of
the two form disjoint even cycles (the *moving* part), alternating between
c1's and c2's d-edges. Every vertex meets either one shared edge or exactly
two moving edges.

The alignment cover has d-1 sheets indexed by residues modulo d-1. Write
``shift(v)`` for the residue of c1's color on the unique c2-d-edge at v
(zero at shared vertices) and give every edge an offset
``offset(e) = shift(origin) - shift(terminus)`` (zero on d-edges of c1),
for an arbitrary per-edge orientation. The copy of edge e on sheet i runs
from (terminus, i) to (origin, i + offset(e)), and it is colored d when
c1(e) = d and ``i - shift(terminus) + c1(e)`` (in residues) otherwise. The
offsets cancel around moving cycles, so each moving cycle lifts to d-1
disjoint cycles, one per sheet, and the sheet-i lift is bi-chromatic for
the cover coloring with pair (color(i), d). Switching all of them yields a
coloring whose color-d class equals the c2 pull-back's, which is the whole
point: one color has been aligned at the price of a degree-(d-1) cover.

Although the offsets depend on the chosen orientation, the constructed
cover and coloring do not: reversing an edge negates its offset, which
relabels the sheets of its copies but leaves every (endpoint-sheet,
endpoint-sheet, color) triple untouched. Copies are therefore keyed by the
sheet at the edge's smaller-id endpoint, making the output literally equal
for any two orientation choices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .coloring import (
    BichromaticCycle,
    EdgeColoring,
    SwitchSequence,
    _cycle_decomposition,
    apply_sequence,
    common_degree,
)
from .covering import CoveringMap
from .errors import GraphStructureError, RegularityError
from .graph import EdgeId, Multigraph, VertexId

Residue = int
#: edge id -> (origin vertex, terminus vertex)
Orientation = Mapping[EdgeId, tuple[VertexId, VertexId]]


@dataclass(frozen=True)
class ColorDSplit:
    """Partition of the two colorings' top-color classes.

    ``shared`` holds the edges colored d by both colorings, ``moving`` the
    edges colored d by exactly one. ``shared_vertices`` are the endpoints of
    shared edges; all other vertices meet exactly two moving edges.
    """

    degree: int
    shared: frozenset[EdgeId]
    moving: frozenset[EdgeId]
    shared_vertices: frozenset[VertexId]


@dataclass(frozen=True)
class AlignmentData:
    """Sheet bookkeeping for the alignment cover.

    ``anchor[v]`` is the unique c2-top-color edge at v; ``shift[v]`` its
    c1-color as a residue (0 at shared vertices); ``offset[e]`` the sheet
    displacement across e for the stored orientation. ``modulus`` is d-1.
    """

    modulus: int
    anchor: dict[VertexId, EdgeId]
    shift: dict[VertexId, Residue]
    offset: dict[EdgeId, Residue]
    orientation: dict[EdgeId, tuple[VertexId, VertexId]]


def split_color_d(g: Multigraph, c1: EdgeColoring, c2: EdgeColoring) -> ColorDSplit:
    """Split the two top-color classes into shared edges and moving cycles.

    Validates the inputs; the structure then holds because both classes are
    perfect matchings.
    """
    return _split_color_d(g, c1, c2, common_degree(g, c1, c2))


def _split_color_d(g: Multigraph, c1: EdgeColoring, c2: EdgeColoring, d: int) -> ColorDSplit:
    """:func:`split_color_d` on inputs the caller has proved: ``g`` d-regular, both legal."""
    class1 = c1.color_class(d)
    class2 = c2.color_class(d)
    shared = class1 & class2
    moving = (class1 | class2) - shared
    table = g._edges
    shared_vertices = {v for e in shared for v in table[e]}
    return ColorDSplit(d, frozenset(shared), frozenset(moving), frozenset(shared_vertices))


def default_orientation(g: Multigraph) -> dict[EdgeId, tuple[VertexId, VertexId]]:
    """Each edge oriented from its smaller endpoint id to its larger."""
    return {e: (u, w) if u < w else (w, u) for e, (u, w) in g._edges.items()}


def alignment_data(g: Multigraph, c1: EdgeColoring, c2: EdgeColoring) -> AlignmentData:
    """Anchor edges, vertex shifts, and edge offsets for the alignment cover."""
    return _alignment_data(g, c1, c2, split_color_d(g, c1, c2))


def _alignment_data(
    g: Multigraph,
    c1: EdgeColoring,
    c2: EdgeColoring,
    split: ColorDSplit,
    orientation: Orientation | None = None,
) -> AlignmentData:
    """:func:`alignment_data` from a split of proved inputs; a given orientation is still checked."""
    d = split.degree
    if d < 2:
        raise RegularityError("alignment needs degree at least 2 (no residues mod 0)")
    modulus = d - 1

    table, colors1 = g._edges, c1._colors
    anchor = {v: e for e in c2.color_class(d) for v in table[e]}
    shift = {
        v: 0 if v in split.shared_vertices else colors1[anchor[v]] % modulus
        for v in range(g.vertex_count)
    }

    if orientation is None:
        oriented = default_orientation(g)
    else:
        oriented = {}
        for e, ends in table.items():
            if e not in orientation:
                raise GraphStructureError(f"orientation missing edge {e}")
            origin, terminus = orientation[e]
            if {origin, terminus} != set(ends):
                raise GraphStructureError(f"orientation of edge {e} does not match its endpoints")
            oriented[e] = (origin, terminus)

    offset = {}
    for e, (origin, terminus) in oriented.items():
        offset[e] = 0 if colors1[e] == d else (shift[origin] - shift[terminus]) % modulus
    return AlignmentData(modulus, anchor, shift, offset, oriented)


def build_alignment_cover(
    g: Multigraph,
    c1: EdgeColoring,
    c2: EdgeColoring,
    orientation: Orientation | None = None,
) -> tuple[CoveringMap, EdgeColoring]:
    """The degree-(d-1) cover and its shifted coloring.

    Cover vertex ``v*(d-1) + i`` is vertex v on sheet i. Copies of an edge
    are keyed by the sheet at the smaller-id endpoint, so the output is the
    same graph, map, and coloring for every orientation choice. The inputs
    are validated; the cover and the shifted coloring are legal by
    construction and are not re-checked.
    """
    data = _alignment_data(g, c1, c2, split_color_d(g, c1, c2), orientation)
    return _build_alignment_cover(g, c1, data)


def _build_alignment_cover(
    g: Multigraph, c1: EdgeColoring, data: AlignmentData
) -> tuple[CoveringMap, EdgeColoring]:
    """:func:`build_alignment_cover` from the data of proved inputs."""
    d = c1.degree
    modulus = data.modulus
    pairs: dict[EdgeId, tuple[VertexId, VertexId]] = {}
    emap: dict[EdgeId, EdgeId] = {}
    colors: dict[EdgeId, int] = {}
    for e, (u, w) in g._edges.items():
        origin, terminus = data.orientation[e]
        offset, color = data.offset[e], c1._colors[e]
        keyed_at_terminus = min(u, w) == terminus
        lifts = range(len(pairs), len(pairs) + modulus)
        for label, f in zip(range(modulus), lifts):
            # sheet of this copy at each endpoint: terminus carries the raw
            # index, origin carries index + offset; re-express both through
            # the sheet at the reference (smaller-id) endpoint
            at_terminus = label if keyed_at_terminus else (label - offset) % modulus
            at_origin = (at_terminus + offset) % modulus
            if u == terminus:
                pairs[f] = (u * modulus + at_terminus, w * modulus + at_origin)
            else:
                pairs[f] = (u * modulus + at_origin, w * modulus + at_terminus)
            if color == d:
                colors[f] = d
            else:  # the residue as a color: 0 stands for the color modulus
                colors[f] = (at_terminus - data.shift[terminus] + color) % modulus or modulus
        emap.update(dict.fromkeys(lifts, e))

    # ids count up from 0; the copy of (u, w) joins sheets of u and of w != u
    cover_graph = Multigraph._adopt(g.vertex_count * modulus, pairs)
    p = CoveringMap(
        cover_graph,
        g,
        [v // modulus for v in range(cover_graph.vertex_count)],
        emap,
    )
    # each color is d, or a residue mod d-1 read as a color in 1..d-1
    return p, EdgeColoring._adopt(d, colors)


@dataclass(frozen=True)
class AlignColorResult:
    """Alignment cover plus the switches that align the top color.

    ``switches`` replays from ``start_coloring`` (the shifted coloring of
    the cover) to ``aligned_coloring``, whose top-color class equals the
    c2 pull-back's.
    """

    cover: CoveringMap
    start_coloring: EdgeColoring
    switches: SwitchSequence
    aligned_coloring: EdgeColoring


def align_color(g: Multigraph, c1: EdgeColoring, c2: EdgeColoring) -> AlignColorResult:
    """Build the alignment cover and switch the lifted moving cycles.

    The moving edges' preimage decomposes into bi-chromatic cycles of the
    shifted coloring (one per sheet per moving cycle); switching them all
    makes the top-color class agree with the c2 pull-back, edge for edge.
    The inputs are checked; the result follows from the lemma in the module
    docstring and is not checked again.
    """
    return _align_color(g, c1, c2, split_color_d(g, c1, c2))


def _align_color(g: Multigraph, c1: EdgeColoring, c2: EdgeColoring, split: ColorDSplit) -> AlignColorResult:
    """:func:`align_color` from the split of proved inputs; the recursion enters here.

    Each lifted moving cycle gets the pair (its smallest color, d), and the
    replay rejects one that is not a whole alternating component of that
    pair. That they align the top color follows from the lemma, unchecked.
    """
    p, shifted = _build_alignment_cover(g, c1, _alignment_data(g, c1, c2, split))
    d, colors = split.degree, shifted._colors
    member = [e for e, image in p._emap.items() if image in split.moving]
    switches = tuple(
        BichromaticCycle((min(map(colors.__getitem__, edges)), d), edges)
        for edges in _cycle_decomposition(p.source, member)
    )
    return AlignColorResult(p, shifted, switches, apply_sequence(p.source, shifted, switches))
