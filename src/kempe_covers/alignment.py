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
from .covering import CoveringMap, pullback_coloring
from .errors import ColoringError, GraphStructureError, RegularityError
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


def _to_residue(color: int, modulus: int) -> Residue:
    return color % modulus


def _to_color(residue: Residue, modulus: int) -> int:
    return modulus if residue == 0 else residue


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
    shared_vertices = set()
    for e in shared:
        shared_vertices.update(g.endpoints(e))
    return ColorDSplit(d, frozenset(shared), frozenset(moving), frozenset(shared_vertices))


def default_orientation(g: Multigraph) -> dict[EdgeId, tuple[VertexId, VertexId]]:
    """Each edge oriented from its smaller endpoint id to its larger."""
    return {e: tuple(sorted(g.endpoints(e))) for e in g.edge_ids()}


def alignment_data(
    g: Multigraph,
    c1: EdgeColoring,
    c2: EdgeColoring,
    orientation: Orientation | None = None,
) -> AlignmentData:
    """Anchor edges, vertex shifts, and edge offsets for the alignment cover."""
    return _alignment_data(g, c1, c2, split_color_d(g, c1, c2), orientation)


def _alignment_data(
    g: Multigraph,
    c1: EdgeColoring,
    c2: EdgeColoring,
    split: ColorDSplit,
    orientation: Orientation | None,
) -> AlignmentData:
    """:func:`alignment_data` from a split of proved inputs; a given orientation is still checked."""
    d = split.degree
    if d < 2:
        raise RegularityError("alignment needs degree at least 2 (no residues mod 0)")
    modulus = d - 1

    anchor: dict[VertexId, EdgeId] = {}
    for e in c2.color_class(d):
        for v in g.endpoints(e):
            anchor[v] = e

    shift = {
        v: 0 if v in split.shared_vertices else _to_residue(c1[anchor[v]], modulus)
        for v in g.vertices()
    }

    if orientation is None:
        oriented = default_orientation(g)
    else:
        oriented = {}
        for e in g.edge_ids():
            if e not in orientation:
                raise GraphStructureError(f"orientation missing edge {e}")
            origin, terminus = orientation[e]
            if {origin, terminus} != set(g.endpoints(e)):
                raise GraphStructureError(f"orientation of edge {e} does not match its endpoints")
            oriented[e] = (origin, terminus)

    offset = {}
    for e in g.edge_ids():
        if c1[e] == d:
            offset[e] = 0
        else:
            origin, terminus = oriented[e]
            offset[e] = (shift[origin] - shift[terminus]) % modulus
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
    return _build_alignment_cover(g, c1, alignment_data(g, c1, c2, orientation))


def _build_alignment_cover(
    g: Multigraph, c1: EdgeColoring, data: AlignmentData
) -> tuple[CoveringMap, EdgeColoring]:
    """:func:`build_alignment_cover` from the data of proved inputs."""
    d = c1.degree
    modulus = data.modulus

    def sheet_vertex(v: VertexId, i: Residue) -> VertexId:
        return v * modulus + i

    pairs: dict[EdgeId, tuple[VertexId, VertexId]] = {}
    emap: dict[EdgeId, EdgeId] = {}
    colors: dict[EdgeId, int] = {}
    next_id = 0
    for e in g.edge_ids():
        u, w = g.endpoints(e)
        ref = min(u, w)
        origin, terminus = data.orientation[e]
        for label in range(modulus):
            # sheet of this copy at each endpoint: terminus carries the raw
            # index, origin carries index + offset; re-express both through
            # the sheet at the reference (smaller-id) endpoint
            if ref == terminus:
                at_terminus = label
            else:
                at_terminus = (label - data.offset[e]) % modulus
            at_origin = (at_terminus + data.offset[e]) % modulus
            sheet_of = {terminus: at_terminus, origin: at_origin}
            pairs[next_id] = (sheet_vertex(u, sheet_of[u]), sheet_vertex(w, sheet_of[w]))
            emap[next_id] = e
            if c1[e] == d:
                colors[next_id] = d
            else:
                residue = (at_terminus - data.shift[terminus] + _to_residue(c1[e], modulus)) % modulus
                colors[next_id] = _to_color(residue, modulus)
            next_id += 1

    cover_graph = Multigraph(g.vertex_count * modulus, pairs)
    p = CoveringMap(
        cover_graph,
        g,
        tuple(v // modulus for v in cover_graph.vertices()),
        emap,
    )
    return p, EdgeColoring(d, colors)


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


def align_color(
    g: Multigraph,
    c1: EdgeColoring,
    c2: EdgeColoring,
    orientation: Orientation | None = None,
) -> AlignColorResult:
    """Build the alignment cover and switch the lifted moving cycles.

    The moving edges' preimage decomposes into bi-chromatic cycles of the
    shifted coloring (one per sheet per moving cycle); switching them all
    makes the top-color class agree with the c2 pull-back, edge for edge.
    """
    return _align_color(g, c1, c2, split_color_d(g, c1, c2), orientation)


def _align_color(
    g: Multigraph,
    c1: EdgeColoring,
    c2: EdgeColoring,
    split: ColorDSplit,
    orientation: Orientation | None = None,
) -> AlignColorResult:
    """:func:`align_color` from the split of proved inputs; the recursion enters here."""
    p, shifted = _build_alignment_cover(g, c1, _alignment_data(g, c1, c2, split, orientation))
    d = split.degree
    member = [e for e in p.source.edge_ids() if p.edge_image(e) in split.moving]
    switches = []
    for edges in _cycle_decomposition(p.source, member):
        cycle_colors = sorted({shifted[f] for f in edges})
        if len(cycle_colors) != 2:
            raise ColoringError("lifted moving cycle is not bi-chromatic")
        switches.append(BichromaticCycle((cycle_colors[0], cycle_colors[1]), edges))

    aligned = apply_sequence(p.source, shifted, switches)
    if aligned.color_class(d) != pullback_coloring(p, c2).color_class(d):
        raise ColoringError("alignment failed to reproduce the target top-color class")
    return AlignColorResult(p, shifted, tuple(switches), aligned)
