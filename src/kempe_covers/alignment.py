"""The explicit cover that aligns the top color of two legal colorings.

Fix two legal colorings ``c1``, ``c2`` of a d-regular graph and look at
their color-d classes (two perfect matchings). Edges colored d by both form
a partial matching (the *shared* part); edges colored d by exactly one of
the two form disjoint even cycles (the *moving* part), alternating between
c1's and c2's d-edges. Every vertex meets either one shared edge or exactly
two moving edges.

The alignment cover has d-1 sheets indexed by residues modulo d-1. Write
``shift(v)`` for the residue of c1's color on the unique c2-d-edge at v
(zero at shared vertices). Copy k of an edge e stored as (u, w) runs
from (u, k) to (w, k + shift(w) - shift(u)), or to (w, k) when c1(e) = d;
it is colored d when c1(e) = d and ``k - shift(u) + c1(e)`` (a residue, 0
read as d-1) otherwise. Both ends of a moving edge have one shift, so each
moving cycle lifts to d-1 disjoint cycles, one per sheet, and the sheet-k
lift is bi-chromatic for the cover coloring with pair (k, d), k = 0 read
as d-1. Switching all of them yields a coloring whose color-d class equals
the c2 pull-back's, which is the whole point: one color has been aligned
at the price of a degree-(d-1) cover.

These are the sheets of a cyclic-shift voltage for any per-edge
orientation. Give each edge the offset ``shift(origin) - shift(terminus)``
(zero on d-edges of c1) and run its copy on sheet i from (terminus, i) to
(origin, i + offset), colored ``i - shift(terminus) + c1(e)``. Reversing
an edge negates its offset, which relabels the sheets of its copies but
leaves every (endpoint-sheet, endpoint-sheet, color) triple untouched. So
every orientation gives the copies above, numbered by their sheet at the
edge's first stored endpoint, as every built cover is (see ``covering``),
and the cover is built from the shifts alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Mapping

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
    displacement across e for :func:`default_orientation`. ``modulus`` is
    d-1. The cover is built from ``shift`` alone: any orientation's offsets
    give the same sheets (see the module docstring).
    """

    modulus: int
    anchor: dict[VertexId, EdgeId]
    shift: dict[VertexId, Residue]
    offset: dict[EdgeId, Residue]


def split_color_d(g: Multigraph, c1: EdgeColoring, c2: EdgeColoring) -> ColorDSplit:
    """Split the two top-color classes into shared edges and moving cycles.

    Validates the inputs; the structure then holds because both classes are
    perfect matchings.
    """
    d = common_degree(g, c1, c2)
    class1, class2 = c1.color_class(d), c2.color_class(d)
    shared = class1 & class2
    shared_vertices = frozenset([g._tails[e] for e in shared] + [g._heads[e] for e in shared])
    return ColorDSplit(d, shared, class1 ^ class2, shared_vertices)


def default_orientation(g: Multigraph) -> dict[EdgeId, tuple[VertexId, VertexId]]:
    """Each edge oriented from its smaller endpoint id to its larger."""
    return {e: (u, w) if u < w else (w, u) for e, (u, w) in enumerate(zip(g._tails, g._heads))}


def alignment_data(g: Multigraph, c1: EdgeColoring, c2: EdgeColoring) -> AlignmentData:
    """Anchor edges, vertex shifts, and the default orientation's edge offsets."""
    split = split_color_d(g, c1, c2)
    d = split.degree
    shift = _shifts(g, c1, split.moving, d)
    colors1, modulus = c1._colors, d - 1
    anchor = {v: e for e in c2.color_class(d) for v in (g._tails[e], g._heads[e])}
    offset = {
        e: 0 if colors1[e] == d else (shift[origin] - shift[terminus]) % modulus
        for e, (origin, terminus) in default_orientation(g).items()
    }
    return AlignmentData(modulus, anchor, dict(enumerate(shift)), offset)


def _shifts(g: Multigraph, c1: EdgeColoring, moving: Iterable[EdgeId], d: int) -> list[Residue]:
    """The shift of each vertex of ``g`` from proved inputs and their ``moving`` edges:
    the residue of c1's color on the c2-top-color edge at v, 0 where that edge is
    shared. Elsewhere that edge is the moving edge at v that c1 does not color d."""
    if d < 2:
        raise RegularityError("alignment needs degree at least 2 (no residues mod 0)")
    colors1 = c1._colors
    shift = [0] * g.vertex_count
    for e in moving:
        if colors1[e] != d:
            shift[g._tails[e]] = shift[g._heads[e]] = colors1[e] % (d - 1)
    return shift


def build_alignment_cover(
    g: Multigraph,
    c1: EdgeColoring,
    c2: EdgeColoring,
    orientation: Orientation | None = None,
) -> tuple[CoveringMap, EdgeColoring]:
    """The degree-(d-1) cover and its shifted coloring.

    Cover vertex ``v*(d-1) + k`` is vertex v on sheet k, and cover edge
    ``e*(d-1) + k`` is copy k of the base edge e, which leaves e's first
    stored endpoint on sheet k (see the module docstring). A given
    ``orientation`` must pair each edge's two endpoints; its offsets give
    these same sheets, so the output is one graph, map and coloring for
    every orientation. The inputs are validated; the cover and the shifted
    coloring are legal by construction and are not re-checked.
    """
    split = split_color_d(g, c1, c2)
    shift = _shifts(g, c1, split.moving, split.degree)
    if orientation is not None:
        for e, ends in enumerate(zip(g._tails, g._heads)):
            if e not in orientation:
                raise GraphStructureError(f"orientation missing edge {e}")
            try:
                origin, terminus = orientation[e]
                matches = {origin, terminus} == set(ends)
            except (TypeError, ValueError):  # not a pair of vertex ids
                matches = False
            if not matches:
                raise GraphStructureError(f"orientation of edge {e} does not match its endpoints")
    return _build_alignment_cover(g, c1, shift)


def _build_alignment_cover(
    g: Multigraph, c1: EdgeColoring, shift: list[Residue]
) -> tuple[CoveringMap, EdgeColoring]:
    """:func:`build_alignment_cover` from the vertex shifts of proved inputs."""
    d, modulus = c1.degree, c1.degree - 1
    tails: list[VertexId] = []
    heads: list[VertexId] = []
    colors: list[int] = []
    for u, w, color in zip(g._tails, g._heads, c1._colors):
        # copy k, row e*modulus + k, leaves u on sheet k and reaches w on sheet k + step
        step = 0 if color == d else shift[w] - shift[u]
        for k in range(modulus):
            tails.append(u * modulus + k)
            heads.append(w * modulus + (k + step) % modulus)
            # the residue as a color: 0 stands for the color modulus
            colors.append(d if color == d else (k - shift[u] + color) % modulus or modulus)

    # the copy of (u, w) joins sheets of u and of w != u
    cover_graph = Multigraph._adopt(g.vertex_count * modulus, tails, heads)
    # each color is d, or a residue mod d-1 read as a color in 1..d-1
    return CoveringMap._sheeted(cover_graph, g, modulus), EdgeColoring._adopt(d, colors)


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
    return _align_color(g, c1, split_color_d(g, c1, c2).moving)


def _align_color(g: Multigraph, c1: EdgeColoring, moving: Collection[EdgeId]) -> AlignColorResult:
    """:func:`align_color` from proved inputs and their ``moving`` edges; the recursion enters here.

    Both ends of a moving edge sit on one sheet, so each moving cycle of the
    base lifts to its d-1 sheet copies, and the lemma gives the copy on
    sheet k the pair (k, d), k = 0 read as d-1. The switches go in base
    cycle order, then by sheet: the cover's smallest-id order. The replay
    rejects one that is not a whole alternating component of its pair.
    That they align the top color follows from the lemma, unchecked.
    """
    d = c1.degree
    modulus = d - 1
    p, shifted = _build_alignment_cover(g, c1, _shifts(g, c1, moving, d))
    switches = tuple(
        BichromaticCycle((k or modulus, d), tuple(e * modulus + k for e in cycle))
        for cycle in _cycle_decomposition(g, moving)
        for k in range(modulus)
    )
    return AlignColorResult(p, shifted, switches, apply_sequence(p.source, shifted, switches))
