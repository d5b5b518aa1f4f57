"""Covering maps between multigraphs.

A graph map ``p`` from a cover onto a base is a covering when it is
surjective and restricts, at every cover vertex, to a bijection between the
edges there and the edges at the image vertex. Covers of d-regular graphs
are d-regular, and a legal base coloring pulls back to a legal cover
coloring.

Every covering map is numbered sheet by sheet, in its base's own id space:
in a cover of degree m, vertex (v, k) has id v*m + k and edge (e, k) has id
e*m + k, for k in 0..m-1. Its projection is then x // m on vertices and on
edges. Every cover the package builds also numbers each edge by its sheet
at the base row's first end: row e*m + k of e = (u, w) runs from u*m + k to
w*m + pi_e(k), so the cover is one permutation pi_e per base edge, a
permutation voltage graph (J. L. Gross and T. W. Tucker, "Generating all
graph coverings by permutation voltage assignments", Discrete Math. 18,
1977). Any covering of constant degree m can be renumbered so. A
:class:`CoveringMap` is therefore its source, its target and m; its public
constructor takes maps from outside only when they are x // m. This module
lifts switch sequences through such covers, replaying each unless the
caller has, composes them, copies a graph and extends a spanning
subgraph's cover to the full graph, all by that division. Through a cover
of degree 1 each switch is its own lift, and through the identity each
coloring pulls back as itself. Its functions trust their input coverings
and do not re-check what they build.
The type gives total maps, vertex images in the target and constant,
non-empty fibers; :func:`verify_covering` checks the rest of the axioms.
Its incidence half is also the first step of ``equivalence.verify_witness``,
which gets the rest from an edge count and a pulled-back coloring's fill.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import floordiv, ne
from typing import Mapping, Sequence

from .coloring import (
    BichromaticCycle,
    EdgeColoring,
    SwitchSequence,
    _cycle_decomposition,
    _replay,
)
from .errors import ColoringError, CoveringError, GraphStructureError, UnknownEdgeError
from .graph import EdgeId, Multigraph, VertexId, _degrees


@dataclass(frozen=True)
class Verdict:
    """Boolean check result with a first-violation diagnostic."""

    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


class CoveringMap:
    """The projection x // m of a cover numbered sheet by sheet onto its base.

    The constructor raises CoveringError, naming the first entry at fault,
    unless ``vertex_map`` is x // m on ``source``, where m >= 1 and
    m * |V(target)| = |V(source)|, and ``edge_map``, a sequence or a mapping,
    is f // m on its edges. A sequence's first fault is found in one scan
    against x // m: the first index where they differ, else the shorter
    one's length. A mapping's is found from its keys: the smallest id that
    is missing, foreign or mapped elsewhere. It does not check incidence or
    local bijection; run :func:`verify_covering` for those.
    """

    __slots__ = ("source", "target", "degree")

    def __init__(
        self,
        source: Multigraph,
        target: Multigraph,
        vertex_map: Sequence[VertexId],
        edge_map: Sequence[EdgeId] | Mapping[EdgeId, EdgeId],
    ):
        size, n = source.vertex_count, target.vertex_count
        m = size // n if n else 0
        if m < 1 or m * n != size:
            raise CoveringError(f"cover has {size} vertices, not m >= 1 times the target's {n}")
        for kind, given, count in (("vertex", vertex_map, size), ("edge", edge_map, source.edge_count)):
            want = _repeat_each(list(range(-(-count // m))), m)[:count]  # x // m for x in 0..count-1
            if isinstance(given, Mapping):  # the smallest id that is missing, foreign or mapped elsewhere
                given, want = dict(given), dict(enumerate(want))
                if given == want:
                    continue
                x = min(given.keys() ^ want.keys() | {x for x in want.keys() & given.keys() if given[x] != want[x]})
                ids = given.keys()
            elif list(given) == want:
                continue
            else:  # the first index where the lists differ, else the shorter list's length
                given = list(given)
                x = next(compress(range(count), map(ne, given, want)), min(len(given), count))
                ids = range(len(given))
            if x not in range(count):
                raise CoveringError(f"{kind} map names {kind} {x}, not a source {kind}")
            if x not in ids:
                raise CoveringError(f"{kind} {x} has no image")
            raise CoveringError(f"{kind} {x} maps to {given[x]}, not to {x} // {m} = {want[x]}")
        self.source, self.target, self.degree = source, target, m

    @classmethod
    def _sheeted(cls, source: Multigraph, target: Multigraph, m: int) -> "CoveringMap":
        """The projection x // m of a cover that the caller numbered sheet by sheet."""
        p = cls.__new__(cls)
        p.source, p.target, p.degree = source, target, m
        return p

    @classmethod
    def identity(cls, g: Multigraph) -> "CoveringMap":
        return cls._sheeted(g, g, 1)

    def edge_image(self, e: EdgeId) -> EdgeId:
        if type(e) is not int or not 0 <= e < self.source.edge_count:
            raise UnknownEdgeError(f"no edge {e} in the cover")
        return e // self.degree

    # no package code calls this; it stays because perfbench/tracer.py's METHODS wraps it by name
    def vertex_fiber(self, v: VertexId) -> tuple[VertexId, ...]:
        """Source vertices over ``v``, in increasing id order."""
        m = self.degree
        return tuple(range(v * m, v * m + m))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoveringMap):
            return NotImplemented
        return self.source == other.source and self.target == other.target and self.degree == other.degree

    def __repr__(self) -> str:
        return f"CoveringMap({self.source!r} -> {self.target!r})"


def _repeat_each(values: list, m: int) -> list:
    """Each value m times in a row: the value of x // m at x, for x in ``0..m*len(values)-1``."""
    out = values * m
    for k in range(m):
        out[k::m] = values
    return out


def _verify_incidence(p: CoveringMap) -> Verdict:
    """The first half of :func:`verify_covering`: each edge f runs over f // m, between the images of its ends."""
    m, src, tgt = p.degree, p.source, p.target
    inside = min(src.edge_count, m * tgt.edge_count)  # the rows f with an image f // m in the target
    images = [list(map(floordiv, ends[:inside], repeat(m))) for ends in (src._tails, src._heads)]
    rows = [_repeat_each(ends, m)[:inside] for ends in (tgt._tails, tgt._heads)]
    if images != rows:
        for f, x, y, a, b in zip(range(inside), *images, *rows):
            if not (x == a and y == b or x == b and y == a):
                return Verdict(False, f"edge {f} does not preserve incidence")
    if inside < src.edge_count:
        return Verdict(False, f"edge {inside} maps outside the target")
    return Verdict(True)


def verify_covering(p: CoveringMap) -> Verdict:
    """Check incidence, edge surjectivity and local bijection; the type gives the rest.

    Images that keep incidence put v's edges over edges at v // m. So v's
    edges map one to one onto the edges at v // m exactly when the
    (end vertex, image edge) pairs at v are deg(v) distinct ones and
    deg(v) = deg(v // m). The first source vertex where two edges share
    an image or the degrees differ is named.
    """
    verdict = _verify_incidence(p)
    if not verdict:
        return verdict
    m, src = p.degree, p.source
    # the images f // m of the rows 0..E-1 are the ids 0..ceil(E / m)-1
    if -(-src.edge_count // m) != p.target.edge_count:
        return Verdict(False, "edge map is not surjective")
    images = list(map(floordiv, range(src.edge_count), repeat(m)))
    pairs = set(zip(src._tails, images))
    pairs.update(zip(src._heads, images))
    distinct, degree, tgt_degree = [0] * p.source.vertex_count, _degrees(p.source), _degrees(p.target)
    for v, _ in pairs:
        distinct[v] += 1
    for v, count in enumerate(distinct):
        if count != degree[v]:
            return Verdict(False, f"local bijection fails at source vertex {v} (collision)")
        if count != tgt_degree[v // m]:
            return Verdict(False, f"local bijection fails at source vertex {v}")
    return Verdict(True)


def pullback_coloring(p: CoveringMap, c: EdgeColoring) -> EdgeColoring:
    """Pull ``c`` back through the covering ``p``: each color repeats m times, for the sheets of its edge.

    A legal ``c`` pulls back legal; through a cover whose source is its
    target, the identity, it pulls back as ``c`` itself. ``p`` is not
    re-checked; run :func:`verify_covering` on untrusted maps.
    """
    if p.source is p.target:
        return c
    m, size = p.degree, p.source.edge_count
    if m * len(c._colors) < size:
        raise ColoringError(f"edge {len(c._colors)} is not colored")
    # every color is one of c's, already in 1..degree
    return EdgeColoring._adopt(c.degree, _repeat_each(c._colors, m)[:size])


def lift_sequence(p: CoveringMap, c: EdgeColoring, sequence: Sequence[BichromaticCycle]) -> SwitchSequence:
    """Lift a replayable sequence switch by switch, each to the components of its preimage.

    The sequence is read once and replayed once from ``c``, so a stale switch names its
    position. The components of one switch are disjoint and bi-chromatic for the pull-back,
    so flipping them all, in any order, equals pulling back the flipped base coloring."""
    sequence = tuple(sequence)
    _replay(p.target, c.degree, list(c._colors), enumerate(sequence))
    return _lift(p, sequence)


def _lift(p: CoveringMap, sequence: SwitchSequence) -> SwitchSequence:
    """:func:`lift_sequence` of a sequence already replayed on ``p.target``; the recursion enters here.

    The fiber of base edge e is the range e*m .. e*m + m-1. At m = 1 a fiber is its edge alone,
    so each switch is its own lift and the sequence is returned as it is."""
    if p.degree == 1:
        return tuple(sequence)
    m, source = p.degree, p.source
    out: list[BichromaticCycle] = []
    for cycle in sequence:
        member = [f for e in cycle.edge_ids for f in range(e * m, e * m + m)]
        out.extend(BichromaticCycle(cycle.colors, edges) for edges in _cycle_decomposition(source, member))
    return tuple(out)


def compose(p: CoveringMap, q: CoveringMap) -> CoveringMap:
    """The covering ``p`` after ``q`` (q's target must be p's source).

    The composite is sheet-numbered with the product of the degrees:
    (v*m_p + k)*m_q + j = v*m_p*m_q + (k*m_q + j), and the same for edges.
    ``p`` and ``q`` must be coverings; they are not re-checked.
    """
    if q.target != p.source:
        raise CoveringError("cannot compose: middle graphs differ")
    return CoveringMap._sheeted(q.source, p.target, p.degree * q.degree)


def copies_cover(g: Multigraph, m: int) -> CoveringMap:
    """The projection of ``m`` disjoint copies of ``g`` onto ``g``: a covering of degree ``m``.

    Copy k is sheet k: copy k of vertex v is v*m + k, and copy k of the
    edge e = (u, w) is row e*m + k, from u*m + k to w*m + k.
    """
    if type(m) is not int or m < 1:  # bools are not integers here
        raise GraphStructureError(f"need at least one copy, got {m!r}")
    # copies of g's rows: in range and loop-free
    tails = [u * m + k for u in g._tails for k in range(m)]
    heads = [w * m + k for w in g._heads for k in range(m)]
    return CoveringMap._sheeted(Multigraph._adopt(g.vertex_count * m, tails, heads), g, m)


def extend_subgraph_cover(g: Multigraph, edges: Sequence[EdgeId], p: CoveringMap) -> CoveringMap:
    """Extend a cover of a spanning subgraph to a cover of ``g``.

    ``p``, a covering of degree m of ``spanning_subgraph(g, edges)`` for
    ascending ``edges``, is not re-checked (run :func:`verify_covering` on
    untrusted maps). Rows e*m + k of the result are p's rows i*m + k for
    e = edges[i], and each other edge e = (u, w) of ``g`` lifts to the m
    edges e*m + k from u*m + k to w*m + k, as in :func:`copies_cover`.
    """
    h, edges = p.target, list(edges)
    # ascending ids of edges of g, whose rows there are h's
    known = edges == sorted(set(edges)) and (not edges or 0 <= edges[0] and edges[-1] < g.edge_count)
    if not known or (h._n, h._tails, h._heads) != (g._n, [g._tails[e] for e in edges], [g._heads[e] for e in edges]):
        raise CoveringError("cover does not map onto the given subgraph")
    m, source = p.degree, p.source
    # each edge of h takes its m rows from p's source, and every other edge lifts sheet by sheet
    rows = dict(zip(edges, range(0, len(edges) * m, m)))
    tails: list[VertexId] = []
    heads: list[VertexId] = []
    for e, (u, w) in enumerate(zip(g._tails, g._heads)):
        f = rows.get(e)
        if f is None:
            tails.extend(range(u * m, u * m + m))
            heads.extend(range(w * m, w * m + m))
        else:
            tails.extend(source._tails[f : f + m])
            heads.extend(source._heads[f : f + m])
    # a lift joins the fibers of two distinct vertices of g
    return CoveringMap._sheeted(Multigraph._adopt(source.vertex_count, tails, heads), g, m)
