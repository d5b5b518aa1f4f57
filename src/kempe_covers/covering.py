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
constructor takes maps from outside only when they are x // m, and names
the first entry that is not. This module lifts switch
sequences through such covers, replaying each unless the caller has,
composes them, copies a graph and extends a spanning subgraph's cover to
the full graph, all by that division. A cover of degree 1 costs nothing:
each switch is its own lift, and the trivial cover of a spanning subgraph
extends to the identity of the full graph; :func:`lift_sequence` still
replays its sequence. Its functions trust their input coverings and do
not re-check what they build. The type gives total maps, vertex images in
the target and constant, non-empty fibers; :func:`verify_covering` checks
the rest of the axioms. Its incidence half is also the first step of
``equivalence.verify_witness``, which gets the rest from an edge count and
the legality of a pulled-back coloring.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Mapping, Sequence

from .coloring import (
    BichromaticCycle,
    EdgeColoring,
    SwitchSequence,
    _cycle_decomposition,
    _replay,
)
from .errors import CoveringError, GraphStructureError, UnknownEdgeError
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

    The constructor checks maps from outside: it raises CoveringError
    unless ``vertex_map`` is total on ``source`` and equal to x // m, where
    m >= 1 and m * |V(target)| = |V(source)|, and ``edge_map`` has exactly
    the source's edge ids as keys, each with the image f // m. It does not
    check incidence or local bijection; run :func:`verify_covering` for
    those (tests build broken maps on purpose).
    """

    __slots__ = ("source", "target", "degree")

    def __init__(
        self,
        source: Multigraph,
        target: Multigraph,
        vertex_map: Sequence[VertexId],
        edge_map: Mapping[EdgeId, EdgeId],
    ):
        size, n = source.vertex_count, target.vertex_count
        m = size // n if n else 0
        if m < 1 or m * n != size:
            raise CoveringError(f"cover has {size} vertices, not m >= 1 times the target's {n}")
        for kind, given, want in (
            ("vertex", dict(enumerate(vertex_map)), {x: x // m for x in range(size)}),
            ("edge", dict(edge_map), {f: f // m for f in source._edges}),
        ):
            if given != want:  # name the smallest id that is missing, foreign or mapped elsewhere
                x = min(given.keys() ^ want.keys() | {x for x in want.keys() & given.keys() if given[x] != want[x]})
                if x not in want:
                    raise CoveringError(f"{kind} map names {kind} {x}, not a source {kind}")
                if x not in given:
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
        if e not in self.source._edges:
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


def _verify_incidence(p: CoveringMap) -> Verdict:
    """The first half of :func:`verify_covering`: each edge f runs over f // m, between the images of its ends."""
    m, tgt_edges = p.degree, p.target._edges
    for f, (u, w) in p.source._edges.items():
        ends = tgt_edges.get(f // m)
        if ends is None:
            return Verdict(False, f"edge {f} maps outside the target")
        x, y = u // m, w // m
        if ends != (x, y) and ends != (y, x):
            return Verdict(False, f"edge {f} does not preserve incidence")
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
    m, src_edges = p.degree, p.source._edges
    images = [f // m for f in src_edges]
    if len(set(images)) != p.target.edge_count:
        return Verdict(False, "edge map is not surjective")
    pairs = set(zip([u for u, _ in src_edges.values()], images))
    pairs.update(zip([w for _, w in src_edges.values()], images))
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
    """Pull ``c`` back through the covering ``p``: cover edge f gets the color of f // m.

    A legal ``c`` pulls back legal; through a cover whose source is its
    target, the identity, it pulls back as ``c`` itself. ``p`` is not
    re-checked; run :func:`verify_covering` on untrusted maps.
    """
    if p.source is p.target:
        return c
    colors, m = c._colors, p.degree
    try:
        # every color is one of c's, already in 1..degree
        return EdgeColoring._adopt(c.degree, {f: colors[f // m] for f in p.source._edges})
    except KeyError:  # let c[...] raise its ColoringError for the first uncolored image
        for f in p.source._edges:
            c[f // m]
        raise


def lift_sequence(p: CoveringMap, c: EdgeColoring, sequence: Sequence[BichromaticCycle]) -> SwitchSequence:
    """Lift a replayable sequence switch by switch, each to the components of its preimage.

    The sequence is read once and replayed once from ``c``, so a stale switch names its
    position. The components of one switch are disjoint and bi-chromatic for the pull-back,
    so flipping them all, in any order, equals pulling back the flipped base coloring."""
    sequence = tuple(sequence)
    _replay(p.target, c.degree, dict(c._colors), enumerate(sequence))
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
    edge e = (u, w) is e*m + k, from u*m + k to w*m + k. That is the
    extension of the m copies of g's edgeless spanning subgraph.
    """
    if type(m) is not int or m < 1:  # bools are not integers here
        raise GraphStructureError(f"need at least one copy, got {m!r}")
    edgeless = Multigraph._adopt(g.vertex_count, {})
    copies = CoveringMap._sheeted(Multigraph._adopt(g.vertex_count * m, {}), edgeless, m)
    return extend_subgraph_cover(g, edgeless, copies)


def extend_subgraph_cover(g: Multigraph, h: Multigraph, p: CoveringMap) -> CoveringMap:
    """Extend a cover of a spanning subgraph to a cover of ``g``.

    ``h`` must be a spanning subgraph of ``g`` and ``p`` a covering of ``h``
    of degree ``m``; ``p`` is not re-checked (run
    :func:`verify_covering` on untrusted maps). Each edge e = (u, w) of
    ``g`` missing from ``h`` lifts to the ``m`` edges e*m + k from u*m + k
    to w*m + k, so every cover vertex gets exactly one lift of it. The
    result is sheet-numbered, restricts to ``p`` on the source of ``p``
    (ids untouched) and has the same degree. The trivial cover of ``h``,
    of degree 1 with ``h`` itself as source, extends row for row to the
    trivial cover of ``g``, which is returned with no table rebuilt; a
    degree-1 cover whose source stores rows otherwise is extended as above.
    """
    if h.vertex_count != g.vertex_count:
        raise CoveringError("subgraph is not spanning: vertex sets differ")
    g_edges, h_edges = g._edges, h._edges
    if not h_edges.items() <= g_edges.items():
        for e, ends in h_edges.items():
            if g_edges.get(e) != ends:
                raise CoveringError(f"edge {e} of the subgraph is not an edge of the full graph")
    if p.target != h:
        raise CoveringError("cover does not map onto the given subgraph")
    if p.degree == 1 and p.source == h:
        return CoveringMap.identity(g)
    m = p.degree

    # p's rows come m to an edge of h, in g's id order
    rows = iter(p.source._edges.items())
    pairs: dict[EdgeId, tuple[VertexId, VertexId]] = {}
    for e, (u, w) in g_edges.items():
        if e in h_edges:
            pairs.update(islice(rows, m))
        else:
            f, u, w = e * m, u * m, w * m
            for k in range(m):
                pairs[f + k] = (u + k, w + k)
    # ids ascend with g's; a lift joins the fibers of two distinct vertices of g
    return CoveringMap._sheeted(Multigraph._adopt(p.source.vertex_count, pairs), g, m)
