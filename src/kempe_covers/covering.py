"""Covering maps between multigraphs.

A graph map ``p`` from a cover onto a base is a covering when it is
surjective and restricts, at every cover vertex, to a bijection between the
edges there and the edges at the image vertex. Covers of d-regular graphs
are d-regular, and a legal base coloring pulls back to a legal cover
coloring.

Every cover the package builds is numbered sheet by sheet, in its base's
own id space: in a cover of degree m, vertex (v, k) has id v*m + k and edge
(e, k) has id e*m + k, for k in 0..m-1. Its projection is then x // m on
vertices and on edges, and it is a permutation voltage graph (J. L. Gross
and T. W. Tucker, "Generating all graph coverings by permutation voltage
assignments", Discrete Math. 18, 1977). This module lifts switch sequences
through such covers, replaying each unless the caller has, composes them,
copies a graph and extends a spanning subgraph's cover to the full graph,
all by that division. They refuse, with CoveringError, a map whose tables
number its cover otherwise. They trust their input coverings and do not
re-check what they build; :func:`verify_covering` checks maps of any
numbering from outside. Its incidence half (totality, ranges, incidence)
is also the first step of ``equivalence.verify_witness``, which gets the
rest of the axioms from constant fibers, an edge count and the legality of
a pulled-back coloring.

Fiber sizes are required to be constant across all base vertices, even for
disconnected bases; the equivalence construction normalizes every
intermediate cover to a uniform degree, so nothing more general is needed
and composition stays well-defined. ``CoveringMap.degree`` checks that every
vertex image lies in the target before it counts the fibers.
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
from .errors import CoveringError, GraphStructureError
from .graph import EdgeId, Multigraph, VertexId, _degrees


@dataclass(frozen=True)
class Verdict:
    """Boolean check result with a first-violation diagnostic."""

    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


class CoveringMap:
    """Vertex and edge maps from a source graph onto a target graph.

    Construction does not validate; run :func:`verify_covering` explicitly
    (tests need to build broken maps on purpose). ``degree`` checks the
    vertex map alone: every image in the target, fibers of one size m >= 1.
    A map the package builds is sheet-numbered (see the module docstring):
    it knows its degree and builds its tables only when they are read.
    Whether a map is sheet-numbered and whether its tables exist are two
    facts, kept apart, so reading the tables changes no later division.
    """

    __slots__ = ("source", "target", "_vmap", "_emap", "_degree", "_sheets")

    def __init__(
        self,
        source: Multigraph,
        target: Multigraph,
        vertex_map: Sequence[VertexId],
        edge_map: Mapping[EdgeId, EdgeId],
    ):
        self.source = source
        self.target = target
        self._vmap: tuple[VertexId, ...] | None = tuple(vertex_map)
        self._emap: dict[EdgeId, EdgeId] | None = dict(edge_map)
        self._degree: int | None = None
        self._sheets: int | None = None  # m, once the maps are known to be x // m

    @classmethod
    def _sheeted(cls, source: Multigraph, target: Multigraph, m: int) -> "CoveringMap":
        """The projection x // m of a cover that the caller numbered sheet by sheet, with no tables yet."""
        p = cls.__new__(cls)
        p.source, p.target = source, target
        p._vmap = p._emap = None
        p._degree = p._sheets = m
        return p

    @classmethod
    def identity(cls, g: Multigraph) -> "CoveringMap":
        return cls._sheeted(g, g, 1)

    def edge_image(self, e: EdgeId) -> EdgeId:
        return self._tables()[1][e]

    @property
    def vertex_map(self) -> tuple[VertexId, ...]:
        return self._tables()[0]

    @property
    def edge_map(self) -> dict[EdgeId, EdgeId]:
        return dict(self._tables()[1])

    def _tables(self) -> tuple[tuple[VertexId, ...], dict[EdgeId, EdgeId]]:
        """The vertex and edge maps themselves, for reading; a sheet-numbered map builds them on first use."""
        if self._vmap is None:
            m, source = self._sheets, self.source
            self._vmap = tuple([x // m for x in range(source.vertex_count)])
            self._emap = {f: f // m for f in source._edges}
        return self._vmap, self._emap

    def _sheet_degree(self) -> int:
        """The degree m of a sheet-numbered map; raises CoveringError on tables numbered otherwise."""
        if self._sheets is None:
            m = self.degree  # raises on an image outside the target, or on fibers not constant
            vmap, emap = self._vmap, self._emap
            if vmap != tuple([x // m for x in range(len(vmap))]) or emap != {f: f // m for f in emap}:
                raise CoveringError(f"cover is not sheet-numbered: vertex x and edge y must lie over x // {m} and y // {m}")
            self._sheets = m
        return self._sheets

    # no package code calls this; it stays because perfbench/tracer.py's METHODS wraps it by name
    def vertex_fiber(self, v: VertexId) -> tuple[VertexId, ...]:
        """Source vertices over ``v``, in increasing id order."""
        vmap = self._tables()[0]
        return tuple(w for w in self.source.vertices() if vmap[w] == v)

    @property
    def degree(self) -> int:
        """Common fiber size; raises on an image outside the target, or on fibers not constant or empty."""
        if self._degree is None:
            n = self.target.vertex_count
            sizes = [0] * n
            for v, image in enumerate(self._vmap):
                if not 0 <= image < n:
                    raise CoveringError(f"vertex {v} maps outside the target")
                sizes[image] += 1
            if len(set(sizes)) > 1:
                raise CoveringError(f"fiber sizes not constant: {sorted(set(sizes))}")
            if not any(sizes):
                raise CoveringError("fibers are empty: no source vertex maps onto the target")
            self._degree = sizes[0]
        return self._degree

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoveringMap):
            return NotImplemented
        return self.source == other.source and self.target == other.target and self._tables() == other._tables()

    def __repr__(self) -> str:
        return f"CoveringMap({self.source!r} -> {self.target!r})"


def _verify_incidence(p: CoveringMap) -> Verdict:
    """The first half of :func:`verify_covering`: totality, vertex ranges and incidence."""
    src, tgt = p.source, p.target
    vmap, emap = p._tables()
    if len(vmap) != src.vertex_count:
        return Verdict(False, "vertex map is not total on the source")
    if emap.keys() != src._edges.keys():
        return Verdict(False, "edge map does not match the source edge set")
    n, tgt_edges = tgt.vertex_count, tgt._edges
    for v, x in enumerate(vmap):
        if not 0 <= x < n:
            return Verdict(False, f"vertex {v} maps outside the target")
    for e, (u, w) in src._edges.items():
        ends = tgt_edges.get(emap[e])
        if ends is None:
            return Verdict(False, f"edge {e} maps outside the target")
        x, y = vmap[u], vmap[w]
        if ends != (x, y) and ends != (y, x):
            return Verdict(False, f"edge {e} does not preserve incidence")
    return Verdict(True)


def verify_covering(p: CoveringMap) -> Verdict:
    """Check totality, incidence, surjectivity, local bijection, constant fibers.

    Images that keep incidence put v's edges over edges at vmap[v]. So v's
    edges map one to one onto the edges at vmap[v] exactly when the
    (end vertex, image edge) pairs at v are deg(v) distinct ones and
    deg(v) = deg(vmap[v]). The first source vertex where two edges share
    an image or the degrees differ is named.
    """
    verdict = _verify_incidence(p)
    if not verdict:
        return verdict
    src, tgt = p.source, p.target
    vmap, emap = p._tables()
    src_edges, tgt_edges = src._edges, tgt._edges
    if len(set(vmap)) != tgt.vertex_count:
        return Verdict(False, "vertex map is not surjective")
    if len(set(emap.values())) != len(tgt_edges):
        return Verdict(False, "edge map is not surjective")
    images = [emap[e] for e in src_edges]
    pairs = set(zip([u for u, _ in src_edges.values()], images))
    pairs.update(zip([w for _, w in src_edges.values()], images))
    distinct, degree, tgt_degree = [0] * len(vmap), _degrees(src), _degrees(tgt)
    for v, _ in pairs:
        distinct[v] += 1
    for v, x in enumerate(vmap):
        if distinct[v] != degree[v]:
            return Verdict(False, f"local bijection fails at source vertex {v} (collision)")
        if degree[v] != tgt_degree[x]:
            return Verdict(False, f"local bijection fails at source vertex {v}")
    try:
        p.degree
    except CoveringError as exc:
        return Verdict(False, str(exc))
    return Verdict(True)


def pullback_coloring(p: CoveringMap, c: EdgeColoring) -> EdgeColoring:
    """Pull ``c`` back through the covering ``p``; a legal ``c`` pulls back legal.

    A sheet-numbered ``p`` gives cover edge f the color of f // m; any other
    reads its edge map. ``p`` is not re-checked; run :func:`verify_covering`
    on untrusted maps.
    """
    colors, m = c._colors, p._sheets
    try:
        if m is None:
            emap = p._emap
            pulled = {e: colors[emap[e]] for e in p.source._edges}
        else:
            pulled = {f: colors[f // m] for f in p.source._edges}
        # every color is one of c's, already in 1..degree
        return EdgeColoring._adopt(c.degree, pulled)
    except KeyError:  # let c[...] raise its ColoringError for the first uncolored image
        for e in p.source._edges:
            c[p.edge_image(e)]
        raise


def lift_sequence(p: CoveringMap, c: EdgeColoring, sequence: Sequence[BichromaticCycle]) -> SwitchSequence:
    """Lift a replayable sequence switch by switch, each to the components of its preimage.

    The sequence is read once and replayed once from ``c``, so a stale switch names its
    position. The components of one switch are disjoint and bi-chromatic for the pull-back,
    so flipping them all, in any order, equals pulling back the flipped base coloring.
    ``p`` must be sheet-numbered; a map numbered otherwise raises CoveringError."""
    sequence = tuple(sequence)
    _replay(p.target, c.degree, dict(c._colors), enumerate(sequence))
    return _lift(p, sequence)


def _lift(p: CoveringMap, sequence: SwitchSequence) -> SwitchSequence:
    """:func:`lift_sequence` of a sequence already replayed on ``p.target``; the recursion enters here.

    The fiber of base edge e is the range e*m .. e*m + m-1."""
    m, source = p._sheet_degree(), p.source
    out: list[BichromaticCycle] = []
    for cycle in sequence:
        member = [f for e in cycle.edge_ids for f in range(e * m, e * m + m)]
        out.extend(BichromaticCycle(cycle.colors, edges) for edges in _cycle_decomposition(source, member))
    return tuple(out)


def compose(p: CoveringMap, q: CoveringMap) -> CoveringMap:
    """The covering ``p`` after ``q`` (q's target must be p's source), both sheet-numbered.

    The composite is sheet-numbered with the product of the degrees:
    (v*m_p + k)*m_q + j = v*m_p*m_q + (k*m_q + j), and the same for edges.
    ``p`` and ``q`` must be coverings; they are not re-checked.
    """
    if q.target != p.source:
        raise CoveringError("cannot compose: middle graphs differ")
    return CoveringMap._sheeted(q.source, p.target, p._sheet_degree() * q._sheet_degree())


def copies_cover(g: Multigraph, m: int) -> CoveringMap:
    """The projection of ``m`` disjoint copies of ``g`` onto ``g``: a covering of degree ``m``.

    Copy k is sheet k: copy k of vertex v is v*m + k, and copy k of the
    edge e = (u, w) is e*m + k, from u*m + k to w*m + k. That is the
    extension of the m copies of g's edgeless spanning subgraph.
    """
    if m < 1:
        raise GraphStructureError(f"need at least one copy, got {m}")
    edgeless = Multigraph._adopt(g.vertex_count, {})
    copies = CoveringMap._sheeted(Multigraph._adopt(g.vertex_count * m, {}), edgeless, m)
    return extend_subgraph_cover(g, edgeless, copies)


def extend_subgraph_cover(g: Multigraph, h: Multigraph, p: CoveringMap) -> CoveringMap:
    """Extend a sheet-numbered cover of a spanning subgraph to a cover of ``g``.

    ``h`` must be a spanning subgraph of ``g`` and ``p`` a covering of ``h``
    of degree ``m``, numbered sheet by sheet; ``p`` is not re-checked (run
    :func:`verify_covering` on untrusted maps). Each edge e = (u, w) of
    ``g`` missing from ``h`` lifts to the ``m`` edges e*m + k from u*m + k
    to w*m + k, so every cover vertex gets exactly one lift of it. The
    result is sheet-numbered, restricts to ``p`` on the source of ``p``
    (ids untouched) and has the same degree.
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
    m = p._sheet_degree()  # raises on non-constant fibers

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
