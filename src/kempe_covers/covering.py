"""Covering maps between multigraphs.

A graph map ``p`` from a cover onto a base is a covering when it is
surjective and restricts, at every cover vertex, to a bijection between the
edges there and the edges at the image vertex. Covers of d-regular graphs
are d-regular, and a legal base coloring pulls back to a legal cover
coloring. This module also lifts switch sequences through covers, replaying
each unless the caller has, composes covers, and extends a spanning
subgraph's cover to the full graph. These trust their input coverings and
do not re-check what they build; :func:`verify_covering` checks maps from
outside. Its incidence half (totality, ranges, incidence) is also the first
step of ``equivalence.verify_witness``, which gets the rest of the axioms
from constant fibers, an edge count and the legality of a pulled-back coloring.

Fiber sizes are required to be constant across all base vertices, even for
disconnected bases; the equivalence construction normalizes every
intermediate cover to a uniform degree, so nothing more general is needed
and composition stays well-defined. ``CoveringMap.degree`` checks that every
vertex image lies in the target before it counts the fibers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .coloring import (
    BichromaticCycle,
    EdgeColoring,
    SwitchSequence,
    _cycle_decomposition,
    _replay,
)
from .errors import CoveringError, GraphStructureError
from .graph import EdgeId, Multigraph, VertexId, _degrees, disjoint_union


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
    """

    __slots__ = ("source", "target", "_vmap", "_emap", "_degree")

    def __init__(
        self,
        source: Multigraph,
        target: Multigraph,
        vertex_map: Sequence[VertexId],
        edge_map: Mapping[EdgeId, EdgeId],
    ):
        self.source = source
        self.target = target
        self._vmap = tuple(vertex_map)
        self._emap = dict(edge_map)
        self._degree: int | None = None

    @classmethod
    def identity(cls, g: Multigraph) -> "CoveringMap":
        return cls(g, g, range(g.vertex_count), dict(zip(g._edges, g._edges)))

    def edge_image(self, e: EdgeId) -> EdgeId:
        return self._emap[e]

    @property
    def vertex_map(self) -> tuple[VertexId, ...]:
        return self._vmap

    @property
    def edge_map(self) -> dict[EdgeId, EdgeId]:
        return dict(self._emap)

    # no package code calls this; it stays because perfbench/tracer.py's METHODS wraps it by name
    def vertex_fiber(self, v: VertexId) -> tuple[VertexId, ...]:
        """Source vertices over ``v``, in increasing id order."""
        return tuple(w for w in self.source.vertices() if self._vmap[w] == v)

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
        return (
            self.source == other.source
            and self.target == other.target
            and self._vmap == other._vmap
            and self._emap == other._emap
        )

    def __repr__(self) -> str:
        return f"CoveringMap({self.source!r} -> {self.target!r})"


def _verify_incidence(p: CoveringMap) -> Verdict:
    """The first half of :func:`verify_covering`: totality, vertex ranges and incidence."""
    src, tgt, vmap, emap = p.source, p.target, p._vmap, p._emap
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
    src, tgt, vmap, emap = p.source, p.target, p._vmap, p._emap
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

    ``p`` is not re-checked; run :func:`verify_covering` on untrusted maps.
    """
    colors, emap = c._colors, p._emap
    try:
        # every color is one of c's, already in 1..degree
        return EdgeColoring._adopt(c.degree, {e: colors[emap[e]] for e in p.source._edges})
    except KeyError:  # let c[...] raise its ColoringError for the first uncolored image
        for e in p.source._edges:
            c[emap[e]]
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
    """:func:`lift_sequence` of a sequence already replayed on ``p.target``; the recursion enters here."""
    source, emap = p.source, p._emap
    fibers: dict[EdgeId, list[EdgeId]] = {}
    for e in source._edges:
        fibers.setdefault(emap[e], []).append(e)
    out: list[BichromaticCycle] = []
    for cycle in sequence:
        member = [f for e in cycle.edge_ids for f in fibers.get(e, ())]
        out.extend(BichromaticCycle(cycle.colors, edges) for edges in _cycle_decomposition(source, member))
    return tuple(out)


def compose(p: CoveringMap, q: CoveringMap) -> CoveringMap:
    """The covering ``p`` after ``q`` (q's target must be p's source).

    ``p`` and ``q`` must be coverings; they are not re-checked.
    """
    if q.target != p.source:
        raise CoveringError("cannot compose: middle graphs differ")
    p_vmap, p_emap, q_emap = p._vmap, p._emap, q._emap
    return CoveringMap(
        q.source,
        p.target,
        [p_vmap[x] for x in q._vmap],
        {e: p_emap[q_emap[e]] for e in q.source._edges},
    )


def copies_cover(g: Multigraph, m: int) -> CoveringMap:
    """The projection of ``m`` disjoint copies of ``g`` onto ``g``: a covering of degree ``m``.

    Copy k follows copy k-1, each in g's own order, so copy k of the edge
    of rank r in g has id k|E| + r.
    """
    if m < 1:
        raise GraphStructureError(f"need at least one copy, got {m}")
    union = disjoint_union([g] * m)[0]
    return CoveringMap(union, g, tuple(range(g.vertex_count)) * m, dict(zip(union._edges, tuple(g._edges) * m)))


def extend_subgraph_cover(g: Multigraph, h: Multigraph, p: CoveringMap) -> CoveringMap:
    """Extend a constant-fiber cover of a spanning subgraph to a cover of ``g``.

    ``h`` must be a spanning subgraph of ``g`` and ``p`` a covering of ``h``
    with fiber size ``m`` at every vertex; ``p`` is not re-checked (run
    :func:`verify_covering` on untrusted maps). Each edge of ``g`` missing
    from ``h`` lifts to ``m`` new edges wired between equal fiber labels,
    where label k at a vertex means the k-th smallest source vertex over it,
    so every cover vertex gets exactly one lift of it. The result restricts
    to ``p`` on the source of ``p`` (ids untouched) and has the same degree.
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
    m = p.degree  # raises on non-constant fibers

    fibers: list[list[VertexId]] = [[] for _ in range(g.vertex_count)]
    for w, image in enumerate(p._vmap):
        fibers[image].append(w)
    pairs = dict(p.source._edges)
    emap = dict(p._emap)
    next_id = max(pairs, default=-1) + 1
    for e, (u, w) in g_edges.items():
        if e not in h_edges:
            lifts = range(next_id, next_id + m)
            pairs.update(zip(lifts, zip(fibers[u], fibers[w])))
            emap.update(dict.fromkeys(lifts, e))
            next_id += m
    # new ids follow the source's ascending ones; a lift joins the fibers of
    # two distinct vertices of g, so its ends are distinct source vertices
    extended = Multigraph._adopt(p.source.vertex_count, pairs)
    return CoveringMap(extended, g, p._vmap, emap)
