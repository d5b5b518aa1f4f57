"""Covering maps between multigraphs.

A graph map ``p`` from a cover onto a base is a covering when it is
surjective and restricts, at every cover vertex, to a bijection between the
edges there and the edges at the image vertex. Covers of d-regular graphs
are d-regular, and a legal base coloring pulls back to a legal cover
coloring. This module also lifts switch sequences through covers, composes
covers, and extends a cover of a spanning subgraph to a cover of the full
graph. These trust their input coverings and do not re-check what they
build; :func:`verify_covering` checks maps from outside.

Fiber sizes are required to be constant across all base vertices, even for
disconnected bases; the equivalence construction normalizes every
intermediate cover to a uniform degree, so nothing more general is needed
and composition stays well-defined.
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
    (tests need to build broken maps on purpose). ``degree`` validates.
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
        """Common fiber size; raises if fibers are not constant."""
        if self._degree is None:
            sizes = [0] * self.target.vertex_count
            for image in self._vmap:
                sizes[image] += 1
            if not sizes or len(set(sizes)) != 1:
                raise CoveringError(f"fiber sizes not constant: {sorted(set(sizes))}")
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


def verify_covering(p: CoveringMap) -> Verdict:
    """Check totality, incidence, surjectivity, local bijection, constant fibers.

    Images that keep incidence put v's edges over edges at vmap[v]. The
    local bijection is then read from the edge table. When the 2|E| pairs
    (end vertex, image edge) are distinct, the images of v's edges are
    distinct edges at vmap[v], so deg(v) <= deg(vmap[v]) at every source
    vertex. Summed over the source, the left sides give 2|E_src| and, with
    m sources over every target vertex, the right sides give 2m|E_tgt|. So
    when |E_src| = m|E_tgt| as well, every inequality is an equality and
    each vertex's edges map onto the edges at its image. Only when the
    counts fail are the degrees of both graphs and the distinct pairs at
    each source vertex counted, to name the first source vertex where two
    edges share an image or the degree differs from its image's.
    """
    src, tgt, vmap, emap = p.source, p.target, p._vmap, p._emap
    if len(vmap) != src.vertex_count:
        return Verdict(False, "vertex map is not total on the source")
    if emap.keys() != src._edges.keys():
        return Verdict(False, "edge map does not match the source edge set")
    n, src_edges, tgt_edges = tgt.vertex_count, src._edges, tgt._edges
    for v, x in enumerate(vmap):
        if not 0 <= x < n:
            return Verdict(False, f"vertex {v} maps outside the target")
    for e, (u, w) in src_edges.items():
        ends = tgt_edges.get(emap[e])
        if ends is None:
            return Verdict(False, f"edge {e} maps outside the target")
        x, y = vmap[u], vmap[w]
        if ends != (x, y) and ends != (y, x):
            return Verdict(False, f"edge {e} does not preserve incidence")
    if len(set(vmap)) != n:
        return Verdict(False, "vertex map is not surjective")
    if len(set(emap.values())) != len(tgt_edges):
        return Verdict(False, "edge map is not surjective")
    images = [emap[e] for e in src_edges]
    pairs = set(zip([u for u, _ in src_edges.values()], images))
    pairs.update(zip([w for _, w in src_edges.values()], images))
    try:
        counted = len(pairs) == 2 * len(src_edges) and len(src_edges) == p.degree * len(tgt_edges)
    except CoveringError:
        counted = False
    if not counted:
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

    The base sequence is replayed once from ``c``, so a stale switch names
    its sequence position. The components of one switch are disjoint and
    bi-chromatic for the pull-back, so flipping them all, in any order,
    equals pulling back the flipped base coloring.
    """
    _replay(p.target, c.degree, dict(c._colors), enumerate(sequence))
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
