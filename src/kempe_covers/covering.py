"""Covering maps between multigraphs.

A graph map ``p`` from a cover onto a base is a covering when it is
surjective and restricts, at every cover vertex, to a bijection between the
edges there and the edges at the image vertex. Covers of d-regular graphs
are d-regular, and a legal base coloring pulls back to a legal cover
coloring.

Every covering map is numbered sheet by sheet, in its base's own id space:
in a cover of degree m, vertex (v, k) has id v*m + k and edge (e, k) has id
e*m + k, for k in 0..m-1. Its projection is then x // m on vertices and on
edges. A cover also obeys the *sheet rule*, read directed: it has m|E|
rows, and row e*m + k of the base row e = (u, w) runs from u*m + k to
w*m + pi_e(k). So the cover is its base, m and one head per row, one
permutation pi_e per base edge: a permutation voltage graph (J. L. Gross
and T. W. Tucker, "Generating all graph coverings by permutation voltage
assignments", Discrete Math. 18, 1977). Any covering of constant degree m
can be renumbered so. A :class:`CoveringMap` is therefore its source, its
target and m; its public constructor takes maps from outside only when
they are x // m. This module lifts switch sequences through such covers,
replaying each unless the caller has, and composes them, all by that
division. Every builder takes its tails from the base, as one list, and
writes only heads; one writer, ``_union_witness``, writes every row of
copies of a graph, of extensions of a spanning subgraph's cover and of
unions of witnesses. Through a cover of degree 1 each switch is its own
lift, and through the identity each coloring pulls back as itself. Its
functions trust their input coverings and do not re-check what they build.
The type gives total maps, vertex images in the target and constant,
non-empty fibers. The sheet rule is the one incidence check: it is the
first half of :func:`verify_covering` and the first step of
``equivalence.verify_witness``, which gets the rest from a pulled-back
coloring's fill.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count, cycle, repeat
from operator import add, floordiv, mul, ne
from typing import Iterable, Mapping, Sequence

from .coloring import (
    BichromaticCycle,
    EdgeColoring,
    SwitchSequence,
    _cycle_decomposition,
    _replay,
)
from .errors import ColoringError, CoveringError, GraphStructureError, UnknownEdgeError
from .graph import EdgeId, Multigraph, VertexId, _in_id_order


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
    m * |V(target)| = |V(source)|, and ``edge_map`` is f // m on its edges.
    Either map is a sequence, or a mapping keyed by exactly 0..N-1 and read
    in id order as a graph's edge table is; any other mapping is refused,
    naming its first missing key. The first fault is found in one scan
    against x // m: the first index where they differ, else the shorter
    one's length. It does not check the sheet rule or local bijection; run
    :func:`verify_covering` for those.
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
        for kind, given, total in (("vertex", vertex_map, size), ("edge", edge_map, source.edge_count)):
            given = _in_id_order(given, CoveringError)
            want = _repeat_each(list(range(-(-total // m))), m)[:total]  # x // m for x in 0..total-1
            if given == want:
                continue
            # the first index where the lists differ, else the shorter list's length
            x = next(compress(range(total), map(ne, given, want)), min(len(given), total))
            if x == total:
                raise CoveringError(f"{kind} map names {kind} {x}, not a source {kind}")
            if x == len(given):
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


def _first_ends(g: Multigraph, m: int) -> list[VertexId]:
    """The first end u*m + k of row e*m + k, for each row e = (u, w) of ``g`` and each sheet k:
    the tails of every cover of ``g`` of degree m."""
    return list(map(add, _repeat_each(list(map(mul, g._tails, repeat(m))), m), cycle(range(m))))


def _verify_incidence(p: CoveringMap) -> Verdict:
    """The sheet rule, the first half of :func:`verify_covering`: the cover has m|E| rows, and row
    e*m + k of the base row e = (u, w) runs from u*m + k to a vertex over w. The first row that
    breaks it is named, also when it is stored reversed."""
    m, src, tgt = p.degree, p.source, p.target
    if src.edge_count != m * tgt.edge_count:
        return Verdict(False, f"cover edge count {src.edge_count} is not {m} x {tgt.edge_count}")
    tails, over = _first_ends(tgt, m), _repeat_each(tgt._heads, m)
    images = list(map(floordiv, src._heads, repeat(m)))
    if src._tails != tails or images != over:
        f = next(compress(count(), map(ne, zip(src._tails, images), zip(tails, over))))
        return Verdict(False, f"edge {f} does not preserve incidence")
    return Verdict(True)


def verify_covering(p: CoveringMap) -> Verdict:
    """Check the sheet rule, then local bijection; the type gives the rest.

    Under the sheet rule, the edges at the cover vertex v = x*m + k are row
    e*m + k of each base edge e that leaves x, and each row over a base edge
    that enters x whose second end is v; base edges are no loops. So v's
    edges map one to one onto the edges at x, and every base edge has m
    lifts, exactly when the m second ends over each base edge are distinct.
    In the first base edge where two of its rows share a second end, that
    vertex is named.
    """
    verdict = _verify_incidence(p)
    if not verdict:
        return verdict
    m, heads = p.degree, p.source._heads
    for f in range(0, len(heads), m):
        ends = heads[f : f + m]
        if len(set(ends)) < m:
            v = next(v for i, v in enumerate(ends) if v in ends[:i])
            return Verdict(False, f"local bijection fails at source vertex {v} (collision)")
    return Verdict(True)


def pullback_coloring(p: CoveringMap, c: EdgeColoring) -> EdgeColoring:
    """Pull ``c`` back through the covering ``p``: each color repeats m times, for the sheets of its edge.

    ``c`` must color exactly the target's edges. A legal ``c`` pulls back
    legal; through a cover whose source is its target, the identity, it
    pulls back as ``c`` itself. ``p`` is not re-checked; run
    :func:`verify_covering` on untrusted maps.
    """
    colored, edges = len(c._colors), p.target.edge_count
    if colored < edges:  # the replay's messages
        raise ColoringError(f"edge {colored} is not colored")
    if colored > edges:
        raise ColoringError(f"edge {edges} is not in the graph")
    if p.source is p.target:
        return c
    m, size = p.degree, p.source.edge_count
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
    return _union_witness(g, [], m, range(g.edge_count))[0]


def extend_subgraph_cover(g: Multigraph, edges: Sequence[EdgeId], p: CoveringMap) -> CoveringMap:
    """Extend a cover of a spanning subgraph to a cover of ``g``.

    ``p``, a covering of degree m of ``spanning_subgraph(g, edges)`` for
    ascending ``edges``, is not re-checked (run :func:`verify_covering` on
    untrusted maps). Every row of the result keeps the sheet rule, so its
    tails come from ``g``: row e*m + k for e = edges[i] takes the head of
    p's row i*m + k, and each other edge e = (u, w) of ``g`` lifts to the m
    edges e*m + k from u*m + k to w*m + k, as in :func:`copies_cover`.
    """
    h, edges = p.target, list(edges)
    # ascending ids of edges of g, whose rows there are h's
    known = edges == sorted(set(edges)) and (not edges or 0 <= edges[0] and edges[-1] < g.edge_count)
    if not known or (h._n, h._tails, h._heads) != (g._n, [g._tails[e] for e in edges], [g._heads[e] for e in edges]):
        raise CoveringError("cover does not map onto the given subgraph")
    others = set(range(g.edge_count)).difference(edges)
    return _union_witness(g, [(p, (), range(g.vertex_count), edges)], p.degree, others)[0]


def _union_witness(
    g: Multigraph, parts: list[tuple], degree: int, lifted: Iterable[EdgeId] = ()
) -> tuple[CoveringMap, SwitchSequence]:
    """The disjoint union of ``degree // m`` copies of each part's witness of degree m: a cover of ``g``.

    A part ``(cover, switches, vback, eback)`` is a witness whose vertex and
    edge ids map into ``g`` through ``vback`` and ``eback``, with ``eback``
    ascending and each base row i = (u, w) of the part over g's row
    eback[i] = (vback[u], vback[w]). Copy c of the part's cover vertex
    v*m + k is sheet c*m + k over vback[v], with id vback[v]*degree + c*m + k,
    and the same for edges. Every row keeps the sheet rule, so all tails come
    from g as one list, and only each row's head is written at its id. Each
    switch goes onto every copy of its part before the next. Each edge
    e = (u, w) of ``lifted``, which no part lists, lifts sheet by sheet to the
    rows e*degree + k from u*degree + k to w*degree + k. Copies of a graph,
    extensions of a subgraph's cover, unions of components and pads all
    write here.
    """
    heads = [0] * (g.edge_count * degree)
    for e in lifted:
        w = g._heads[e] * degree
        heads[e * degree : e * degree + degree] = range(w, w + degree)
    all_switches: list[BichromaticCycle] = []
    for cover, switches, vback, eback in parts:
        m, source = cover.degree, cover.source
        firsts = range(0, degree, m)  # the first sheet of each copy: c*m for copy c
        # the ids of copy 0; copy c adds c*m to every vertex and edge id
        at = [v * degree + k for v in vback for k in range(m)]
        ids = [e * degree + k for e in eback for k in range(m)]
        downs = list(map(at.__getitem__, source._heads))
        for s in firsts:
            for f, w in zip(ids, downs):
                heads[f + s] = w + s
        # eback ascends, so a sorted switch stays sorted
        for cyc in switches:
            moved = list(map(ids.__getitem__, cyc.edge_ids))
            for s in firsts:
                all_switches.append(BichromaticCycle(cyc.colors, tuple(map(s.__add__, moved))))
    # each copy and each lift joins the copies of two distinct vertices
    union = Multigraph._adopt(g.vertex_count * degree, _first_ends(g, degree), heads)
    return CoveringMap._sheeted(union, g, degree), tuple(all_switches)
