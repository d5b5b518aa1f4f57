"""Undirected loop-free multigraphs with dart-level incidence.

Vertices are dense integers ``0..n-1``. Edges carry unique integer ids that
are assigned densely at creation and *preserved* by spanning-subgraph
construction, so derived graphs may have gaps in their edge id range. Every
edge stores an ordered endpoint pair ``(u, v)``; the pairs ``(edge, 0)`` and
``(edge, 1)`` are its two darts (half-edges). Walks follow edge ids through
the edge table, which keeps parallel edges and 2-cycles apart, so they need
no darts. The per-vertex dart lists are built on first request, for the
degree, legality and component scans, and for a switch check only at a
vertex where the check fails.

Graphs are immutable once constructed; :meth:`Multigraph.from_edges`
builds one with dense edge ids from a list of endpoint pairs. The public
constructor sorts and checks its table, which may come from outside. The
private :meth:`Multigraph._adopt` takes as is the tables the package derives
from checked graphs: spanning subgraphs, disjoint unions, relabelled
components, extended covers and alignment covers. Each builds ascending ids
and endpoints from ranges it knows, so a check would prove nothing new.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .errors import (
    GraphStructureError,
    LoopEdgeError,
    UnknownEdgeError,
    UnknownVertexError,
)

VertexId = int
EdgeId = int
#: (edge id, endpoint slot); slot indexes the stored endpoint pair.
Dart = tuple[EdgeId, int]


class Multigraph:
    """Immutable loop-free multigraph; per-vertex dart lists are built on first walk."""

    __slots__ = ("_n", "_edges", "_darts")

    def __init__(self, vertex_count: int, edges: Mapping[EdgeId, tuple[VertexId, VertexId]]):
        if vertex_count < 0:
            raise GraphStructureError(f"negative vertex count {vertex_count}")
        table: dict[EdgeId, tuple[VertexId, VertexId]] = {}
        for eid in sorted(edges):
            u, v = edges[eid]
            if not (0 <= u < vertex_count):
                raise UnknownVertexError(f"edge {eid}: vertex {u} not in graph")
            if not (0 <= v < vertex_count):
                raise UnknownVertexError(f"edge {eid}: vertex {v} not in graph")
            if u == v:
                raise LoopEdgeError(f"edge {eid} would be a loop at vertex {u}")
            table[eid] = (u, v)
        self._n = vertex_count
        self._edges = table
        self._darts: list[tuple[Dart, ...]] | None = None

    @classmethod
    def _adopt(cls, vertex_count: int, table: dict[EdgeId, tuple[VertexId, VertexId]]) -> "Multigraph":
        """A graph owning ``table`` unchecked: the caller proves its ids ascend,
        its endpoints lie in ``0..vertex_count-1`` and it has no loop."""
        g = cls.__new__(cls)
        g._n = vertex_count
        g._edges = table
        g._darts = None
        return g

    @property
    def _incidence(self) -> list[tuple[Dart, ...]]:
        """Per-vertex dart lists in edge id order, built on first read: most graphs never walk."""
        if self._darts is None:
            incidence: list[list[Dart]] = [[] for _ in range(self._n)]
            for eid, (u, v) in self._edges.items():
                incidence[u].append((eid, 0))
                incidence[v].append((eid, 1))
            self._darts = [tuple(darts) for darts in incidence]
        return self._darts

    @classmethod
    def from_edges(cls, vertex_count: int, pairs: Iterable[tuple[VertexId, VertexId]]) -> "Multigraph":
        """Build a graph with dense edge ids ``0..len(pairs)-1`` in input order."""
        return cls(vertex_count, {i: (u, v) for i, (u, v) in enumerate(pairs)})

    # -- queries ---------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return self._n

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def vertices(self) -> range:
        return range(self._n)

    def edge_ids(self) -> tuple[EdgeId, ...]:
        """Edge ids in increasing order."""
        return tuple(self._edges)

    def has_vertex(self, v: VertexId) -> bool:
        return 0 <= v < self._n

    def has_edge(self, e: EdgeId) -> bool:
        return e in self._edges

    def endpoints(self, e: EdgeId) -> tuple[VertexId, VertexId]:
        """Stored endpoint pair of ``e`` (creation order)."""
        try:
            return self._edges[e]
        except KeyError:
            raise UnknownEdgeError(f"no edge {e}") from None

    def darts_at(self, v: VertexId) -> tuple[Dart, ...]:
        if not self.has_vertex(v):
            raise UnknownVertexError(f"no vertex {v}")
        return self._incidence[v]

    def edges_at(self, v: VertexId) -> tuple[EdgeId, ...]:
        return tuple(e for e, _ in self.darts_at(v))

    def degree(self, v: VertexId) -> int:
        return len(self.darts_at(v))

    def edge_table(self) -> dict[EdgeId, tuple[VertexId, VertexId]]:
        """Copy of the id -> endpoint-pair table."""
        return dict(self._edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self is other or self._n == other._n and self._edges == other._edges

    def __repr__(self) -> str:
        return f"Multigraph(vertices={self._n}, edges={len(self._edges)})"


def is_regular(g: Multigraph) -> int | None:
    """The common degree when every vertex has it, else None.

    The empty graph is vacuously regular for no particular d and returns None;
    an edgeless graph is 0-regular. The edge table decides first: n vertices
    of degree d carry 2|E| = dn edge ends. The dart lists are read only when
    n divides 2|E| > 0, so a vertex count beyond the edges allocates nothing.
    """
    n, ends = g._n, 2 * len(g._edges)
    if n == 0 or ends % n:
        return None
    d = ends // n
    return d if not d or all(len(darts) == d for darts in g._incidence) else None


def connected_components(g: Multigraph) -> list[frozenset[VertexId]]:
    """Partition of the vertex set by reachability, ordered by smallest member."""
    table, incidence = g._edges, g._incidence
    seen = [False] * g._n
    components = []
    for start in range(g._n):
        if seen[start]:
            continue
        seen[start] = True
        stack = [start]
        comp = [start]
        while stack:
            v = stack.pop()
            for e, slot in incidence[v]:
                w = table[e][1 - slot]
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        components.append(frozenset(comp))
    return components


def spanning_subgraph(g: Multigraph, edges: Iterable[EdgeId]) -> Multigraph:
    """Subgraph on all vertices of ``g`` and exactly the given edges.

    Edge ids and stored endpoint order are preserved.
    """
    table = g._edges
    chosen = sorted(set(edges))
    for e in chosen:
        if e not in table:
            raise UnknownEdgeError(f"no edge {e}")
    # ascending ids of edges of g, so in range and loop-free
    return Multigraph._adopt(g._n, {e: table[e] for e in chosen})


def disjoint_union(parts: Sequence[Multigraph]) -> tuple[Multigraph, list[dict[EdgeId, EdgeId]]]:
    """Disjoint union with per-part edge injections (old id -> new id).

    Each part's vertices follow the previous parts' in order, and its edges
    are numbered in increasing order of their old ids, so its injection
    keeps the order of any sorted edge list.
    """
    edge_maps: list[dict[EdgeId, EdgeId]] = []
    pairs: dict[EdgeId, tuple[VertexId, VertexId]] = {}
    v_off = 0
    for part in parts:
        new_ids = range(len(pairs), len(pairs) + len(part._edges))
        pairs.update(zip(new_ids, [(u + v_off, w + v_off) for u, w in part._edges.values()]))
        edge_maps.append(dict(zip(part._edges, new_ids)))
        v_off += part._n
    # ids count up from 0; each part's ends are shifted past the previous parts'
    return Multigraph._adopt(v_off, pairs), edge_maps
