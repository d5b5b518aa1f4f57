"""Undirected loop-free multigraphs: a vertex count and an edge table.

Vertices are dense integers ``0..n-1``. Edges carry unique integer ids that
are assigned densely at creation and *preserved* by spanning-subgraph
construction, so derived graphs may have gaps in their edge id range. Every
edge stores an ordered endpoint pair ``(u, v)``, and the table of these pairs
is the whole graph. Walks follow edge ids through it, which keeps parallel
edges and 2-cycles apart. The degree, legality and component scans read it
in one pass each.

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


class Multigraph:
    """Immutable loop-free multigraph: its vertex count and its id -> endpoint-pair table."""

    __slots__ = ("_n", "_edges")

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

    @classmethod
    def _adopt(cls, vertex_count: int, table: dict[EdgeId, tuple[VertexId, VertexId]]) -> "Multigraph":
        """A graph owning ``table`` unchecked: the caller proves its ids ascend,
        its endpoints lie in ``0..vertex_count-1`` and it has no loop."""
        g = cls.__new__(cls)
        g._n = vertex_count
        g._edges = table
        return g

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

    def endpoints(self, e: EdgeId) -> tuple[VertexId, VertexId]:
        """Stored endpoint pair of ``e`` (creation order)."""
        try:
            return self._edges[e]
        except KeyError:
            raise UnknownEdgeError(f"no edge {e}") from None

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
    of degree d carry 2|E| = dn edge ends. The degrees are counted only when
    n divides 2|E| > 0, so a vertex count beyond the edges allocates nothing.
    """
    n, ends = g._n, 2 * len(g._edges)
    if n == 0 or ends % n:
        return None
    d = ends // n
    return d if not d or _degrees(g).count(d) == n else None


def _degrees(g: Multigraph) -> list[int]:
    """The degree of each vertex, counted from the edge table."""
    degree = [0] * g._n
    for u, w in g._edges.values():
        degree[u] += 1
        degree[w] += 1
    return degree


def connected_components(g: Multigraph) -> list[frozenset[VertexId]]:
    """Partition of the vertex set by reachability, ordered by smallest member."""
    neighbours: list[list[VertexId]] = [[] for _ in range(g._n)]
    for u, w in g._edges.values():
        neighbours[u].append(w)
        neighbours[w].append(u)
    seen = [False] * g._n
    components = []
    for start in range(g._n):
        if not seen[start]:
            seen[start] = True
            comp = [start]
            for v in comp:  # a breadth-first search: comp grows while it is read
                for w in neighbours[v]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
            components.append(frozenset(comp))
    return components


def spanning_subgraph(g: Multigraph, edges: Iterable[EdgeId]) -> Multigraph:
    """Subgraph on all vertices of ``g`` and exactly the given edges.

    Edge ids and stored endpoint order are preserved.
    """
    table, chosen = g._edges, set(edges)
    # g's table filtered in id order: ascending ids of edges of g, so in range and loop-free
    sub = {e: ends for e, ends in table.items() if e in chosen}
    if len(sub) != len(chosen):
        raise UnknownEdgeError(f"no edge {min(chosen - table.keys())}")
    return Multigraph._adopt(g._n, sub)


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
