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
constructor checks a table that may come from outside: it keeps a copy,
re-keyed in id order only when the ids do not already ascend, and one pass
checks, in id order, that each id is an integer and each entry a tuple or
list of two integer endpoints in range with no loop, rebuilding only a pair
that is not a tuple. Bools are not integers here, as in the witness parser.
The private :meth:`Multigraph._adopt` takes as is the tables the package derives
from checked graphs: spanning subgraphs, relabelled components, the edgeless
graphs that copies extend, extended covers, unions of copies and alignment
covers. Each builds ascending ids and endpoints from ranges it knows, so a
check would prove nothing new.
"""

from __future__ import annotations

from typing import Iterable, Mapping

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
        if type(vertex_count) is not int:
            raise GraphStructureError(f"vertex count must be an integer, got {vertex_count!r}")
        if vertex_count < 0:
            raise GraphStructureError(f"negative vertex count {vertex_count}")
        # ids and ends must be ints, and bools are not: a fault raises TypeError or ValueError
        try:
            ids = sorted(edges)
            table = dict(edges) if ids == list(edges) else {e: edges[e] for e in ids}
            for eid, ends in table.items():
                u, v = ends
                if type(u) is not int or type(v) is not int or type(eid) is not int:
                    raise TypeError
                if not (0 <= u < vertex_count):
                    raise UnknownVertexError(f"edge {eid}: vertex {u} not in graph")
                if not (0 <= v < vertex_count):
                    raise UnknownVertexError(f"edge {eid}: vertex {v} not in graph")
                if u == v:
                    raise LoopEdgeError(f"edge {eid} would be a loop at vertex {u}")
                if type(ends) is not tuple:
                    if type(ends) is not list:
                        raise TypeError
                    table[eid] = (u, v)
        except (TypeError, ValueError):
            for e in edges:
                if type(e) is not int:
                    raise GraphStructureError(f"edge id {e!r} is not an integer") from None
            raise GraphStructureError(f"edge {eid}: endpoints {ends!r} are not a pair of integers") from None
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
        return cls(vertex_count, dict(enumerate(pairs)))

    # -- queries ---------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return self._n

    @property
    def edge_count(self) -> int:
        return len(self._edges)

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
