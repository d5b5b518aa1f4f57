"""Undirected loop-free multigraphs: a vertex count and an edge table.

Vertices are dense integers ``0..n-1``, and so are edges: edge ``e`` is row
``e`` of the table, also in a spanning subgraph, which keeps its edges'
order in the full graph. The table is two lists, the first and the second
stored endpoint of each edge, and it is the whole graph. Walks follow edge
ids through it, which keeps parallel edges and 2-cycles apart.

Graphs are immutable once constructed. The public constructor copies a
table that may come from outside: any iterable of endpoint pairs, numbered
in input order, or a mapping keyed by exactly ``0..E-1``. It refuses other
keys with one error that names the first missing id. It checks that each
pair is a tuple or list of two integers, then that each lies in range and
is no loop, naming the first faulty row. Bools are not integers here, as in
the witness parser. The private :meth:`Multigraph._adopt` takes as is the
lists the package derives from checked graphs: spanning subgraphs,
relabelled components, extended covers, copies of a graph, unions of copies
and alignment covers, so a check would prove nothing new.
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
Pair = tuple[VertexId, VertexId]


def _in_id_order(table, error: type) -> list:
    """The values of an iterable, or of a mapping keyed by exactly ``0..E-1``, as a new list in id order;
    ``error`` names the first id missing from the keys of any other mapping."""
    if type(table) is list or not isinstance(table, Mapping):
        return list(table)
    ids = [e for e in table if type(e) is int]
    missing = set(range(len(table))).difference(ids)
    if missing:
        raise error(f"edge ids must be 0..{len(table) - 1}: {min(missing)} is missing")
    return [table[e] for e in range(len(table))]


class Multigraph:
    """Immutable loop-free multigraph: its vertex count and the two endpoint lists of its edges."""

    __slots__ = ("_n", "_tails", "_heads")

    def __init__(self, vertex_count: int, edges: Iterable[Pair] | Mapping[EdgeId, Pair]):
        if type(vertex_count) is not int:
            raise GraphStructureError(f"vertex count must be an integer, got {vertex_count!r}")
        tails: list[VertexId] = []
        heads: list[VertexId] = []
        faulty = vertex_count < 0
        for ends in _in_id_order(edges, GraphStructureError):
            # tuples or lists of two ints (bools are not); a row out of range or a loop is
            # only noted, so that a later row that is no pair of ints is named first
            if type(ends) not in (tuple, list) or len(ends) != 2 or not type(ends[0]) is type(ends[1]) is int:
                raise GraphStructureError(f"edge {len(tails)}: endpoints {ends!r} are not a pair of integers")
            u, v = ends
            tails.append(u)
            heads.append(v)
            if not (0 <= u < vertex_count and 0 <= v < vertex_count) or u == v:
                faulty = True
        if faulty:
            _check_ends(vertex_count, tails, heads)
        self._n, self._tails, self._heads = vertex_count, tails, heads

    @classmethod
    def _adopt(cls, vertex_count: int, tails: list[VertexId], heads: list[VertexId]) -> "Multigraph":
        """A graph owning the endpoint lists unchecked: the caller proves they have one
        length, their endpoints lie in ``0..vertex_count-1`` and no row is a loop."""
        g = cls.__new__(cls)
        g._n, g._tails, g._heads = vertex_count, tails, heads
        return g

    # -- queries ---------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return self._n

    @property
    def edge_count(self) -> int:
        return len(self._tails)

    def edge_ids(self) -> tuple[EdgeId, ...]:
        """Edge ids in increasing order: ``0..E-1``."""
        return tuple(range(len(self._tails)))

    def endpoints(self, e: EdgeId) -> tuple[VertexId, VertexId]:
        """Stored endpoint pair of ``e`` (creation order)."""
        if type(e) is not int or not 0 <= e < len(self._tails):
            raise UnknownEdgeError(f"no edge {e}")
        return self._tails[e], self._heads[e]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self is other or (self._n, self._tails, self._heads) == (other._n, other._tails, other._heads)

    def __repr__(self) -> str:
        return f"Multigraph(vertices={self._n}, edges={len(self._tails)})"


def _check_ends(vertex_count: int, tails: list[VertexId], heads: list[VertexId]) -> None:
    """Raise unless the vertex count is not negative, every end of the integer endpoint lists
    lies in ``0..vertex_count-1`` and no row is a loop, naming the first faulty row."""
    if vertex_count < 0:
        raise GraphStructureError(f"negative vertex count {vertex_count}")
    for eid, (u, v) in enumerate(zip(tails, heads)):
        if not (0 <= u < vertex_count and 0 <= v < vertex_count) or u == v:
            if u == v and 0 <= u < vertex_count:
                raise LoopEdgeError(f"edge {eid} would be a loop at vertex {u}")
            raise UnknownVertexError(f"edge {eid}: vertex {v if 0 <= u < vertex_count else u} not in graph")


def is_regular(g: Multigraph) -> int | None:
    """The common degree when every vertex has it, else None.

    The empty graph is vacuously regular for no particular d and returns None;
    an edgeless graph is 0-regular. The edge table decides first: n vertices
    of degree d carry 2|E| = dn edge ends. The degrees are counted only when
    n divides 2|E| > 0, so a vertex count beyond the edges allocates nothing.
    """
    n, ends = g._n, 2 * len(g._tails)
    if n == 0 or ends % n:
        return None
    d = ends // n
    return d if not d or _degrees(g).count(d) == n else None


def _degrees(g: Multigraph) -> list[int]:
    """The degree of each vertex, counted from the edge table."""
    degree = [0] * g._n
    for u in g._tails:
        degree[u] += 1
    for w in g._heads:
        degree[w] += 1
    return degree


def connected_components(g: Multigraph) -> list[frozenset[VertexId]]:
    """Partition of the vertex set by reachability, ordered by smallest member."""
    neighbours: list[list[VertexId]] = [[] for _ in range(g._n)]
    for u, w in zip(g._tails, g._heads):
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
    """Subgraph on all vertices of ``g`` and exactly the given edges: its edge i is the i-th smallest
    given id, with its stored endpoint order, as :func:`~kempe_covers.covering.extend_subgraph_cover` reads it."""
    chosen, size = sorted(set(edges)), len(g._tails)
    if chosen and not (0 <= chosen[0] and chosen[-1] < size):
        raise UnknownEdgeError(f"no edge {next(e for e in chosen if not 0 <= e < size)}")
    # rows of g: in range and loop-free
    return Multigraph._adopt(g._n, list(map(g._tails.__getitem__, chosen)), list(map(g._heads.__getitem__, chosen)))
