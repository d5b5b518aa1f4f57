import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from kempe_covers import (
    GraphStructureError,
    LoopEdgeError,
    Multigraph,
    UnknownEdgeError,
    UnknownVertexError,
    connected_components,
    is_regular,
    spanning_subgraph,
)
from kempe_covers import graph
from kempe_covers.graph import _degrees

from conftest import dart_lists, edge_table, make_cycle, make_disjoint, make_k33, make_theta


def test_builder_rejects_loops():
    with pytest.raises(LoopEdgeError):
        Multigraph.from_edges(1, [(0, 0)])


def test_builder_rejects_unknown_vertex():
    with pytest.raises(UnknownVertexError):
        Multigraph.from_edges(0, [(0, 1)])


def test_parallel_edges_get_distinct_ids():
    g = Multigraph.from_edges(2, [(0, 1), (0, 1)])
    assert g.edge_ids() == (0, 1)
    assert g.endpoints(0) == g.endpoints(1) == (0, 1)


def test_incidence_covers_each_edge_twice():
    assert _degrees(make_theta()) == [3, 3]
    assert _degrees(make_k33()) == [3] * 6
    assert _degrees(Multigraph.from_edges(4, [(0, 1), (2, 1)])) == [1, 2, 1, 0]


def test_degree_and_regularity():
    k33 = make_k33()
    assert all(len(darts) == 3 for darts in dart_lists(k33))
    assert is_regular(k33) == 3
    assert is_regular(make_theta()) == 3
    path = Multigraph.from_edges(3, [(0, 1), (1, 2)])
    assert is_regular(path) is None
    assert is_regular(Multigraph(0, {})) is None


def test_is_regular_reads_the_edge_table_before_any_dart_list():
    # a claimed vertex count far beyond the edges is answered without a count per vertex
    g = Multigraph(10**6, {0: (0, 1)})
    edgeless = Multigraph(10**6, {})
    tracemalloc.start()
    try:
        assert is_regular(g) is None
        assert is_regular(edgeless) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10_000  # a count per vertex would take 8 MB


def test_degree_sum_is_twice_edge_count():
    for g in (make_k33(), make_theta(), make_cycle(5)):
        assert sum(_degrees(g)) == 2 * g.edge_count


def test_connected_components():
    assert len(connected_components(make_k33())) == 1
    two_cycles = make_disjoint(make_cycle(4), make_cycle(4))
    assert len(connected_components(two_cycles)) == 2
    edgeless = Multigraph(5, {})
    comps = connected_components(edgeless)
    assert comps == [frozenset({v}) for v in range(5)]


def test_spanning_subgraph_preserves_ids():
    # every edge, or the first few, keep their ids and stored endpoint order
    g = make_k33()
    assert spanning_subgraph(g, g.edge_ids()) == g
    prefix = spanning_subgraph(g, range(4))
    assert [prefix.endpoints(e) for e in prefix.edge_ids()] == [g.endpoints(e) for e in range(4)]
    empty = spanning_subgraph(g, [])
    assert empty.vertex_count == g.vertex_count and empty.edge_count == 0
    with pytest.raises(UnknownEdgeError, match="^no edge 2$"):
        empty.endpoints(2)
    with pytest.raises(UnknownEdgeError):
        spanning_subgraph(g, [99])


def test_spanning_subgraph_numbers_its_edges_densely():
    # edge i of the subgraph is the i-th smallest id given, with its stored endpoint order
    g = make_k33()
    sub = spanning_subgraph(g, [8, 2, 5, 2])
    assert sub.edge_ids() == (0, 1, 2)
    assert [sub.endpoints(i) for i in range(3)] == [g.endpoints(e) for e in (2, 5, 8)]
    for unknown in (99, -1, 9):
        with pytest.raises(UnknownEdgeError, match=f"^no edge {unknown}$"):
            spanning_subgraph(g, [0, unknown])


@pytest.mark.parametrize("e", [-1, 9, 2.0, "0", None])
def test_endpoints_refuse_an_id_outside_the_rows(e):
    # a list would read -1 as its last row, and 2.0 or "0" would raise TypeError
    with pytest.raises(UnknownEdgeError, match=f"^no edge {e}$"):
        make_k33().endpoints(e)


def test_spanning_subgraph_color_class_is_matching(k33, k33_pair):
    c1, _ = k33_pair
    matching = spanning_subgraph(k33, [e for e in k33.edge_ids() if c1[e] == 3])
    assert matching.edge_count == 3
    assert is_regular(matching) == 1


@pytest.mark.parametrize("n, edges, error, message", [
    (3, [(0, 1)] * 4 + [(2, 2)], LoopEdgeError, "edge 4 would be a loop at vertex 2"),
    (3, {0: (0, 1), 2: (1, 3), 1: (1, 2)}, UnknownVertexError, "edge 2: vertex 3 not in graph"),
    (3, [(0, 1)] * 5 + [(-1, 1)], UnknownVertexError, "edge 5: vertex -1 not in graph"),
    (-1, {}, GraphStructureError, "negative vertex count -1"),
])
def test_construction_errors_raise_before_any_walk(monkeypatch, n, edges, error, message):
    walks = []
    monkeypatch.setattr(graph, "_degrees", walks.append)
    with pytest.raises(error, match=message):
        Multigraph(n, edges)
    assert walks == []


@pytest.mark.parametrize("n, edges, message", [
    (3, {0: (0.5, 1)}, "edge 0: endpoints (0.5, 1) are not a pair of integers"),
    (3, {0: (0, 1), 1: (True, 2)}, "edge 1: endpoints (True, 2) are not a pair of integers"),
    (3, {0: ("a", 1)}, "edge 0: endpoints ('a', 1) are not a pair of integers"),
    (3, {0: (0, 1, 2)}, "edge 0: endpoints (0, 1, 2) are not a pair of integers"),
    (3, {0: 5}, "edge 0: endpoints 5 are not a pair of integers"),
    (3, {0: {0, 1}}, "edge 0: endpoints {0, 1} are not a pair of integers"),
    (3, {"x": (0, 1)}, "edge ids must be 0..0: 0 is missing"),  # an id that is not an integer leaves a gap
    (3, {True: (0, 1)}, "edge ids must be 0..0: 0 is missing"),  # bools are not ids either
    (3.0, {0: (0, 1)}, "vertex count must be an integer, got 3.0"),
    # rows out of range or loops before it: a row that is no pair of integers is still named first
    (3, {0: (0, 5), 1: (1, 1), 2: ["a", 1]}, "edge 2: endpoints ['a', 1] are not a pair of integers"),
], ids=["fraction", "bool end", "string end", "triple", "int", "set", "string id", "bool id", "float count",
        "after a range fault"])
def test_constructor_refuses_what_is_not_an_integer(n, edges, message):
    with pytest.raises(GraphStructureError, match=f"^{re.escape(message)}$"):
        Multigraph(n, edges)
    if isinstance(n, int) and list(edges) == list(range(len(edges))):  # the builder takes the same rows
        with pytest.raises(GraphStructureError, match=f"^{re.escape(message)}$"):
            Multigraph.from_edges(n, list(edges.values()))


@pytest.mark.parametrize("edges", [{0: (1, 2), 1: (0, 1)}, {1: [0, 1], 0: [1, 2]}], ids=["ascending", "unsorted"])
def test_constructor_keeps_its_own_table_in_id_order_with_tuple_pairs(edges):
    g = Multigraph(3, edges)
    edges[1] = (0, 2)
    assert list(edge_table(g).items()) == [(0, (1, 2)), (1, (0, 1))]
    # a sequence is kept as a copy too
    pairs = [[1, 2], [0, 1]]
    g = Multigraph(3, pairs)
    pairs[1][0] = 2
    assert list(edge_table(g).items()) == [(0, (1, 2)), (1, (0, 1))]


@pytest.mark.parametrize("edges, missing", [
    ({0: (0, 1), 4: (1, 2)}, 1),
    ({5: (-1, 1)}, 0),
    ({1: (0, 1), 2: (1, 2), 0: (0, 2), 4: (0, 1)}, 3),
    ({0: (0, 1), True: (1, 2)}, 1),  # True == 1, but a bool is no id
], ids=["gap", "no zero", "unsorted gap", "bool one"])
def test_constructor_refuses_ids_that_skip_one_and_names_the_first_missing(edges, missing):
    with pytest.raises(GraphStructureError, match=f"^edge ids must be 0..{len(edges) - 1}: {missing} is missing$"):
        Multigraph(3, edges)


@st.composite
def multigraphs(draw):
    """Parallel edges, isolated vertices, and subgraphs through ``spanning_subgraph``."""
    n = draw(st.integers(min_value=0, max_value=8))
    if n < 2:
        return Multigraph(n, {})
    vertex = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda uv: uv[0] != uv[1]), max_size=14))
    g = Multigraph.from_edges(n, pairs)
    return spanning_subgraph(g, draw(st.sets(st.sampled_from(range(len(pairs))))) if pairs else [])


@settings(max_examples=300, deadline=None)
@given(multigraphs())
def test_walk_queries_match_the_edge_table(g):
    darts = dart_lists(g)
    assert _degrees(g) == [len(at) for at in darts]
    degrees = {len(d) for d in darts}
    assert is_regular(g) == (degrees.pop() if len(degrees) == 1 else None)
    # reference components: merge endpoint classes edge by edge
    label = list(range(g.vertex_count))
    for u, w in edge_table(g).values():
        old, new = label[u], label[w]
        label = [new if x == old else x for x in label]
    classes = {}
    for v in range(g.vertex_count):
        classes.setdefault(label[v], set()).add(v)
    assert connected_components(g) == sorted(map(frozenset, classes.values()), key=min)
