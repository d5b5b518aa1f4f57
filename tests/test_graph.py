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
    disjoint_union,
    is_regular,
    spanning_subgraph,
)
from kempe_covers import graph
from kempe_covers.graph import _degrees

from conftest import dart_lists, make_cycle, make_k33, make_theta


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
    two_cycles, _ = disjoint_union([make_cycle(4)] * 2)
    assert len(connected_components(two_cycles)) == 2
    edgeless = Multigraph(5, {})
    comps = connected_components(edgeless)
    assert comps == [frozenset({v}) for v in range(5)]


def test_spanning_subgraph_preserves_ids():
    g = make_k33()
    assert spanning_subgraph(g, g.edge_ids()) == g
    empty = spanning_subgraph(g, [])
    assert empty.vertex_count == g.vertex_count and empty.edge_count == 0
    sub = spanning_subgraph(g, [2, 5, 8])
    assert sub.edge_ids() == (2, 5, 8)
    assert sub.endpoints(5) == g.endpoints(5)
    with pytest.raises(UnknownEdgeError):
        spanning_subgraph(g, [99])


def test_spanning_subgraph_color_class_is_matching(k33, k33_pair):
    c1, _ = k33_pair
    matching = spanning_subgraph(k33, [e for e in k33.edge_ids() if c1[e] == 3])
    assert matching.edge_count == 3
    assert is_regular(matching) == 1


def test_disjoint_union_preserves_endpoint_order():
    g = Multigraph.from_edges(3, [(2, 0), (1, 2)])
    parts = [g, spanning_subgraph(make_k33(), [1, 5]), g]
    union, emaps = disjoint_union(parts)
    offset = 0
    for part, emap in zip(parts, emaps):
        for old in part.edge_ids():
            u, w = part.endpoints(old)
            assert union.endpoints(emap[old]) == (u + offset, w + offset)
        offset += part.vertex_count  # each part's vertices follow the previous parts'
    assert union.vertex_count == offset


@pytest.mark.parametrize("n, edges, error, message", [
    (3, {0: (0, 1), 4: (2, 2)}, LoopEdgeError, "edge 4 would be a loop at vertex 2"),
    (3, {0: (0, 1), 2: (1, 3)}, UnknownVertexError, "edge 2: vertex 3 not in graph"),
    (3, {5: (-1, 1)}, UnknownVertexError, "edge 5: vertex -1 not in graph"),
    (-1, {}, GraphStructureError, "negative vertex count -1"),
])
def test_construction_errors_raise_before_any_walk(monkeypatch, n, edges, error, message):
    walks = []
    monkeypatch.setattr(graph, "_degrees", walks.append)
    with pytest.raises(error, match=message):
        Multigraph(n, edges)
    assert walks == []


@st.composite
def multigraphs(draw):
    """Parallel edges, isolated vertices, and gapped ids through ``spanning_subgraph``."""
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
    label = list(g.vertices())
    for u, w in g._edges.values():
        old, new = label[u], label[w]
        label = [new if x == old else x for x in label]
    classes = {}
    for v in g.vertices():
        classes.setdefault(label[v], set()).add(v)
    assert connected_components(g) == sorted(map(frozenset, classes.values()), key=min)
