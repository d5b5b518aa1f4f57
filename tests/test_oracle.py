import hashlib
import json
import sys
import tracemalloc
from contextlib import contextmanager
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from kempe_covers import (
    BichromaticCycle,
    ColoringError,
    EdgeColoring,
    EnumerationLimitError,
    Multigraph,
    RegularityError,
    apply_sequence,
    bichromatic_cycles,
    common_degree,
    enumerate_legal_colorings,
    equivalent_without_cover,
    is_legal,
    is_regular,
    kempe_class_partition,
    kempe_cover_witness,
    kempe_switch,
    oracle,
    pullback_coloring,
    random_colored_instance,
    spanning_subgraph,
)
from kempe_covers.oracle import (
    DEFAULT_MAX_EDGES,
    _coloring_keys,
    _edge_colorings,
    _pack,
    _switch_walker,
    _switched,
)

from conftest import dart_lists, make_cube, make_cycle, make_disjoint, make_k33, make_theta


def make_k4():
    return Multigraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def test_theta_has_six_colorings(theta):
    assert len(enumerate_legal_colorings(theta)) == 6


def test_k33_has_twelve_colorings(k33):
    # cross-check: equals the number of 3x3 Latin squares
    colorings = enumerate_legal_colorings(k33)
    assert len(colorings) == 12
    assert len(set(map(color_key, colorings))) == 12
    assert all(is_legal(k33, c) for c in colorings)


def test_enumeration_is_sorted_and_canonical(k33):
    colorings = enumerate_legal_colorings(k33)
    vectors = [tuple(c[e] for e in k33.edge_ids()) for c in colorings]
    assert vectors == sorted(vectors)


def test_petersen_has_no_coloring(petersen, monkeypatch):
    # it has perfect matchings, the five spokes among them, but no 1-factorization
    assert is_regular(spanning_subgraph(petersen, range(5, 10))) == 1
    assert enumerate_legal_colorings(petersen) == []
    # its six perfect matchings pass a bound of five; matched color by color
    # instead, it still has no coloring
    assert count_perfect_matchings(petersen) == 6
    monkeypatch.setattr(oracle, "MAX_COLORINGS", 5)
    assert enumerate_legal_colorings(petersen) == []


def test_enumeration_refuses_large_graphs():
    big = Multigraph.from_edges(32, [(i, (i + 1) % 32) for i in range(32)])
    with pytest.raises(EnumerationLimitError):
        enumerate_legal_colorings(big)
    assert len(enumerate_legal_colorings(big, max_edges=32)) == 2


def test_query_refuses_graphs_above_the_edge_bound(k33, k33_pair):
    c1, c2 = k33_pair
    with pytest.raises(EnumerationLimitError, match="^9 edges exceeds the enumeration bound 8$"):
        equivalent_without_cover(k33, c1, c2, max_edges=8)
    assert equivalent_without_cover(k33, c1, c2, max_edges=9) is None


def test_enumeration_answers_a_cycle_of_2400_vertices():
    # 1,200 matched pairs: a search recursing once per pair would pass the
    # interpreter's default limit of 1,000 calls
    census = kempe_class_partition(make_cycle(2400), max_edges=5000)
    assert (len(census.colorings), len(census.classes)) == (2, 1)


def test_enumeration_answer_does_not_depend_on_call_depth():
    # 850 caller frames leave fewer than the 200 that a search recursing once
    # per matched pair of this cycle would need
    def nested(depth):
        return nested(depth - 1) if depth else kempe_class_partition(make_cycle(400), max_edges=400)

    for depth in (0, 850):
        census = nested(depth)
        assert (len(census.colorings), len(census.classes)) == (2, 1)


def test_theta_single_class_of_six(theta):
    census = kempe_class_partition(theta)
    assert len(census.colorings) == 6
    assert len(census.classes) == 1
    assert len(census.classes[0]) == 6


def test_k33_two_classes(k33):
    census = kempe_class_partition(k33)
    assert len(census.classes) == 2
    assert sorted(len(cls) for cls in census.classes) == [6, 6]
    assert census.representatives == (0, 1)


def test_k4_single_class_of_six():
    census = kempe_class_partition(make_k4())
    assert len(census.colorings) == 6
    assert len(census.classes) == 1


def test_census_paths_replay(k33):
    census = kempe_class_partition(k33)
    for cls in census.classes:
        rep = census.colorings[cls[0]]
        for idx in cls:
            replayed = apply_sequence(k33, rep, census.paths[idx])
            assert replayed == census.colorings[idx]


def test_class_count_stable_under_edge_relabeling():
    # same graph with edges created in a different order
    k33 = make_k33()
    reordered = Multigraph.from_edges(6, [(i, j) for j in range(3, 6) for i in range(3)])
    assert len(kempe_class_partition(k33).classes) == len(
        kempe_class_partition(reordered).classes
    )


def test_equivalent_without_cover_trivial(k33, k33_pair):
    c1, _ = k33_pair
    assert equivalent_without_cover(k33, c1, c1) == ()


def test_equivalent_without_cover_negative(k33, k33_pair):
    c1, c2 = k33_pair
    assert equivalent_without_cover(k33, c1, c2) is None


def test_equivalent_without_cover_one_transposition(theta, theta_coloring):
    goal = EdgeColoring(3, {0: 2, 1: 1, 2: 3})
    path = equivalent_without_cover(theta, theta_coloring, goal)
    assert path is not None
    assert len(path) == 1
    assert apply_sequence(theta, theta_coloring, path) == goal


def test_shortest_path_property(theta, theta_coloring):
    census = kempe_class_partition(make_theta())
    # every coloring of the single class reachable, path lengths at most 2
    # (transpositions generate the symmetric group on three edges)
    assert max(len(p) for p in census.paths.values()) <= 2


def test_random_instance_deterministic():
    a = random_colored_instance(123, 3, 8)
    b = random_colored_instance(123, 3, 8)
    assert a[0] == b[0] and a[1] == b[1] and a[2] == b[2]
    c = random_colored_instance(124, 3, 8)
    assert (a[0], a[1], a[2]) != (c[0], c[1], c[2])


def test_random_instances_are_legal():
    for seed in range(30):
        g, c1, c2 = random_colored_instance(seed, 3, 6)
        assert is_legal(g, c1)
        assert is_legal(g, c2)


def test_random_two_regular_instances():
    g, c1, c2 = random_colored_instance(5, 2, 8)
    assert is_regular(g) == 2
    assert is_legal(g, c1) and is_legal(g, c2)


def test_random_instance_rejects_bad_parameters():
    from kempe_covers import GraphStructureError

    with pytest.raises(GraphStructureError):
        random_colored_instance(0, 3, 7)
    with pytest.raises(GraphStructureError):
        random_colored_instance(0, 0, 8)


def test_enumeration_and_search_stop_at_the_coloring_bound(monkeypatch, theta, k33, k33_pair):
    monkeypatch.setattr(oracle, "MAX_COLORINGS", 5)
    with pytest.raises(EnumerationLimitError, match="more than 5 legal colorings"):
        enumerate_legal_colorings(theta)  # six colorings
    with pytest.raises(EnumerationLimitError):
        kempe_class_partition(theta)
    # the search from c1 sees its whole class of six before it gives up
    with pytest.raises(EnumerationLimitError, match="more than 5 colorings searched"):
        equivalent_without_cover(k33, *k33_pair)
    monkeypatch.setattr(oracle, "MAX_COLORINGS", 6)
    assert len(enumerate_legal_colorings(theta)) == 6
    assert equivalent_without_cover(k33, *k33_pair) is None


def test_instance_beyond_the_coloring_bound_uses_walk_fallback(monkeypatch):
    # d=6 n=8: 24 edges, within the sampling cap, but far more colorings than the bound
    monkeypatch.setattr(oracle, "MAX_COLORINGS", 1000)
    for seed in range(3):
        g, c1, c2 = random_colored_instance(seed, 6, 8)
        assert g.edge_count == 24 and is_legal(g, c1) and is_legal(g, c2)
        assert (g, c1, c2) == random_colored_instance(seed, 6, 8)
        with pytest.raises(EnumerationLimitError):
            enumerate_legal_colorings(g)


def test_large_instance_uses_walk_fallback():
    # 3-regular on 18 vertices -> 27 edges, beyond the uniform-sampling cap
    g, c1, c2 = random_colored_instance(9, 3, 18)
    assert g.edge_count == 27
    assert is_legal(g, c1) and is_legal(g, c2)


# -- reference oracle ---------------------------------------------------------
#
# The oracle as it stood when every coloring it touched was an EdgeColoring:
# used-color sets in the backtrack, a sort by key function, and a fresh
# EdgeColoring per switch neighbour from bichromatic_cycles. The package's
# oracle must return exactly what these return.


def _enumeration_order(g):
    # vertex-local edge order prunes much earlier than raw id order
    order = []
    taken = set()
    for darts in dart_lists(g):
        for e, _ in darts:
            if e not in taken:
                taken.add(e)
                order.append(e)
    return order


def reference_enumerate(g, max_edges=DEFAULT_MAX_EDGES):
    d = is_regular(g)
    if d is None:
        raise RegularityError("enumeration needs a regular graph")
    if g.edge_count > max_edges:
        raise EnumerationLimitError(f"{g.edge_count} edges exceeds the enumeration bound {max_edges}")
    order = _enumeration_order(g)
    used = [set() for _ in range(g.vertex_count)]
    assignment = {}
    found = []

    def backtrack(k):
        if k == len(order):
            found.append(EdgeColoring(d, dict(assignment)))
            return
        e = order[k]
        u, v = g.endpoints(e)
        for color in range(1, d + 1):
            if color in used[u] or color in used[v]:
                continue
            assignment[e] = color
            used[u].add(color)
            used[v].add(color)
            backtrack(k + 1)
            del assignment[e]
            used[u].discard(color)
            used[v].discard(color)

    backtrack(0)
    ids = g.edge_ids()
    found.sort(key=lambda c: tuple(c[e] for e in ids))
    return found


def color_key(c):
    """A coloring's (edge, color) rows in edge order: equal for equal colorings of one degree."""
    return tuple(sorted(c.items()))


def reference_neighbors(g, c):
    for i, j in combinations(range(1, c.degree + 1), 2):
        for cycle in bichromatic_cycles(g, c, i, j):
            yield cycle, kempe_switch(g, c, cycle)


def reference_partition(g):
    colorings = reference_enumerate(g)
    index_of = {color_key(c): k for k, c in enumerate(colorings)}
    paths, classes = {}, []
    visited = [False] * len(colorings)
    for root in range(len(colorings)):
        if visited[root]:
            continue
        visited[root] = True
        paths[root] = ()
        members, frontier = [root], [root]
        while frontier:
            nxt = []
            for idx in frontier:
                for cycle, neighbor in reference_neighbors(g, colorings[idx]):
                    n_idx = index_of[color_key(neighbor)]
                    if not visited[n_idx]:
                        visited[n_idx] = True
                        paths[n_idx] = paths[idx] + (cycle,)
                        members.append(n_idx)
                        nxt.append(n_idx)
            frontier = nxt
        classes.append(tuple(sorted(members)))
    return colorings, classes, [cls[0] for cls in classes], paths


def reference_query(g, c1, c2):
    common_degree(g, c1, c2)
    if c1 == c2:
        return ()
    seen = {color_key(c1): ()}
    frontier = [c1]
    while frontier:
        nxt = []
        for current in frontier:
            for cycle, neighbor in reference_neighbors(g, current):
                if color_key(neighbor) in seen:
                    continue
                path = seen[color_key(neighbor)] = seen[color_key(current)] + (cycle,)
                if neighbor == c2:
                    return path
                nxt.append(neighbor)
        frontier = nxt
    return None


def assert_matches_reference(g):
    census = kempe_class_partition(g)
    colorings, classes, representatives, paths = reference_partition(g)
    assert enumerate_legal_colorings(g) == colorings
    assert list(census.colorings) == colorings
    assert list(census.classes) == classes
    assert list(census.representatives) == representatives
    assert census.paths == paths  # BichromaticCycle equality compares the sorted edge ids
    # a representative to its farthest member, and across two classes
    largest = max(classes, key=len)
    rep, member = colorings[largest[0]], colorings[max(largest, key=lambda i: len(paths[i]))]
    queries = [(rep, member), (member, rep)]
    if len(classes) > 1:
        queries.append((colorings[classes[-1][-1]], rep))
    for a, b in queries:
        assert equivalent_without_cover(g, a, b) == reference_query(g, a, b)
    return census


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from([(1, 2), (1, 8), (2, 8), (2, 12), (3, 8), (3, 12), (4, 6), (4, 8), (5, 4)]),
)
def test_oracle_matches_reference_on_random_bases(seed, shape):
    g, _, _ = random_colored_instance(seed, *shape)
    # a few d=5 n=4 bases have 14,400 colorings: seconds each on the reference
    assume(len(reference_enumerate(g)) <= 1500)
    assert_matches_reference(g)


def make_parallel(k):
    return Multigraph.from_edges(2, [(0, 1)] * k)


def subgraph_base():
    g, _, c2 = random_colored_instance(3, 4, 8)
    return spanning_subgraph(g, [e for e, col in c2.items() if col < 4])


@pytest.mark.parametrize("make", [
    make_k33, make_theta, make_k4, make_cube, subgraph_base,
    # multigraph thetas: k parallel edges have k! colorings
    pytest.param(lambda: make_parallel(1), id="theta1"),
    pytest.param(lambda: make_parallel(2), id="theta2"),
    pytest.param(lambda: make_parallel(5), id="theta5"),
])
def test_oracle_matches_reference_on_fixed_bases(make):
    g = make()
    census = assert_matches_reference(g)
    assert census.colorings


def test_subgraph_base_numbers_its_edges_by_position():
    # the rest of a 4-regular instance without one color class: its ids are 0..E-1, in the full graph's order
    g, _, c2 = random_colored_instance(3, 4, 8)
    rest = [e for e, col in c2.items() if col < 4]
    h = subgraph_base()
    assert is_regular(h) == 3
    assert h.edge_ids() == tuple(range(len(rest)))
    assert [h.endpoints(i) for i in h.edge_ids()] == [g.endpoints(e) for e in rest]


# -- the perfect-matching enumerator against the reference ---------------------
#
# The package lists colorings as ordered choices of disjoint perfect
# matchings; the reference backtracks over edges. Both must give the same
# colorings in the same order, and stop at the same bound.


@settings(max_examples=5, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_enumeration_matches_reference_on_random_bases(seed):
    # d=5 n=4 bases with up to 14,400 colorings, which the census property skips
    g, _, _ = random_colored_instance(seed, 5, 4)
    assert enumerate_legal_colorings(g) == reference_enumerate(g)


def count_perfect_matchings(g):
    darts = dart_lists(g)

    def count(free):
        if not free:
            return 1
        v = (free & -free).bit_length() - 1
        ends = (g.endpoints(e) for e, _ in darts[v])
        return sum(count(free & ~(1 << a | 1 << b)) for a, b in ends if free >> (a ^ b ^ v) & 1)
    return count((1 << g.vertex_count) - 1)


@pytest.mark.parametrize(
    "make, matchings",
    [(make_k33, 6), pytest.param(lambda: make_parallel(5), 5, id="theta5"),
     pytest.param(lambda: random_colored_instance(7, 4, 8)[0], 18, id="d4n8"),
     # more perfect matchings than colorings: at the exact bound the
     # matching list overflows and the colors are matched one by one
     pytest.param(lambda: random_colored_instance(41, 3, 12)[0], 8, id="d3n12-8-matchings"),
     pytest.param(lambda: random_colored_instance(75, 3, 12)[0], 13, id="d3n12-13-matchings")],
)
def test_coloring_bound_is_exact(monkeypatch, make, matchings):
    g = make()
    assert count_perfect_matchings(g) == matchings
    expected = reference_enumerate(g)
    total = len(expected)
    monkeypatch.setattr(oracle, "MAX_COLORINGS", total)
    assert enumerate_legal_colorings(g) == expected
    monkeypatch.setattr(oracle, "MAX_COLORINGS", total - 1)
    with pytest.raises(EnumerationLimitError, match=f"more than {total - 1} legal colorings"):
        enumerate_legal_colorings(g)


@contextmanager
def counting_oracle_calls():
    """Counts the Python calls made in the oracle module inside the block."""
    calls = [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == oracle.__file__:
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield calls
    finally:
        sys.setprofile(previous)


@pytest.mark.parametrize("d, bonds", [(2, 20), (3, 13)])
def test_enumeration_work_stops_near_the_coloring_bound(monkeypatch, d, bonds):
    # disjoint d-fold bonds: d ** bonds perfect matchings (a million or more)
    # and d! ** bonds colorings; listing every matching first would take
    # millions of calls before the bound of 1000 colorings is seen
    g = Multigraph.from_edges(2 * bonds, [(2 * k, 2 * k + 1) for k in range(bonds) for _ in range(d)])
    monkeypatch.setattr(oracle, "MAX_COLORINGS", 1000)
    with counting_oracle_calls() as calls, pytest.raises(EnumerationLimitError, match="more than 1000 legal colorings"):
        enumerate_legal_colorings(g, max_edges=g.edge_count)
    assert calls[0] < 10_000


def test_d6_generation_work_to_the_coloring_bound():
    # 24 edges and far more colorings than MAX_COLORINGS: the enumeration
    # runs to the bound before the generator falls back to a switch walk.
    # About 0.7 million calls; an edge-by-edge backtrack made 6.3 million
    with counting_oracle_calls() as calls:
        random_colored_instance(2, 6, 8)
    assert calls[0] < 1_500_000


def test_edgeless_graph_has_degree_zero_and_no_coloring_object():
    g = Multigraph(4, {})
    assert is_regular(g) == 0
    # the one empty coloring cannot be an EdgeColoring of degree 0
    assert _coloring_keys(g, DEFAULT_MAX_EDGES) == (0, [0])
    with pytest.raises(ColoringError):
        enumerate_legal_colorings(g)


def test_edgeless_enumeration_builds_no_table_of_the_vertices():
    g = Multigraph(10**6, {})
    tracemalloc.start()
    try:
        assert _coloring_keys(g, DEFAULT_MAX_EDGES) == (0, [0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # a list per vertex would take tens of MB


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=300).flatmap(
    lambda d: st.tuples(st.just(d), st.lists(
        st.lists(st.integers(min_value=1, max_value=d), min_size=6, max_size=6), min_size=1, max_size=12))
))
def test_sorted_keys_decode_to_sorted_color_tuples(case):
    d, vectors = case
    g = make_parallel(6)
    keys = sorted(_pack(vector, d.bit_length()) for vector in vectors)
    decoded = [tuple(c[e] for e in g.edge_ids()) for c in _edge_colorings(g, d, keys)]
    assert decoded == sorted(map(tuple, vectors))


def test_query_on_a_theta_with_colors_beyond_one_byte():
    # 256 parallel edges: colors up to 256 need 9-bit fields; the switch is
    # on the last color pair, so every neighbour of the start gets packed
    g = make_parallel(256)
    c1 = EdgeColoring(256, {e: e + 1 for e in g.edge_ids()})
    c2 = EdgeColoring(256, {e: {254: 256, 255: 255}.get(e, e + 1) for e in g.edge_ids()})
    path = equivalent_without_cover(g, c1, c2, max_edges=256)
    assert path == (BichromaticCycle((255, 256), (254, 255)),)
    assert apply_sequence(g, c1, path) == c2


# -- the packed-key switch walk beyond census sizes ----------------------------
#
# Up to 60 edges: cycles longer than a census base has, and keys wider than
# 30 edges' worth of color fields.


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([(3, 24), (3, 40), (4, 16), (4, 30), (5, 12), (5, 24)]),
    st.data(),
)
def test_switch_walker_matches_bichromatic_cycles(seed, shape, data):
    d, n = shape
    g, _, c2 = random_colored_instance(seed, d, n)
    ids, width = g.edge_ids(), d.bit_length()

    def key(c):
        return _pack((c[e] for e in ids), width)

    masks_of, neighbors, cycle_of = _switch_walker(g, d)
    walked = list(neighbors(key(c2), masks_of(key(c2))))
    expected = [cycle for i, j in combinations(range(1, d + 1), 2)
                for cycle in bichromatic_cycles(g, c2, i, j)]
    assert [cycle_of(pair, fields) for pair, fields, _ in walked] == expected
    for cycle, (_, _, mask) in zip(expected, walked):
        assert key(c2) ^ mask == key(kempe_switch(g, c2, cycle))
    goal = kempe_switch(g, c2, data.draw(st.sampled_from(expected)))
    path = equivalent_without_cover(g, c2, goal, max_edges=60)
    assert path is not None and len(path) <= 1
    assert apply_sequence(g, c2, path) == goal


# -- the theorem on small covers, checked by the oracle's own walker -----------
#
# Every witness claim elsewhere goes through the replay, the code under test.
# The packed-key walker shares nothing with it. Only d = 3 fits the oracle:
# a d=3 witness cover has beta(3) = 2 times the base's edges, so bases of at
# most 15 edges stay within DEFAULT_MAX_EDGES = 30, while beta(4) = 12 puts
# every d=4 cover past it.


@pytest.fixture(scope="module")
def two_class_censuses():
    """Censuses of small cubic bases, each with at least two Kempe classes."""
    bases = [make_k33(), make_disjoint(make_k33(), make_theta())]
    bases += [random_colored_instance(seed, 3, n)[0] for seed, n in [(17, 8), (22, 8), (2, 10), (9, 10)]]
    censuses = [kempe_class_partition(g) for g in bases]
    assert all(len(census.classes) >= 2 for census in censuses)
    assert all(2 * g.edge_count <= DEFAULT_MAX_EDGES for g in bases)
    return censuses


def walk_in_the_oracle_graph(g, start, switches):
    """The packed coloring reached from ``start`` along ``switches``, each checked
    to be one edge of the oracle's Kempe graph on ``g``: a whole two-color component."""
    d = start.degree
    masks_of, neighbors, cycle = _switch_walker(g, d)
    key = _pack(map(start._colors.__getitem__, g.edge_ids()), d.bit_length())
    for k, switch in enumerate(switches):
        moves = {cycle(pair, covered): mask for pair, covered, mask in neighbors(key, masks_of(key))}
        assert switch in moves, f"witness switch {k} is not one switch of the oracle's Kempe graph"
        key ^= moves[switch]
    return key


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_the_oracle_confirms_each_witness_on_its_cover(two_class_censuses, data):
    census = data.draw(st.sampled_from(two_class_censuses))
    g = census.graph
    first, second = data.draw(st.lists(st.sampled_from(census.classes), min_size=2, max_size=2, unique=True))
    c1 = census.colorings[data.draw(st.sampled_from(first))]
    c2 = census.colorings[data.draw(st.sampled_from(second))]
    assert equivalent_without_cover(g, c1, c2) is None
    w = kempe_cover_witness(g, c1, c2)
    cover = w.cover.source
    start, goal = pullback_coloring(w.cover, c1), pullback_coloring(w.cover, c2)
    path = equivalent_without_cover(cover, start, goal)
    assert path is not None and len(path) <= len(w.switches)
    end = walk_in_the_oracle_graph(cover, start, w.switches)
    assert end == _pack(map(goal._colors.__getitem__, cover.edge_ids()), start.degree.bit_length())


# -- the census output, pinned byte for byte ------------------------------------
#
# The digest pins the classes, representatives, paths and query answers of
# the search that decodes and walks every coloring; a walker that reuses
# the components of a two-color factor met before, and searches that carry
# each coloring's color masks from the one it was reached from, must leave
# it equal.


CENSUS_DIGEST_BASES = [(1, 3, 16), (1, 4, 8), (3, 4, 8), (1, 5, 4)]
CENSUS_DIGEST = "0e5b9e9e57796ff419bb9ef70cfe79d57174ce1a0c319af6a491de56968ed43b"


def census_and_queries_text(seed, d, n):
    """The census of ``random_colored_instance(seed, d, n)``'s graph and three path queries, as JSON.

    The queries go from the first class's second member to its deepest one,
    from the last class's deepest member to the first representative, and
    from the first class's deepest member to the last class's last member;
    the last two cross classes whenever the census has two."""
    g = random_colored_instance(seed, d, n)[0]
    census = kempe_class_partition(g)
    colorings, paths = census.colorings, census.paths
    deepest = [max(cls, key=lambda i: (len(paths[i]), i)) for cls in census.classes]
    queries = [(census.classes[0][1], deepest[0]), (deepest[-1], census.representatives[0]),
               (deepest[0], census.classes[-1][-1])]
    answers = [equivalent_without_cover(g, colorings[a], colorings[b]) for a, b in queries]

    def switches(path):
        return None if path is None else [[s.colors, s.edge_ids] for s in path]

    return json.dumps({
        "colorings": [c._colors for c in colorings],
        "classes": census.classes,
        "representatives": census.representatives,
        "paths": sorted((i, switches(path)) for i, path in paths.items()),
        "queries": [[a, b, switches(answer)] for (a, b), answer in zip(queries, answers)],
    }, separators=(",", ":"))


def test_census_and_queries_are_byte_identical():
    digest = hashlib.sha256()
    for seed, d, n in CENSUS_DIGEST_BASES:
        digest.update(census_and_queries_text(seed, d, n).encode())
    assert digest.hexdigest() == CENSUS_DIGEST


@pytest.mark.parametrize("seed, d, n", [(1, 3, 16), (1, 4, 8), (2, 5, 4)])
def test_a_reused_switch_walker_yields_what_a_fresh_one_yields(seed, d, n):
    # one walker across every coloring meets most two-color factors again,
    # and must answer them from what it walked before exactly as a fresh walk does
    g = random_colored_instance(seed, d, n)[0]
    _, keys = _coloring_keys(g, DEFAULT_MAX_EDGES)
    masks_of, neighbors, _ = _switch_walker(g, d)
    for key in keys + keys[::-1]:
        fresh_masks_of, fresh_neighbors, _ = _switch_walker(g, d)
        assert list(neighbors(key, masks_of(key))) == list(fresh_neighbors(key, fresh_masks_of(key)))


@pytest.mark.parametrize("seed, d, n", CENSUS_DIGEST_BASES)
def test_masks_carried_through_a_switch_equal_masks_read_from_its_key(seed, d, n):
    # the searches read masks from a key only where they start; every other
    # coloring's come from the coloring it was reached from, through its move
    g = random_colored_instance(seed, d, n)[0]
    _, keys = _coloring_keys(g, DEFAULT_MAX_EDGES)
    masks_of, neighbors, _ = _switch_walker(g, d)
    moves = 0
    for key in keys:
        masks = masks_of(key)
        for pair, covered, mask in neighbors(key, masks):
            assert _switched(masks, pair, covered) == masks_of(key ^ mask)
            moves += 1
        assert masks == masks_of(key)
    assert moves >= len(keys)
