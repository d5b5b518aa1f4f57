from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from kempe_covers import (
    BichromaticCycle,
    ColoringError,
    EdgeColoring,
    IllegalColoringError,
    Multigraph,
    StaleSwitchError,
    UnknownEdgeError,
    apply_sequence,
    bichromatic_cycles,
    color_class_subgraph,
    is_legal,
    kempe_switch,
    random_colored_instance,
)
from kempe_covers.coloring import WorkingColoring, _cycle_decomposition, _validate_switch

from conftest import K33_C1, alternating_coloring, cube_dimension_coloring, make_cube, make_cycle, make_k33


def test_coloring_rejects_out_of_range():
    with pytest.raises(ColoringError):
        EdgeColoring(3, {0: 4})
    with pytest.raises(ColoringError):
        EdgeColoring(3, {0: 0})


def test_is_legal(k33, k33_pair):
    c1, c2 = k33_pair
    assert is_legal(k33, c1)
    assert is_legal(k33, c2)
    six = make_cycle(6)
    assert is_legal(six, alternating_coloring(6))
    triangle = make_cycle(3)
    assert not is_legal(triangle, EdgeColoring(2, {0: 1, 1: 2, 2: 1}))


def test_is_legal_rejects_partial(k33):
    with pytest.raises(ColoringError):
        is_legal(k33, EdgeColoring(3, {0: 1}))


def test_color_class_subgraph(k33, k33_pair):
    c1, _ = k33_pair
    assert color_class_subgraph(k33, c1, {1, 2, 3}) == k33
    matching = color_class_subgraph(k33, c1, {3})
    assert matching.edge_count == 3
    assert all(matching.degree(v) == 1 for v in matching.vertices())
    two = color_class_subgraph(k33, c1, {1, 2})
    assert all(two.degree(v) == 2 for v in two.vertices())
    with pytest.raises(ColoringError):
        color_class_subgraph(k33, c1, {4})


def test_theta_two_cycle(theta, theta_coloring):
    cycles = bichromatic_cycles(theta, theta_coloring, 1, 2)
    assert len(cycles) == 1
    assert sorted(cycles[0].edges) == [0, 1]
    assert len(cycles[0]) == 2


def test_k33_single_six_cycle(k33, k33_pair):
    # two disjoint perfect matchings of K3,3 always close into one 6-cycle
    c1, _ = k33_pair
    cycles = bichromatic_cycles(k33, c1, 1, 2)
    assert len(cycles) == 1
    assert len(cycles[0]) == 6


def test_cube_pair_splits_into_two_squares():
    cube = make_cube()
    c = cube_dimension_coloring()
    cycles = bichromatic_cycles(cube, c, 1, 2)
    assert sorted(len(cy) for cy in cycles) == [4, 4]
    union = set()
    for cy in cycles:
        assert not union & cy.edges
        union |= cy.edges
    assert union == {e for e in cube.edge_ids() if c[e] in (1, 2)}


def test_bichromatic_rejects_equal_colors(k33, k33_pair):
    with pytest.raises(ColoringError):
        bichromatic_cycles(k33, k33_pair[0], 2, 2)


def test_canonical_walk_starts_at_smallest_dart(k33, k33_pair):
    for i in range(1, 4):
        for j in range(i + 1, 4):
            for cycle in bichromatic_cycles(k33, k33_pair[0], i, j):
                assert cycle.darts[0] == (min(cycle.edges), 0)


def test_cycle_decomposition_canonical_walks():
    # two triangles, one with a reversed stored edge; vertex 3 is isolated
    g = Multigraph.from_edges(7, [(0, 1), (4, 5), (2, 1), (5, 6), (0, 2), (6, 4)])
    walks = _cycle_decomposition(g, [5, 2, 0, 3, 4, 1])
    assert walks == [((0, 0), (2, 1), (4, 1)), ((1, 0), (3, 0), (5, 0))]


@pytest.mark.parametrize("g", [
    Multigraph.from_edges(3, [(0, 1), (1, 2)]),  # path: its ends meet one edge
    Multigraph.from_edges(2, [(0, 1)] * 3),  # theta: both vertices meet three
])
def test_cycle_decomposition_rejects_non_two_regular(g):
    with pytest.raises(IllegalColoringError):
        _cycle_decomposition(g, g.edge_ids())


def test_theta_switch_is_transposition(theta, theta_coloring):
    cycle = bichromatic_cycles(theta, theta_coloring, 1, 2)[0]
    switched = kempe_switch(theta, theta_coloring, cycle)
    assert switched[0] == 2 and switched[1] == 1 and switched[2] == 3


def test_switch_is_involution(theta, theta_coloring):
    cycle = bichromatic_cycles(theta, theta_coloring, 1, 2)[0]
    once = kempe_switch(theta, theta_coloring, cycle)
    again = kempe_switch(theta, once, cycle)
    assert again == theta_coloring


def test_switch_whole_even_cycle():
    six = make_cycle(6)
    c = alternating_coloring(6)
    cycle = bichromatic_cycles(six, c, 1, 2)[0]
    flipped = kempe_switch(six, c, cycle)
    assert all(flipped[e] != c[e] for e in six.edge_ids())


def test_stale_switch_rejected(k33, k33_pair):
    c1, _ = k33_pair
    cycle12 = bichromatic_cycles(k33, c1, 1, 2)[0]
    after = kempe_switch(k33, c1, cycle12)
    # the (1,3)-cycle of the switched coloring is not bi-chromatic for c1
    stale = bichromatic_cycles(k33, after, 1, 3)[0]
    with pytest.raises(StaleSwitchError):
        kempe_switch(k33, c1, stale)


def test_fabricated_partial_cycle_rejected(k33, k33_pair):
    c1, _ = k33_pair
    full = bichromatic_cycles(k33, c1, 1, 2)[0]
    partial = BichromaticCycle(full.colors, full.darts[:2])
    with pytest.raises(StaleSwitchError):
        kempe_switch(k33, c1, partial)


def test_apply_sequence(theta, theta_coloring):
    assert apply_sequence(theta, theta_coloring, ()) == theta_coloring
    cycle = bichromatic_cycles(theta, theta_coloring, 1, 2)[0]
    # the switched pair class keeps the same edge set, so replaying the same
    # object is valid and undoes the switch
    assert apply_sequence(theta, theta_coloring, (cycle, cycle)) == theta_coloring


def test_apply_sequence_reports_stale_index(k33, k33_pair):
    c1, _ = k33_pair
    cycle12 = bichromatic_cycles(k33, c1, 1, 2)[0]
    cycle13 = bichromatic_cycles(k33, c1, 1, 3)[0]
    # after the (1,2) switch the old (1,3)-cycle carries a color-2 edge
    with pytest.raises(StaleSwitchError) as info:
        apply_sequence(k33, c1, (cycle12, cycle13))
    assert info.value.index == 1


def test_apply_sequence_involution_via_recomputed_cycle(theta, theta_coloring):
    first = bichromatic_cycles(theta, theta_coloring, 1, 2)[0]
    mid = kempe_switch(theta, theta_coloring, first)
    second = bichromatic_cycles(theta, mid, 1, 2)[0]
    assert apply_sequence(theta, theta_coloring, (first, second)) == theta_coloring


def test_switch_preserves_other_classes_and_pair_class(k33, k33_pair):
    c1, _ = k33_pair
    cycle = bichromatic_cycles(k33, c1, 1, 2)[0]
    after = kempe_switch(k33, c1, cycle)
    assert after.color_class(3) == c1.color_class(3)
    assert after.color_class(1) | after.color_class(2) == c1.color_class(1) | c1.color_class(2)


def test_closed_alternating_walk_with_a_third_pair_edge_is_not_a_component():
    # the square 0-1-2-3 alternates colors 1 and 2 and closes, but the chord
    # 0-2 also has color 1 (the coloring is illegal), so vertex 0 meets three
    # edges of the pair and the square is only part of its component
    g = Multigraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    c = EdgeColoring(3, {0: 1, 1: 2, 2: 1, 3: 2, 4: 1})
    square = BichromaticCycle((1, 2), ((0, 0), (1, 0), (2, 0), (3, 0)))
    with pytest.raises(StaleSwitchError, match="not a full two-color component at vertex 0"):
        kempe_switch(g, c, square)
    with pytest.raises(StaleSwitchError, match="not a full two-color component at vertex 0") as info:
        apply_sequence(g, c, (square,))
    assert info.value.index == 0


# -- reference switch kernels -----------------------------------------------

# The walk decomposition and the switch validator as they stood before each
# became one pass over the raw tables: per-dart graph and coloring accessors,
# and a list of the pair-colored edges at every visited vertex. The package's
# kernels must give the same walks, and accept or reject every switch with
# the same message, except that the reference reads the next dart's
# endpoints before checking its edge: an unknown edge there raised
# UnknownEdgeError, where the package names it as a stale switch.


def reference_cycle_decomposition(g, edges):
    member = set(edges)
    table, incidence = g._edges, g._incidence
    walks = []
    used = set()
    for first in sorted(member):
        if first in used:
            continue
        start = (first, 0)
        darts = [start]
        e, slot = start
        while True:
            nxt = None
            for dart in incidence[table[e][1 - slot]]:
                if dart[0] != e and dart[0] in member:
                    if nxt is not None:
                        nxt = None
                        break
                    nxt = dart
            if nxt is None:
                raise IllegalColoringError("edge set is not 2-regular on its support")
            if nxt == start:
                break
            darts.append(nxt)
            e, slot = nxt
        used.update(f for f, _ in darts)
        walks.append(tuple(darts))
    return walks


def reference_validate_switch(g, c, cycle, index=None):
    def stale(msg):
        at = "" if index is None else f" (sequence position {index})"
        return StaleSwitchError(f"stale switch{at}: {msg}", index=index)

    lo, hi = cycle.colors
    if not (1 <= lo < hi <= c.degree):
        raise stale(f"color pair {cycle.colors} invalid for degree {c.degree}")
    if not cycle.darts:
        raise stale("empty cycle")
    edges = [e for e, _ in cycle.darts]
    if len(set(edges)) != len(edges):
        raise stale("repeated edge in walk")
    prev_color = None
    for k, (e, slot) in enumerate(cycle.darts):
        if not g.has_edge(e):
            raise stale(f"edge {e} not in graph")
        col = c[e]
        if col not in (lo, hi):
            raise stale(f"edge {e} has color {col}, not in {cycle.colors}")
        if col == prev_color:
            raise stale(f"colors do not alternate at edge {e}")
        prev_color = col
        nxt_e, nxt_slot = cycle.darts[(k + 1) % len(cycle.darts)]
        if g.endpoints(e)[1 - slot] != g.endpoints(nxt_e)[nxt_slot]:
            raise stale(f"walk breaks between edges {e} and {nxt_e}")
    if c[cycle.darts[-1][0]] == c[cycle.darts[0][0]] and len(cycle.darts) > 1:
        raise stale("colors do not alternate around the closing edge")
    cycle_edges = cycle.edges
    for e, slot in cycle.darts:
        v = g.endpoints(e)[slot]
        local = [f for f, _ in g.darts_at(v) if c[f] in (lo, hi)]
        if len(local) != 2 or any(f not in cycle_edges for f in local):
            raise stale(f"cycle is not a full two-color component at vertex {v}")


TRIANGLE = Multigraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
K33_12 = ((0, 0), (3, 1), (5, 0), (8, 1), (7, 0), (1, 1))  # the (1, 2)-cycle of conftest's K33_C1


@pytest.mark.parametrize("g, colors, pair, darts, message", [
    (make_k33(), K33_C1, (1, 4), K33_12, r"color pair \(1, 4\) invalid for degree 3"),
    (make_k33(), K33_C1, (1, 2), (), "empty cycle"),
    (make_k33(), K33_C1, (1, 2), K33_12 + K33_12[:1], "repeated edge in walk"),
    (TRIANGLE, (1, 1, 2), (1, 2), ((0, 0), (1, 0), (2, 0)), "colors do not alternate at edge 1"),
    (TRIANGLE, (1, 2, 1), (1, 2), ((0, 0), (1, 0), (2, 0)), "colors do not alternate around the closing edge"),
    (make_k33(), K33_C1[:8], (1, 2), K33_12, "edge 8 is not colored"),
])
def test_switch_checks_no_other_test_reaches(g, colors, pair, darts, message):
    c = EdgeColoring(3, dict(enumerate(colors)))
    cycle = BichromaticCycle(pair, darts)
    error = ColoringError if "not colored" in message else StaleSwitchError
    for validate in (_validate_switch, reference_validate_switch):
        with pytest.raises(error, match=message):
            validate(g, c, cycle)


INSTANCES = st.tuples(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=3, max_value=5),
    st.sampled_from([4, 6, 8]),
)

MUTATIONS = ("drop", "duplicate", "swap", "rotate", "flip", "foreign", "unknown", "pair", "recolor", "uncolor")


def color_pair(draw, d):
    return draw(st.lists(st.integers(min_value=1, max_value=d), min_size=2, max_size=2, unique=True))


def mutated_switch(draw, g, c, cycle):
    """One mutation of a valid switch; returns the coloring and the walk to check."""
    darts, pair = list(cycle.darts), cycle.colors
    d, k = c.degree, draw(st.integers(min_value=0, max_value=len(darts) - 1))
    colors = dict(c.items())
    kind = draw(st.sampled_from(MUTATIONS))
    if kind == "drop":
        del darts[k]
    elif kind == "duplicate":
        darts.insert(draw(st.integers(min_value=0, max_value=len(darts))), darts[k])
    elif kind == "swap":
        j = draw(st.integers(min_value=0, max_value=len(darts) - 1))
        darts[k], darts[j] = darts[j], darts[k]
    elif kind == "rotate":
        darts = darts[k:] + darts[:k]
    elif kind == "flip":
        darts[k] = (darts[k][0], 1 - darts[k][1])
    elif kind == "foreign":
        darts[k] = (draw(st.sampled_from(g.edge_ids())), draw(st.integers(min_value=0, max_value=1)))
    elif kind == "unknown":
        darts[k] = (max(g.edge_ids()) + 1 + k, 0)
    elif kind == "pair":
        pair = tuple(draw(st.lists(st.integers(min_value=0, max_value=d + 1), min_size=2, max_size=2)))
    elif kind == "recolor":
        colors[draw(st.sampled_from(g.edge_ids()))] = draw(st.integers(min_value=1, max_value=d))
    else:
        colors.pop(draw(st.sampled_from(g.edge_ids())), None)
    return EdgeColoring(d, colors), BichromaticCycle(pair, tuple(darts))


def verdict(validate, g, c, cycle, index):
    try:
        validate(g, c, cycle, index)
    except (StaleSwitchError, ColoringError, UnknownEdgeError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "index", None)
    return None


@settings(max_examples=400, deadline=None)
@given(INSTANCES, st.data())
def test_validate_switch_matches_reference(instance, data):
    g, c1, c2 = random_colored_instance(*instance)
    c = data.draw(st.sampled_from([c1, c2]))
    cycle = data.draw(st.sampled_from(bichromatic_cycles(g, c, *color_pair(data.draw, c.degree))))
    if data.draw(st.booleans()):  # replay against an already switched coloring
        other = data.draw(st.sampled_from(bichromatic_cycles(g, c, *color_pair(data.draw, c.degree))))
        c = kempe_switch(g, c, other)
    for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
        if cycle.darts:
            c, cycle = mutated_switch(data.draw, g, c, cycle)
    index = data.draw(st.none() | st.integers(min_value=0, max_value=99))
    target = data.draw(st.sampled_from([c, WorkingColoring(g, c)]))
    got = verdict(_validate_switch, g, target, cycle, index)
    want = verdict(reference_validate_switch, g, target, cycle, index)
    if want is not None and want[0] == "UnknownEdgeError":
        # the reference tripped over the next dart's unknown edge
        unknown = int(want[1].split()[-1])
        at = "" if index is None else f" (sequence position {index})"
        want = "StaleSwitchError", f"stale switch{at}: edge {unknown} not in graph", index
    assert got == want


def is_two_regular(g, edges):
    meets = Counter(g.endpoints(e)[slot] for e in edges for slot in (0, 1))
    return all(count == 2 for count in meets.values())


@settings(max_examples=150, deadline=None)
@given(INSTANCES, st.data())
def test_cycle_decomposition_matches_reference(instance, data):
    g, c1, _ = random_colored_instance(*instance)
    i, j = color_pair(data.draw, c1.degree)
    edges = {e for e in g.edge_ids() if c1[e] in (i, j)}
    # a 2-regular union of two-color cycles, then a few edges toggled
    toggled = data.draw(st.sets(st.sampled_from(g.edge_ids()), max_size=3))
    edges ^= toggled
    if is_two_regular(g, edges):
        assert _cycle_decomposition(g, edges) == reference_cycle_decomposition(g, edges)
    else:
        for decompose in (_cycle_decomposition, reference_cycle_decomposition):
            with pytest.raises(IllegalColoringError, match="not 2-regular"):
                decompose(g, edges)
