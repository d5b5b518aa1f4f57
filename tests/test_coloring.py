import re
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from kempe_covers import (
    BichromaticCycle,
    ColoringError,
    EdgeColoring,
    IllegalColoringError,
    Multigraph,
    StaleSwitchError,
    apply_sequence,
    bichromatic_cycles,
    bundled_instance_path,
    copies_cover,
    is_legal,
    kempe_switch,
    lift_sequence,
    random_colored_instance,
    spanning_subgraph,
)
from kempe_covers.coloring import _cycle_decomposition, _replay
from kempe_covers.serialize import instance_from_json, load_json

from conftest import (
    edge_table,
    K33_C1,
    alternating_coloring,
    cube_dimension_coloring,
    dart_lists,
    make_cube,
    make_cycle,
    make_k33,
)


COLOR_LISTS = st.lists(st.integers(min_value=1, max_value=3), max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=3, max_value=4), COLOR_LISTS, st.integers(min_value=3, max_value=4), COLOR_LISTS, st.booleans())
def test_coloring_equality_is_degree_and_color_map(d1, colors1, d2, colors2, copy):
    same = (d1, colors1) == (d2, colors2)
    if copy:  # the same colors as a map inserted in another order
        d2, colors2, same = d1, dict(reversed(list(enumerate(colors1)))), True
    a, b = EdgeColoring(d1, colors1), EdgeColoring(d2, colors2)
    assert (a == b) is same and (a != b) is not same


def test_coloring_rejects_out_of_range():
    with pytest.raises(ColoringError):
        EdgeColoring(3, {0: 4})
    with pytest.raises(ColoringError):
        EdgeColoring(3, {0: 0})


@pytest.mark.parametrize("degree, colors, message", [
    (2, {0: 1.5}, "edge 0: color 1.5 is not an integer"),
    (2, {0: 1, 1: True}, "edge 1: color True is not an integer"),
    (2, {0: 1, True: 2}, "edge ids must be 0..1: 1 is missing"),  # True == 1, but a bool is no id
    (2, {0: "1"}, "edge 0: color '1' is not an integer"),
    (2.0, {0: 1}, "ambient degree must be an integer, got 2.0"),
], ids=["fraction", "bool", "bool id", "string", "float degree"])
def test_coloring_refuses_what_is_not_an_integer(degree, colors, message):
    with pytest.raises(ColoringError, match=f"^{re.escape(message)}$"):
        EdgeColoring(degree, colors)


@pytest.mark.parametrize("e", [-1, 9, 1.0, None])
def test_coloring_lookup_refuses_an_id_outside_its_list(k33_pair, e):
    # a list would read -1 as its last color, and raise IndexError or TypeError for the others
    with pytest.raises(ColoringError, match=f"^edge {e} is not colored$"):
        k33_pair[0][e]


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


@pytest.mark.parametrize("pair", [(1, 4), (0, 5)])
def test_bichromatic_rejects_colors_outside_the_degree(pair):
    # (1, 4) used to call the legal coloring illegal, and (0, 5) returned []
    g, colorings = instance_from_json(load_json(bundled_instance_path("k33")))
    c1 = colorings["c1"]
    with pytest.raises(ColoringError, match=r"outside 1\.\.3") as info:
        bichromatic_cycles(g, c1, *pair)
    assert not isinstance(info.value, IllegalColoringError)
    with pytest.raises(ColoringError, match="twice"):
        bichromatic_cycles(g, c1, 2, 2)
    [cycle] = bichromatic_cycles(g, c1, 1, 2)
    assert cycle.colors == (1, 2) and len(cycle) == 6


def test_cycles_come_in_order_of_smallest_edge(k33, k33_pair):
    cube = make_cube()
    for g, c in ((k33, k33_pair[0]), (cube, cube_dimension_coloring())):
        for i in range(1, 4):
            for j in range(i + 1, 4):
                firsts = [min(cycle.edges) for cycle in bichromatic_cycles(g, c, i, j)]
                assert firsts == sorted(firsts)


def test_cycle_decomposition_canonical_walks():
    # two triangles, one with a reversed stored edge; vertex 3 is isolated
    g = Multigraph(7, [(0, 1), (4, 5), (2, 1), (5, 6), (0, 2), (6, 4)])
    cycles = _cycle_decomposition(g, [5, 2, 0, 3, 4, 1])
    assert cycles == [(0, 2, 4), (1, 3, 5)]


@pytest.mark.parametrize("g", [
    Multigraph(3, [(0, 1), (1, 2)]),  # path: its ends meet one edge
    Multigraph(2, [(0, 1)] * 3),  # theta: both vertices meet three
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
    partial = BichromaticCycle(full.colors, full.edge_ids[:2])
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
    # 0-2 also has color 1, so vertices 0 and 2 meet three edges of the pair
    # and the square is only part of its component; a legal coloring has no
    # such vertex, so the coloring is refused before the square is read
    g = Multigraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    c = EdgeColoring(3, {0: 1, 1: 2, 2: 1, 3: 2, 4: 1})
    square = BichromaticCycle((1, 2), (0, 1, 2, 3))
    illegal = "edges 0 and 4 both have color 1 at vertex 0"
    with pytest.raises(IllegalColoringError, match=illegal):
        kempe_switch(g, c, square)
    with pytest.raises(IllegalColoringError, match=illegal):
        apply_sequence(g, c, (square,))


PROBE = Multigraph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (0, 5)])
SQUARES = Multigraph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)])


# a 4-cycle colored 1, 2, 1, 2 whose vertex 0 also meets two edges of color 3,
# two squares colored 1, 2 with their last edge left uncolored, and the two
# squares legally colored plus a color for an edge they do not have
@pytest.mark.parametrize("g, colors, error, message", [
    (PROBE, {0: 1, 1: 2, 2: 1, 3: 2, 4: 3, 5: 3}, IllegalColoringError, "edges 4 and 5 both have color 3 at vertex 0"),
    (SQUARES, {e: e % 2 + 1 for e in range(7)}, ColoringError, "edge 7 is not colored"),
    (SQUARES, {e: e % 2 + 1 for e in range(9)}, ColoringError, "edge 8 is not in the graph"),
], ids=["illegal", "partial", "foreign"])
def test_switches_refuse_a_coloring_outside_their_domain(g, colors, error, message):
    c = EdgeColoring(3, colors)
    square = BichromaticCycle((1, 2), (0, 1, 2, 3))
    with pytest.raises(error, match=message):
        kempe_switch(g, c, square)
    with pytest.raises(error, match=message):
        apply_sequence(g, c, [square] * 4)
    with pytest.raises(error, match=message):
        lift_sequence(copies_cover(g, 2), c, [square])
    table, drawn = list(colors.values()), []

    def steps():
        drawn.append(0)
        yield 0, square

    with pytest.raises(error, match=message):
        _replay(g, 3, table, steps())
    assert drawn == [] and table == list(colors.values())


# the PROBE coloring 1, 2, 1, 2, 3, 3; with edge 5 uncolored, also with edges
# 0 and 1 both colored 1; and with a color for edge 6, which PROBE lacks:
# totality is checked before legality
@pytest.mark.parametrize("colors, error, message", [
    ({0: 1, 1: 2, 2: 1, 3: 2, 4: 3, 5: 3}, IllegalColoringError,
     "colors do not make a legal coloring: edges 4 and 5 both have color 3 at vertex 0"),
    ({0: 1, 1: 2, 2: 1, 3: 2, 4: 3}, ColoringError, "edge 5 is not colored"),
    ({0: 1, 1: 1, 2: 1, 3: 2, 4: 3}, ColoringError, "edge 5 is not colored"),
    ({0: 1, 1: 2, 2: 1, 3: 2, 4: 3, 5: 3, 6: 1}, ColoringError, "edge 6 is not in the graph"),
], ids=["illegal", "partial", "partial and illegal", "foreign"])
def test_coloring_functions_share_one_domain_check(colors, error, message):
    c = EdgeColoring(3, colors)
    square = BichromaticCycle((1, 2), (0, 1, 2, 3))
    calls = [
        lambda: bichromatic_cycles(PROBE, c, 1, 2),
        lambda: kempe_switch(PROBE, c, square),
        lambda: apply_sequence(PROBE, c, [square]),
    ]
    if error is IllegalColoringError:
        assert is_legal(PROBE, c) is False
    else:
        calls.append(lambda: is_legal(PROBE, c))
    for call in calls:
        with pytest.raises(error) as info:
            call()
        assert (type(info.value), str(info.value)) == (error, message)


def domain_outcome(call, *args):
    """None if the call returns, else the type and message of the ColoringError it raised."""
    try:
        call(*args)
    except ColoringError as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=5),
                 st.sampled_from([4, 6, 8])), st.data())
def test_coloring_functions_agree_on_a_mutated_coloring(instance, data):
    # one edge of a legal coloring recolored, one dropped, or a foreign one
    # added; in a regular graph a recolored edge clashes at both its ends
    # unless it keeps its color, so the pairs that miss both of its colors
    # still have 2-regular support
    g, c1, c2 = random_colored_instance(*instance)
    c = data.draw(st.sampled_from([c1, c2]))
    d = c.degree
    cycle = data.draw(st.sampled_from(bichromatic_cycles(g, c, *color_pair(data.draw, d))))
    colors = dict(c.items())
    kind = data.draw(st.sampled_from(["recolor", "drop", "foreign"]))
    if kind == "recolor":
        colors[data.draw(st.sampled_from(g.edge_ids()))] = data.draw(st.integers(min_value=1, max_value=d))
    elif kind == "drop":
        del colors[data.draw(st.sampled_from(g.edge_ids()))]
    else:
        colors[data.draw(st.sampled_from([-1, g.edge_count]))] = data.draw(st.integers(min_value=1, max_value=d))
    ids = sorted(colors)
    if ids != list(range(len(ids))):  # a dropped inner edge or edge -1: the constructor names the first gap
        missing = min(set(range(len(ids))) - set(ids))
        with pytest.raises(ColoringError, match=f"^edge ids must be 0..{len(ids) - 1}: {missing} is missing$"):
            EdgeColoring(d, colors)
        return
    mutated = EdgeColoring(d, colors)
    outcomes = {
        domain_outcome(kempe_switch, g, mutated, cycle),
        domain_outcome(apply_sequence, g, mutated, [cycle]),
    }
    outcomes.update(domain_outcome(bichromatic_cycles, g, mutated, i, j)
                    for i, j in combinations(range(1, d + 1), 2))
    [got] = outcomes  # every function accepts, or all raise one error
    legal = domain_outcome(is_legal, g, mutated)
    if legal is not None:  # not total: is_legal raises that error too
        assert got == legal
    elif is_legal(g, mutated):
        assert got is None and mutated == c
    else:
        assert got is not None and got[0] is IllegalColoringError


def test_a_legal_coloring_of_a_path_is_rejected_at_its_end():
    # legal, but vertex 2 meets one edge of the pair: the walk cannot step on
    path = Multigraph(3, [(0, 1), (1, 2)])
    c = EdgeColoring(2, {0: 1, 1: 2})
    assert is_legal(path, c)
    with pytest.raises(StaleSwitchError, match="not a full two-color component at vertex 2"):
        kempe_switch(path, c, BichromaticCycle((1, 2), (0, 1)))
    with pytest.raises(ColoringError, match="not 2-regular on its support"):
        bichromatic_cycles(path, c, 1, 2)


# -- reference switch kernels -----------------------------------------------

# The walk decomposition as it stood when it still returned dart walks, and a
# naive switch check: the edge set must be the whole connected component of
# its smallest edge in the subgraph of the pair's colors, found by a search
# that reads the colors at every vertex it reaches, and that component must
# alternate (each of its vertices meets one edge of each color of the pair).
# The package's kernels must give the same cycles, and accept exactly the
# switches the reference accepts.


def reference_cycle_decomposition(g, edges):
    member = set(edges)
    table, incidence = edge_table(g), dart_lists(g)
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
    if not cycle.edge_ids:
        raise stale("empty cycle")
    if len(cycle.edges) != len(cycle.edge_ids):
        raise stale("repeated edge")
    if not all(e in edge_table(g) for e in cycle.edges):
        raise stale("unknown edge")
    if not all(c[e] in (lo, hi) for e in cycle.edges):
        raise stale("edge off the pair")
    component, reached, darts = set(), set(), dart_lists(g)
    frontier = list(g.endpoints(min(cycle.edges)))
    while frontier:
        v = frontier.pop()
        if v in reached:
            continue
        reached.add(v)
        local = [f for f, _ in darts[v] if c[f] in (lo, hi)]
        if sorted(c[f] for f in local) != [lo, hi]:
            raise stale(f"component does not alternate at vertex {v}")
        component.update(local)
        frontier.extend(w for f in local for w in g.endpoints(f))
    if component != cycle.edges:
        raise stale("edge set is not the component of its smallest edge")


def in_domain(g, c):
    """Whether ``c`` colors every edge of ``g`` and legally: the colorings a switch acts on."""
    return len(list(c.items())) == g.edge_count and is_legal(g, c)


TRIANGLE = Multigraph(3, [(0, 1), (1, 2), (2, 0)])
K33_12 = ((0, 0), (3, 1), (5, 0), (8, 1), (7, 0), (1, 1))  # the (1, 2)-cycle of conftest's K33_C1


# Each case draws its switch as a closed dart walk; the switch lists its edges.
@pytest.mark.parametrize("g, colors, pair, darts, message", [
    (make_k33(), K33_C1, (1, 4), K33_12, r"color pair \(1, 4\) invalid for degree 3"),
    (make_k33(), K33_C1, (1, 2), (), "empty cycle"),
    (make_k33(), K33_C1, (1, 2), K33_12 + K33_12[:1], "repeated edge in switch"),
    (TRIANGLE, (1, 1, 2), (1, 2), ((0, 0), (1, 0), (2, 0)), "colors do not make a legal coloring"),
    (TRIANGLE, (1, 2, 1), (1, 2), ((0, 0), (1, 0), (2, 0)), "colors do not make a legal coloring"),
    (make_k33(), K33_C1[:8], (1, 2), K33_12, "edge 8 is not colored"),
    (make_k33(), K33_C1, (1, 2), K33_12[1:], "misses edge 0"),
    (SQUARES, (1, 2) * 4, (1, 2), ((0, 0), (1, 0), (2, 0), (3, 0), (4, 0)), "edges lie off the cycle of edge 0"),
    (make_k33(), K33_C1, (K33_C1[0],) * 2, ((0, 0),), rf"color pair \({K33_C1[0]}, {K33_C1[0]}\) invalid for degree 3"),
    (make_k33(), K33_C1, (1, 2), ((9, 0),), "edge 9 not in graph"),  # the switch's smallest edge is E
])
def test_switch_checks_no_other_test_reaches(g, colors, pair, darts, message):
    c = EdgeColoring(3, dict(enumerate(colors)))
    cycle = BichromaticCycle(pair, tuple(sorted(e for e, _ in darts)))
    if not in_domain(g, c):  # refused before the switch is read
        with pytest.raises(ColoringError, match=message):
            _replay(g, c.degree, [col for _, col in c.items()], [(None, cycle)])
        return
    with pytest.raises(StaleSwitchError, match=message):
        _replay(g, c.degree, [col for _, col in c.items()], [(None, cycle)])
    with pytest.raises(StaleSwitchError):
        reference_validate_switch(g, c, cycle)


INSTANCES = st.tuples(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=3, max_value=5),
    st.sampled_from([4, 6, 8]),
)

MUTATIONS = (
    "drop", "repeat", "adjacent", "second", "foreign", "unknown", "empty", "pair", "flip", "recolor", "uncolor",
)


def color_pair(draw, d):
    return draw(st.lists(st.integers(min_value=1, max_value=d), min_size=2, max_size=2, unique=True))


def mutated_switch(draw, g, c, cycle):
    """One mutation of a switch's edge set or of the coloring; returns both to check."""
    edges, pair = set(cycle.edges), cycle.colors
    d = c.degree
    colors = dict(c.items())
    touched = {w for e in edges if e in edge_table(g) for w in g.endpoints(e)}
    outside = [e for e in g.edge_ids() if e not in edges]
    kind = draw(st.sampled_from(MUTATIONS))
    if kind == "drop" and edges:
        edges.remove(draw(st.sampled_from(sorted(edges))))
    elif kind == "repeat" and edges:
        return c, BichromaticCycle(pair, tuple(sorted([*cycle.edge_ids, draw(st.sampled_from(sorted(edges)))])))
    elif kind == "adjacent":
        # recolor an edge next to the set into the pair, and maybe add it
        near = [e for e in outside if touched & set(g.endpoints(e))]
        usable = [x for x in pair if 1 <= x <= d]  # an earlier "pair" mutation may leave 1..d
        if near and usable:
            e = draw(st.sampled_from(near))
            colors[e] = draw(st.sampled_from(usable))
            if draw(st.booleans()):
                edges.add(e)
    elif kind == "second":
        try:
            others = [cyc.edges for cyc in bichromatic_cycles(g, c, *pair) if cyc.edges != cycle.edges]
        except ColoringError:  # an invalid pair, or a coloring no longer total or legal
            others = []
        if others:
            edges |= draw(st.sampled_from(others))
    elif kind == "foreign":
        off = [e for e in outside if colors.get(e) not in pair]
        if off:
            edges.add(draw(st.sampled_from(off)))
    elif kind == "unknown":
        edges.add(max(g.edge_ids()) + 1 + draw(st.integers(min_value=0, max_value=3)))
    elif kind == "empty":
        edges.clear()
    elif kind == "pair":
        pair = tuple(draw(st.lists(st.integers(min_value=0, max_value=d + 1), min_size=2, max_size=2)))
    elif kind == "flip" and edges:
        # give one edge of the set the pair's other color
        e = draw(st.sampled_from(sorted(edges)))
        other = pair[1] if colors.get(e) == pair[0] else pair[0]
        if 1 <= other <= d and e in colors:  # an earlier "unknown" mutation may list an edge g lacks
            colors[e] = other
    elif kind == "recolor":
        colors[draw(st.sampled_from(g.edge_ids()))] = draw(st.integers(min_value=1, max_value=d))
    elif kind == "uncolor":  # a coloring is a list: only its last edge can go uncolored
        colors.pop(g.edge_count - 1, None)
    return EdgeColoring(d, colors), BichromaticCycle(pair, tuple(sorted(edges)))


def verdict(validate, *args):
    try:
        validate(*args)
    except (StaleSwitchError, ColoringError) as exc:
        return type(exc).__name__, getattr(exc, "index", None)
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
        c, cycle = mutated_switch(data.draw, g, c, cycle)
    index = data.draw(st.none() | st.integers(min_value=0, max_value=99))
    colors = [col for _, col in c.items()]
    got = verdict(_replay, g, c.degree, colors, [(index, cycle)])
    if not in_domain(g, c):
        # a partial or illegal coloring is refused before the switch is read
        assert got in {("ColoringError", None), ("IllegalColoringError", None)}
        assert colors == [col for _, col in c.items()]
        return
    # both accept, or both reject, and a stale switch names its position
    want = verdict(reference_validate_switch, g, c, cycle, index)
    assert (got is None) == (want is None)
    if got is not None:
        assert got == want == ("StaleSwitchError", index)


def reference_replay(g, degree, colors, steps):
    """The reference check of each switch, then a flip of its edges, in order."""
    for index, cycle in steps:
        reference_validate_switch(g, EdgeColoring(degree, colors), cycle, index)
        lo, hi = cycle.colors
        for e in cycle.edge_ids:
            colors[e] = hi if colors[e] == lo else lo


def replay_outcome(replay, g, c, switches):
    """The end colors, or the error type, the position of the switch it stopped at and its index.

    The position is None when the replay stops before it draws a switch.
    """
    colors, drawn = [col for _, col in c.items()], []

    def steps():
        for index, cycle in enumerate(switches):
            drawn.append(index)
            yield index, cycle

    try:
        replay(g, c.degree, colors, steps())
    except (StaleSwitchError, ColoringError) as exc:
        return type(exc).__name__, drawn[-1] if drawn else None, getattr(exc, "index", None)
    return colors


@settings(max_examples=200, deadline=None)
@given(INSTANCES, st.data())
def test_replay_matches_reference_switch_by_switch(instance, data):
    # real switches, each drawn from the legal coloring the previous ones
    # reach, and now and then a mutated one; a mutation of the coloring is
    # kept only for the first switch, where it mutates the start coloring
    g, c1, c2 = random_colored_instance(*instance)
    start = before = data.draw(st.sampled_from([c1, c2]))
    switches = []
    for k in range(data.draw(st.integers(min_value=1, max_value=8))):
        cycle = data.draw(st.sampled_from(bichromatic_cycles(g, before, *color_pair(data.draw, before.degree))))
        after = kempe_switch(g, before, cycle)
        if data.draw(st.integers(min_value=0, max_value=3)) == 0:
            mutated, cycle = mutated_switch(data.draw, g, before, cycle)
            if k == 0:
                start = mutated
        switches.append(cycle)
        before = after
    got = replay_outcome(_replay, g, start, switches)
    if not in_domain(g, start):
        # a partial or illegal start is refused before the first switch is drawn
        assert got in {("ColoringError", None, None), ("IllegalColoringError", None, None)}
        return
    # the same end colors, or a stop at the same switch, which a stale
    # switch names
    want = replay_outcome(reference_replay, g, start, switches)
    if isinstance(want, list):
        assert got == want
    else:
        assert not isinstance(got, dict) and got[1] == want[1]
        for name, at, index in (got, want):
            assert (name, index) == ("StaleSwitchError", at)


# ``_replay`` as it stood when a walk checked each switch and a second loop
# then flipped its edges. The package's walk flips each switch as it checks
# it, so a rejected switch leaves its list part-flipped; it must still end in
# the same colors, or raise the same error at the same sequence position.


def walk_then_flip_stale(msg, index):
    at = "" if index is None else f" (sequence position {index})"
    return StaleSwitchError(f"stale switch{at}: {msg}", index=index)


def walk_then_flip_misfit(colors, edges, pair, index):
    for e in sorted(edges):
        if not 0 <= e < len(colors):
            return walk_then_flip_stale(f"edge {e} not in graph", index)
        if colors[e] not in pair:
            return walk_then_flip_stale(f"edge {e} has color {colors[e]}, not in {pair}", index)
    return None


def walk_then_flip_replay(g, degree, colors, steps):
    tails, heads, size = g._tails, g._heads, len(g._tails)
    if len(colors) < size:
        raise ColoringError(f"edge {len(colors)} is not colored")
    if len(colors) > size:
        raise ColoringError(f"edge {size} is not in the graph")
    rows = [[None] * g._n for _ in range(degree + 1)]
    for e, u, w, col in zip(range(size), tails, heads, colors):
        row = rows[col]
        if row[u] is not None or row[w] is not None:
            at = u if row[u] is not None else w
            raise IllegalColoringError(
                f"colors do not make a legal coloring: edges {row[at]} and {e} "
                f"both have color {col} at vertex {at}"
            )
        row[u] = row[w] = e
    for index, cycle in steps:
        lo, hi = pair = cycle.colors
        if not (1 <= lo < hi <= degree):
            raise walk_then_flip_stale(f"color pair {pair} invalid for degree {degree}", index)
        if not cycle.edge_ids:
            raise walk_then_flip_stale("empty cycle", index)
        edges = set(cycle.edge_ids)
        if len(edges) != len(cycle.edge_ids):
            raise walk_then_flip_stale("repeated edge in switch", index)
        first = min(edges)
        if not 0 <= first < size or (colors[first] != lo and colors[first] != hi):
            raise walk_then_flip_misfit(colors, edges, pair, index)
        here, there = (rows[hi], rows[lo]) if colors[first] == lo else (rows[lo], rows[hi])
        v, met = heads[first], 1
        while True:
            nxt = here[v]
            if nxt is None:
                raise walk_then_flip_stale(f"cycle is not a full two-color component at vertex {v}", index)
            if nxt == first:
                break
            if nxt not in edges:
                raise walk_then_flip_misfit(colors, edges, pair, index) or walk_then_flip_stale(
                    f"cycle is not a full two-color component: it misses edge {nxt}", index
                )
            v ^= tails[nxt] ^ heads[nxt]
            here, there = there, here
            met += 1
        if met != len(edges):
            raise walk_then_flip_misfit(colors, edges, pair, index) or walk_then_flip_stale(
                f"edge set is not a single cycle: edges lie off the cycle of edge {first}", index
            )
        both = lo + hi
        for e in cycle.edge_ids:
            col = both - colors[e]
            colors[e] = col
            row = rows[col]
            row[tails[e]] = row[heads[e]] = e


SWITCH_KINDS = ("whole", "whole", "part", "off-pair", "other pair", "repeated", "unknown", "empty", "two components")


def drawn_switch(draw, g, colors, d):
    """A switch on ``colors``: one whole {i, j} component, or a kind of stale one."""
    i, j = sorted(color_pair(draw, d))
    components = bichromatic_cycles(g, EdgeColoring._adopt(d, colors), i, j)
    edges = list(draw(st.sampled_from(components)).edge_ids)
    pair = (i, j)
    kind = draw(st.sampled_from(SWITCH_KINDS))
    if kind == "part":
        edges = draw(st.lists(st.sampled_from(edges), min_size=1, max_size=len(edges) - 1, unique=True))
    elif kind == "off-pair":
        off = [e for e, col in enumerate(colors) if col not in pair]
        edges.append(draw(st.sampled_from(off)))
    elif kind == "other pair":
        pair = tuple(sorted(color_pair(draw, d)))
    elif kind == "repeated":
        edges.append(draw(st.sampled_from(edges)))
    elif kind == "unknown":
        edges.append(draw(st.sampled_from([-1, g.edge_count, g.edge_count + 3])))
    elif kind == "empty":
        edges = []
    elif kind == "two components" and len(components) > 1:
        edges += draw(st.sampled_from([c for c in components if c.edge_ids[0] != edges[0]])).edge_ids
    return BichromaticCycle(pair, tuple(sorted(edges)))


def replayed(replay, g, degree, colors, switches):
    """The end colors, or the error's class, message and index with the position last drawn."""
    colors, drawn = list(colors), []

    def steps():
        for index, cycle in enumerate(switches):
            drawn.append(index)
            yield index, cycle

    try:
        replay(g, degree, colors, steps())
    except (StaleSwitchError, ColoringError) as exc:
        return type(exc), str(exc), getattr(exc, "index", None), drawn[-1:]
    return colors


@settings(max_examples=300, deadline=None)
@given(INSTANCES, st.data())
def test_replay_flips_in_its_walk_as_the_walk_then_flip_reference_does(instance, data):
    g, c1, c2 = random_colored_instance(*instance)
    start = data.draw(st.sampled_from([c1, c2]))
    colors, switches = list(start._colors), []
    for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
        switches.append(drawn_switch(data.draw, g, colors, start.degree))
        reached = list(colors)
        try:  # the next switch is drawn on the colors this one reaches, or on these if it is stale
            walk_then_flip_replay(g, start.degree, reached, [(None, switches[-1])])
            colors = reached
        except StaleSwitchError:
            pass
    got = replayed(_replay, g, start.degree, start._colors, switches)
    assert got == replayed(walk_then_flip_replay, g, start.degree, start._colors, switches)


def test_a_stale_switch_leaves_the_callers_coloring_as_it_was(k33, k33_pair):
    c = k33_pair[0]
    whole = bichromatic_cycles(k33, c, 1, 2)[0]
    # the walk from edge 0 flips the edges it passes before it meets the one the switch leaves out
    part = BichromaticCycle(whole.colors, whole.edge_ids[:-1])
    colors = list(c._colors)
    with pytest.raises(StaleSwitchError, match="misses edge"):
        _replay(k33, 3, colors, [(None, part)])
    assert colors != list(c._colors)  # the replay's own list is left part-flipped
    before = list(c._colors)
    with pytest.raises(StaleSwitchError, match="sequence position 1"):
        apply_sequence(k33, c, [whole, part])
    with pytest.raises(StaleSwitchError, match="misses edge"):
        kempe_switch(k33, c, part)
    assert c._colors == before


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
        walks = reference_cycle_decomposition(g, edges)
        assert _cycle_decomposition(g, edges) == [tuple(sorted(e for e, _ in walk)) for walk in walks]
    else:
        for decompose in (_cycle_decomposition, reference_cycle_decomposition):
            with pytest.raises(IllegalColoringError, match="not 2-regular"):
                decompose(g, edges)


# The decomposition as it stood when it walked the per-vertex dart lists; the
# package's version reads only the edge table and must agree with it.


def dart_walk_cycle_decomposition(g, edges):
    member = set(edges)
    table, incidence = edge_table(g), dart_lists(g)
    cycles = []
    used = set()
    for first in sorted(member):
        if first in used:
            continue
        cycle = [first]
        e, v = first, table[first][1]
        while True:
            nxt = None
            for f, slot in incidence[v]:
                if f != e and f in member:
                    if nxt is not None:
                        raise IllegalColoringError("edge set is not 2-regular on its support")
                    nxt, nxt_slot = f, slot
            if nxt is None:
                raise IllegalColoringError("edge set is not 2-regular on its support")
            if nxt == first:
                break
            cycle.append(nxt)
            e, v = nxt, table[nxt][1 - nxt_slot]
        used.update(cycle)
        cycle.sort()
        cycles.append(tuple(cycle))
    return cycles


def decomposition(decompose, g, edges):
    try:
        return decompose(g, edges)
    except IllegalColoringError:
        return "illegal"


@st.composite
def planted_multigraphs(draw):
    """A multigraph with parallel edges and isolated vertices, plus planted cycles.

    Each planted cycle is a tuple of edge ids; a cycle of length 2 is a
    pair of parallel edges. Noise edges are added after the cycles, and some
    of them are then dropped through ``spanning_subgraph``, which numbers the
    rest densely and so keeps the planted ids.
    """
    n = draw(st.integers(min_value=1, max_value=9))
    order = draw(st.permutations(range(n)))
    lengths = draw(st.lists(st.integers(min_value=2, max_value=5), max_size=3))
    pairs, planted, at = [], [], 0
    for length in lengths:
        if at + length > n:
            break
        ring = order[at:at + length]
        at += length
        planted.append(tuple(range(len(pairs), len(pairs) + length)))
        pairs.extend((ring[k], ring[(k + 1) % length]) for k in range(length))
    vertex = st.integers(min_value=0, max_value=n - 1)
    noise = draw(st.lists(st.tuples(vertex, vertex).filter(lambda uv: uv[0] != uv[1]), max_size=10)) if n > 1 else []
    g = Multigraph(n, pairs + noise)
    dropped = draw(st.sets(st.sampled_from(range(len(pairs), g.edge_count)))) if noise else set()
    return spanning_subgraph(g, [e for e in g.edge_ids() if e not in dropped]), planted


@settings(max_examples=300, deadline=None)
@given(planted_multigraphs(), INSTANCES, st.data())
def test_table_decomposition_matches_dart_walk(multigraph, instance, data):
    g, planted = multigraph
    kept = g.edge_ids()
    subsets = [data.draw(st.sets(st.sampled_from(kept))) if kept else set()]
    subsets.append({e for cycle in planted if data.draw(st.booleans()) for e in cycle})
    # unions of bichromatic cycles of a legal coloring, on a subgraph numbered densely
    h, c, _ = random_colored_instance(*instance)
    cycles = bichromatic_cycles(h, c, *color_pair(data.draw, c.degree))
    chosen = {e for cycle in cycles if data.draw(st.booleans()) for e in cycle.edge_ids}
    extra = data.draw(st.sets(st.sampled_from(h.edge_ids()), max_size=4))
    sub = spanning_subgraph(h, chosen | extra)
    renumbered = {e: i for i, e in enumerate(sorted(chosen | extra))}
    chosen_in_sub = {renumbered[e] for e in chosen}
    cases = [(g, edges) for edges in subsets] + [(sub, chosen_in_sub), (sub, set(sub.edge_ids()))]
    for graph, edges in cases:
        got = decomposition(_cycle_decomposition, graph, edges)
        assert got == decomposition(dart_walk_cycle_decomposition, graph, edges)
        if got != "illegal":
            assert sorted(e for cycle in got for e in cycle) == sorted(edges)
