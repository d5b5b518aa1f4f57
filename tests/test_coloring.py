import pytest

from kempe_covers import (
    BichromaticCycle,
    ColoringError,
    EdgeColoring,
    IllegalColoringError,
    Multigraph,
    StaleSwitchError,
    apply_sequence,
    bichromatic_cycles,
    color_class_subgraph,
    is_legal,
    kempe_switch,
)
from kempe_covers.coloring import _cycle_decomposition

from conftest import alternating_coloring, cube_dimension_coloring, make_cube, make_cycle


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
