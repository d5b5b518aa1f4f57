import random

import pytest

from kempe_covers import (
    EdgeColoring,
    IllegalColoringError,
    RegularityError,
    align_color,
    alignment,
    alignment_data,
    apply_sequence,
    bichromatic_cycles,
    build_alignment_cover,
    default_orientation,
    is_legal,
    pullback_coloring,
    random_colored_instance,
    split_color_d,
    verify_covering,
)

from conftest import cube_dimension_coloring, make_cube, make_cycle


def rotated_cube_coloring():
    """Dimension coloring with colors cycled 1->2->3->1."""
    base = cube_dimension_coloring()
    return EdgeColoring(3, {e: base[e] % 3 + 1 for e in range(12)})


def test_split_equal_colorings(k33, k33_pair):
    c1, _ = k33_pair
    split = split_color_d(k33, c1, c1)
    assert split.shared == c1.color_class(3)
    assert split.moving == frozenset()
    assert split.shared_vertices == frozenset(k33.vertices())


def test_split_k33_pair(k33, k33_pair):
    c1, c2 = k33_pair
    split = split_color_d(k33, c1, c2)
    assert split.shared == c1.color_class(3) & c2.color_class(3)
    assert split.moving == (c1.color_class(3) | c2.color_class(3)) - split.shared
    # frozen from running the scan: one shared edge, one 4-edge moving cycle
    assert len(split.shared) == 1
    assert len(split.moving) == 4


def test_split_disjoint_top_classes_cover_all_vertices():
    cube = make_cube()
    c1 = cube_dimension_coloring()
    c2 = rotated_cube_coloring()
    assert c1.color_class(3) & c2.color_class(3) == frozenset()
    split = split_color_d(cube, c1, c2)
    assert split.shared == frozenset()
    assert split.shared_vertices == frozenset()
    support = {v for e in split.moving for v in cube.endpoints(e)}
    assert support == set(cube.vertices())


def test_alignment_data_invariants(k33, k33_pair):
    c1, c2 = k33_pair
    data = alignment_data(k33, c1, c2)
    split = split_color_d(k33, c1, c2)
    assert data.modulus == 2
    for v in k33.vertices():
        anchor = data.anchor[v]
        assert c2[anchor] == 3
        assert v in k33.endpoints(anchor)
        if v in split.shared_vertices:
            assert data.shift[v] == 0
        else:
            assert data.shift[v] == c1[anchor] % data.modulus
    for e in split.moving:
        assert data.offset[e] == 0


def test_alignment_rejects_degree_one():
    matching = make_cycle(2)  # 2-cycle is 2-regular; build a true 1-regular graph
    from kempe_covers import Multigraph

    one = Multigraph.from_edges(2, [(0, 1)])
    c = EdgeColoring(1, {0: 1})
    with pytest.raises(RegularityError):
        alignment_data(one, c, c)
    assert matching.edge_count == 2


def test_build_alignment_cover_k33(k33, k33_pair):
    c1, c2 = k33_pair
    p, shifted = build_alignment_cover(k33, c1, c2)
    assert p.source.vertex_count == 12
    assert p.source.edge_count == 18
    assert verify_covering(p)
    assert p.degree == 2
    assert is_legal(p.source, shifted)
    assert shifted.color_class(3) == pullback_coloring(p, c1).color_class(3)


def test_build_alignment_cover_equal_colorings(k33, k33_pair):
    c1, _ = k33_pair
    p, shifted = build_alignment_cover(k33, c1, c1)
    assert shifted.color_class(3) == pullback_coloring(p, c1).color_class(3)
    split = split_color_d(k33, c1, c1)
    assert not split.moving


def test_orientation_independence_literal_equality():
    for seed in range(12):
        g, c1, c2 = random_colored_instance(seed, 3, 8)
        forward = default_orientation(g)
        backward = {e: (t, o) for e, (o, t) in forward.items()}
        rng = random.Random(seed)
        mixed = {
            e: (pair if rng.random() < 0.5 else (pair[1], pair[0]))
            for e, pair in forward.items()
        }
        results = [
            build_alignment_cover(g, c1, c2, orientation=o)
            for o in (None, forward, backward, mixed)
        ]
        p0, s0 = results[0]
        for p, s in results[1:]:
            assert p.source == p0.source
            assert p == p0
            assert s == s0


def test_moving_edge_copies_colored_by_their_sheet():
    # copies of moving edges not top-colored by c1 carry exactly their sheet
    # index as a color (residue 0 reads as color d-1)
    for seed in range(10):
        g, c1, c2 = random_colored_instance(seed, 3, 8)
        d = c1.degree
        modulus = d - 1
        split = split_color_d(g, c1, c2)
        p, shifted = build_alignment_cover(g, c1, c2)
        for e in split.moving:
            if c1[e] == d:
                continue
            for copy in (f for f, img in p.edge_map.items() if img == e):
                sheets = {v % modulus for v in p.source.endpoints(copy)}
                assert len(sheets) == 1  # offset vanishes on moving edges
                sheet = sheets.pop()
                assert shifted[copy] == (modulus if sheet == 0 else sheet)


def test_moving_lift_is_bichromatic_per_sheet(k33, k33_pair):
    c1, c2 = k33_pair
    p, shifted = build_alignment_cover(k33, c1, c2)
    split = split_color_d(k33, c1, c2)
    preimage = {e for e in p.source.edge_ids() if p.edge_image(e) in split.moving}
    result = align_color(k33, c1, c2)
    covered = set()
    for switch in result.switches:
        assert 3 == switch.colors[1]  # every lifted cycle pairs some color with the top one
        recomputed = bichromatic_cycles(p.source, shifted, *switch.colors)
        assert any(cyc.edges == switch.edges for cyc in recomputed)
        covered |= switch.edges
    assert covered == preimage


def test_align_color_k33(k33, k33_pair):
    c1, c2 = k33_pair
    result = align_color(k33, c1, c2)
    # one moving cycle, two sheets -> two lifted switches
    assert len(result.switches) == 2
    assert result.aligned_coloring == apply_sequence(
        result.cover.source, result.start_coloring, result.switches
    )
    assert result.aligned_coloring.color_class(3) == pullback_coloring(
        result.cover, c2
    ).color_class(3)


def test_align_color_trivial(k33, k33_pair):
    c1, _ = k33_pair
    result = align_color(k33, c1, c1)
    assert result.switches == ()
    assert result.aligned_coloring == result.start_coloring


def test_align_color_random_postcondition():
    for seed in range(25):
        g, c1, c2 = random_colored_instance(seed, 3, 6)
        result = align_color(g, c1, c2)
        assert result.aligned_coloring.color_class(3) == pullback_coloring(
            result.cover, c2
        ).color_class(3)


def test_switch_order_does_not_matter(k33, k33_pair):
    c1, c2 = k33_pair
    result = align_color(k33, c1, c2)
    reordered = tuple(reversed(result.switches))
    assert (
        apply_sequence(result.cover.source, result.start_coloring, reordered)
        == result.aligned_coloring
    )


def test_a_broken_lift_is_rejected_by_the_replay(monkeypatch, k33, k33_pair):
    """``_align_color`` trusts the lemma; a lift recolored off its pair still fails the replay.

    The recolored lift shares its new color with a neighbour, so the replay
    refuses the shifted coloring before it reads a switch.
    """
    c1, c2 = k33_pair
    moving = split_color_d(k33, c1, c2).moving
    build = alignment._build_alignment_cover

    def recolored(g, c, data):
        p, shifted = build(g, c, data)
        colors = dict(shifted.items())
        # a lift of a c2 top-color edge, colored 1 or 2; give it the other one
        f = next(f for f, e in p.edge_map.items() if e in moving and colors[f] != 3)
        colors[f] = 3 - colors[f]
        return p, EdgeColoring(3, colors)

    monkeypatch.setattr(alignment, "_build_alignment_cover", recolored)
    with pytest.raises(IllegalColoringError, match="colors do not make a legal coloring"):
        alignment._align_color(k33, c1, c2, split_color_d(k33, c1, c2))
