import random

import pytest
from hypothesis import given, settings, strategies as st

from kempe_covers import (
    BichromaticCycle,
    CoveringMap,
    EdgeColoring,
    GraphStructureError,
    IllegalColoringError,
    Multigraph,
    RegularityError,
    align_color,
    alignment,
    alignment_data,
    apply_sequence,
    bichromatic_cycles,
    build_alignment_cover,
    default_orientation,
    is_legal,
    kempe_switch,
    pullback_coloring,
    random_colored_instance,
    spanning_subgraph,
    split_color_d,
    verify_covering,
)
from kempe_covers.coloring import _cycle_decomposition

from conftest import cube_dimension_coloring, edge_table, make_cube, make_cycle, make_k33


def rotated_cube_coloring():
    """Dimension coloring with colors cycled 1->2->3->1."""
    base = cube_dimension_coloring()
    return EdgeColoring(3, {e: base[e] % 3 + 1 for e in range(12)})


def test_split_equal_colorings(k33, k33_pair):
    c1, _ = k33_pair
    split = split_color_d(k33, c1, c1)
    assert split.shared == c1.color_class(3)
    assert split.moving == frozenset()
    assert split.shared_vertices == frozenset(range(k33.vertex_count))


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
    assert support == set(range(cube.vertex_count))


def test_alignment_data_invariants(k33, k33_pair):
    c1, c2 = k33_pair
    data = alignment_data(k33, c1, c2)
    split = split_color_d(k33, c1, c2)
    assert data.modulus == 2
    for v in range(k33.vertex_count):
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


def k33_orientation_with(entry):
    """k33's default orientation with edge 0's entry replaced, or dropped when ``entry`` is None."""
    orientation = default_orientation(make_k33())
    del orientation[0]
    return orientation if entry is None else {0: entry, **orientation}


@pytest.mark.parametrize(
    "entry, message",
    [
        (None, "orientation missing edge 0"),
        ((0, 4), "orientation of edge 0 does not match its endpoints"),
        ((0, 3, 0), "orientation of edge 0 does not match its endpoints"),
        (5, "orientation of edge 0 does not match its endpoints"),
    ],
    ids=["missing", "wrong endpoints", "triple", "int"],
)
def test_build_alignment_cover_refuses_a_bad_orientation(k33, k33_pair, entry, message):
    c1, c2 = k33_pair
    assert k33.endpoints(0) == (0, 3)
    with pytest.raises(GraphStructureError, match=message):
        build_alignment_cover(k33, c1, c2, orientation=k33_orientation_with(entry))


def reference_alignment(g, c1, c2, orientation):
    """The offset-keyed alignment cover and its cover-side switches, frozen as the reference.

    Each copy of an edge is placed through the orientation's offset and
    re-keyed by its sheet at the edge's first stored endpoint: copy k of
    edge e is e*(d-1) + k, in the base's own id space. The switches decompose
    the cover's preimage of the moving edges, each with its smallest color.
    """
    d = c1.degree
    modulus = d - 1
    split = split_color_d(g, c1, c2)
    anchor = {v: e for e in c2.color_class(d) for v in g.endpoints(e)}
    shift = {v: 0 if v in split.shared_vertices else c1[anchor[v]] % modulus for v in range(g.vertex_count)}
    pairs, emap, colors = {}, {}, {}
    for e in g.edge_ids():
        u, w = g.endpoints(e)
        origin, terminus = orientation[e]
        offset = 0 if c1[e] == d else (shift[origin] - shift[terminus]) % modulus
        for label in range(modulus):
            f = e * modulus + label
            at_terminus = label if u == terminus else (label - offset) % modulus
            at_origin = (at_terminus + offset) % modulus
            if u == terminus:
                pairs[f] = (u * modulus + at_terminus, w * modulus + at_origin)
            else:
                pairs[f] = (u * modulus + at_origin, w * modulus + at_terminus)
            colors[f] = d if c1[e] == d else (at_terminus - shift[terminus] + c1[e]) % modulus or modulus
            emap[f] = e
    cover = Multigraph(g.vertex_count * modulus, pairs)
    p = CoveringMap(cover, g, [v // modulus for v in range(cover.vertex_count)], emap)
    shifted = EdgeColoring(d, colors)
    member = [f for f, e in emap.items() if e in split.moving]
    switches = tuple(
        BichromaticCycle((min(shifted[f] for f in edges), d), edges)
        for edges in _cycle_decomposition(cover, member)
    )
    return p, shifted, switches


def subgraph_instance(seed, d, n):
    """A d-regular spanning subgraph, numbered densely in its graph's id order, and two legal colorings of it.

    The subgraph drops the class of edge 0 in the second coloring of a
    (d+1)-regular instance. Its second coloring is its first after Kempe
    switches, each on a cycle of the top color and another.
    """
    g, _, c = random_colored_instance(seed, d + 1, n)
    dropped = c[0]
    rest = [e for e in g.edge_ids() if c[e] != dropped]
    h = spanning_subgraph(g, rest)
    start = goal = EdgeColoring(d, [c[e] - (c[e] > dropped) for e in rest])
    rng = random.Random(seed)
    for _ in range(3):
        cycles = bichromatic_cycles(h, goal, rng.randrange(1, d), d)
        goal = kempe_switch(h, goal, rng.choice(cycles))
    return h, start, goal


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([3, 4, 5]), st.booleans())
def test_alignment_matches_the_offset_keyed_reference(seed, d, subgraph):
    g, c1, c2 = subgraph_instance(seed, d, 6) if subgraph else random_colored_instance(seed, d, 8)
    rng = random.Random(seed)
    orientation = {
        e: pair if rng.random() < 0.5 else pair[::-1] for e, pair in default_orientation(g).items()
    }
    p, shifted, switches = reference_alignment(g, c1, c2, orientation)
    cover, start = build_alignment_cover(g, c1, c2, orientation=orientation)
    assert cover == p and start == shifted
    assert list(edge_table(cover.source).items()) == list(edge_table(p.source).items())
    assert align_color(g, c1, c2).switches == switches


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
            for copy in (f for f in p.source.edge_ids() if p.edge_image(f) == e):
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
        f = next(f for f in p.source.edge_ids() if p.edge_image(f) in moving and colors[f] != 3)
        colors[f] = 3 - colors[f]
        return p, EdgeColoring(3, colors)

    monkeypatch.setattr(alignment, "_build_alignment_cover", recolored)
    with pytest.raises(IllegalColoringError, match="colors do not make a legal coloring"):
        alignment._align_color(k33, c1, split_color_d(k33, c1, c2).moving)
