import pytest

from kempe_covers import (
    CoveringError,
    CoveringMap,
    Multigraph,
    apply_sequence,
    bichromatic_cycles,
    color_class_subgraph,
    compose,
    copies_cover,
    disjoint_union,
    extend_subgraph_cover,
    is_legal,
    kempe_switch,
    lift_sequence,
    lift_switch,
    pullback_coloring,
    spanning_subgraph,
    verify_covering,
)

from conftest import alternating_coloring, make_cycle, make_theta


def double_cycle_cover(length):
    """Wrap-around double cover of a cycle: 2L-cycle onto L-cycle."""
    big = make_cycle(2 * length)
    small = make_cycle(length)
    return CoveringMap(
        big,
        small,
        [v % length for v in big.vertices()],
        {e: e % length for e in big.edge_ids()},
    )


def test_identity_is_a_covering(k33):
    p = CoveringMap.identity(k33)
    assert verify_covering(p)
    assert p.degree == 1


def test_double_cycle_cover_verifies():
    p = double_cycle_cover(4)
    assert verify_covering(p)
    assert p.degree == 2


def test_parallel_edge_collapse_fails_local_bijection():
    theta = make_theta()
    two = Multigraph.from_edges(2, [(0, 1), (0, 1)])
    bad = CoveringMap(theta, two, [0, 1], {0: 0, 1: 1, 2: 1})
    verdict = verify_covering(bad)
    assert not verdict
    assert "local bijection" in verdict.reason


def test_non_surjective_map_fails():
    four = make_cycle(4)
    sub = spanning_subgraph(four, [0, 1, 2, 3])
    bad = CoveringMap(four, four, [0, 1, 2, 3][:3] + [0], {e: e for e in four.edge_ids()})
    assert not verify_covering(bad)
    assert sub == four  # sanity: helper graphs untouched


def test_nonconstant_fibers_rejected():
    # 6-cycle plus disjoint 3 copies of nothing: map two cycles of different
    # lengths onto one cycle -> fibers differ between targets is impossible
    # for coverings, so fabricate a map with uneven vertex fibers directly
    six = make_cycle(6)
    three = make_cycle(3)
    bad = CoveringMap(six, three, [0, 1, 2, 0, 1, 0], {e: e % 3 for e in six.edge_ids()})
    with pytest.raises(CoveringError):
        bad.degree


def test_verify_covering_reports_nonconstant_fibers():
    # locally bijective onto two triangles, but a hexagon covers one twice
    base, _, _ = disjoint_union([make_cycle(3), make_cycle(3)])
    source, _, _ = disjoint_union([make_cycle(6), make_cycle(3)])
    vertex_map = [v % 3 for v in range(6)] + [3, 4, 5]
    edge_map = {e: e % 3 if e < 6 else e - 3 for e in source.edge_ids()}
    verdict = verify_covering(CoveringMap(source, base, vertex_map, edge_map))
    assert not verdict
    assert verdict.reason == "fiber sizes not constant: [1, 2]"


def test_pullback_through_identity(k33, k33_pair):
    c1, _ = k33_pair
    assert pullback_coloring(CoveringMap.identity(k33), c1) == c1


def test_pullback_through_double_cover():
    p = double_cycle_cover(4)
    pulled = pullback_coloring(p, alternating_coloring(4))
    assert is_legal(p.source, pulled)
    assert pulled == alternating_coloring(8)


def test_lift_switch_identity(k33, k33_pair):
    c1, _ = k33_pair
    gamma = bichromatic_cycles(k33, c1, 1, 2)[0]
    lifted = lift_switch(CoveringMap.identity(k33), c1, gamma)
    assert lifted == [gamma]


def test_lift_whole_base_cycle_connects():
    # frozen by direct component scan: the 4-cycle lifts to the single 8-cycle
    p = double_cycle_cover(4)
    c = alternating_coloring(4)
    gamma = bichromatic_cycles(p.target, c, 1, 2)[0]
    lifted = lift_switch(p, c, gamma)
    assert len(lifted) == 1
    assert len(lifted[0]) == 8


def test_lift_partition_and_lengths(k33, k33_pair):
    c1, _ = k33_pair
    p = copies_cover(k33, 3)
    gamma = bichromatic_cycles(k33, c1, 2, 3)[0]
    lifted = lift_switch(p, c1, gamma)
    preimage = {e for e in p.source.edge_ids() if p.edge_image(e) in gamma.edges}
    seen = set()
    for cyc in lifted:
        assert len(cyc) % len(gamma) == 0
        assert len(cyc) <= p.degree * len(gamma)
        assert not seen & cyc.edges
        seen |= cyc.edges
    assert seen == preimage


def test_lift_sequence_round_trip(k33, k33_pair):
    c1, _ = k33_pair
    p = copies_cover(k33, 2)
    gamma1 = bichromatic_cycles(k33, c1, 1, 2)[0]
    mid = kempe_switch(k33, c1, gamma1)
    gamma2 = bichromatic_cycles(k33, mid, 1, 3)[0]
    seq = (gamma1, gamma2)

    lifted = lift_sequence(p, c1, seq)
    left = apply_sequence(p.source, pullback_coloring(p, c1), lifted)
    right = pullback_coloring(p, apply_sequence(k33, c1, seq))
    assert left == right


def test_lift_empty_sequence(k33, k33_pair):
    assert lift_sequence(copies_cover(k33, 2), k33_pair[0], ()) == ()


def test_compose_identity_and_degrees(k33):
    p = copies_cover(k33, 2)
    assert compose(CoveringMap.identity(k33), p) == p
    q = copies_cover(p.source, 3)
    r = compose(p, q)
    assert r.degree == 6
    with pytest.raises(CoveringError):
        compose(q, p)  # middle graphs do not match


def test_extend_subgraph_cover_full_graph(k33, k33_pair):
    p = copies_cover(k33, 2)
    r = extend_subgraph_cover(k33, k33, p)
    assert r == p


def test_extend_from_color_class(k33, k33_pair):
    c1, _ = k33_pair
    h = color_class_subgraph(k33, c1, {1, 2})
    p = copies_cover(h, 2)
    r = extend_subgraph_cover(k33, h, p)
    assert verify_covering(r)
    assert r.degree == 2
    # restriction to the subgraph cover is untouched
    assert r.vertex_map == p.vertex_map
    for e in p.source.edge_ids():
        assert r.edge_map[e] == p.edge_map[e]


def test_extend_degree_one_adds_each_missing_edge_once(k33, k33_pair):
    c1, _ = k33_pair
    h = color_class_subgraph(k33, c1, {1, 2})
    r = extend_subgraph_cover(k33, h, CoveringMap.identity(h))
    assert r.degree == 1
    assert r.source.edge_count == k33.edge_count


def test_extend_rejects_non_spanning(k33):
    h = Multigraph.from_edges(5, [])  # fewer vertices -> not spanning
    with pytest.raises(CoveringError):
        extend_subgraph_cover(k33, h, CoveringMap.identity(h))


def test_extend_rejects_nonconstant_fibers(k33, k33_pair):
    c1, _ = k33_pair
    h = color_class_subgraph(k33, c1, {1, 2})
    p = copies_cover(h, 2)
    # break fiber constancy by dropping one vertex pair onto another target
    broken = CoveringMap(
        p.source, h, [p.vertex_image(v) for v in p.source.vertices()][:-1] + [0], p.edge_map
    )
    with pytest.raises(CoveringError):
        extend_subgraph_cover(k33, h, broken)
