import pytest
from hypothesis import given, settings, strategies as st

from kempe_covers import (
    BichromaticCycle,
    ColoringError,
    CoveringError,
    CoveringMap,
    EdgeColoring,
    GraphStructureError,
    KempeCoversError,
    Multigraph,
    StaleSwitchError,
    UnknownEdgeError,
    Verdict,
    apply_sequence,
    bichromatic_cycles,
    build_alignment_cover,
    coloring,
    compose,
    connected_components,
    copies_cover,
    covering,
    equivalence,
    extend_subgraph_cover,
    is_legal,
    kempe_cover_witness,
    kempe_switch,
    lift_sequence,
    pullback_coloring,
    random_colored_instance,
    spanning_subgraph,
    verify_covering,
)

from conftest import (
    edge_table,
    K33_C1,
    K33_C2,
    alternating_coloring,
    dart_lists,
    make_cycle,
    make_disjoint,
    make_k33,
    make_theta,
    rows_off_their_first_end_sheet,
    sheet_maps,
)


def double_cycle_cover(length):
    """Wrap-around double cover of a cycle, 2L-cycle onto L-cycle, numbered sheet by sheet.

    Copy k of edge e joins sheet k over its ends, vertex 2v + k over v, and
    has id 2e + k; the copies of the closing edge L-1 cross to the other sheet.
    """
    small = make_cycle(length)
    pairs = {
        2 * e + k: (2 * u + k, 2 * w + (k if e < length - 1 else 1 - k))
        for e, (u, w) in edge_table(small).items()
        for k in range(2)
    }
    big = Multigraph(2 * length, pairs)
    return CoveringMap(big, small, [v // 2 for v in range(2 * length)], {e: e // 2 for e in big.edge_ids()})


@pytest.mark.parametrize("value", [make_k33(), EdgeColoring(3, dict(enumerate(K33_C1))), copies_cover(make_k33(), 2)],
                         ids=["graph", "coloring", "cover"])
def test_a_value_is_unequal_to_what_is_not_of_its_type(value):
    # __eq__ answers NotImplemented, so Python falls back to identity rather than reading missing fields
    for other in (None, 0, "k33"):
        assert (value == other) is False and (value != other) is True


def test_identity_is_a_covering(k33):
    p = CoveringMap.identity(k33)
    assert verify_covering(p)
    assert p.degree == 1


def test_double_cycle_cover_verifies():
    p = double_cycle_cover(4)
    assert verify_covering(p)
    assert p.degree == 2


def test_parallel_edge_collapse_fails_local_bijection():
    two = Multigraph(2, [(0, 1), (0, 1)])
    # each row leaves its sheet of base vertex 0, but both lifts of base edge 0 reach cover vertex 2
    source = Multigraph(4, {0: (0, 2), 1: (1, 2), 2: (0, 2), 3: (1, 3)})
    bad = CoveringMap(source, two, [0, 0, 1, 1], {f: f // 2 for f in range(4)})
    verdict = verify_covering(bad)
    assert not verdict
    assert "local bijection" in verdict.reason


def test_non_surjective_map_fails():
    four = make_cycle(4)
    with pytest.raises(CoveringError, match=r"^vertex 3 maps to 0, not to 3 // 1 = 3$"):
        CoveringMap(four, four, [0, 1, 2, 0], {e: e for e in four.edge_ids()})


def test_nonconstant_fibers_rejected():
    # 6-cycle plus disjoint 3 copies of nothing: map two cycles of different
    # lengths onto one cycle -> fibers differ between targets is impossible
    # for coverings, so fabricate a map with uneven vertex fibers directly
    six = make_cycle(6)
    three = make_cycle(3)
    with pytest.raises(CoveringError, match=r"^vertex 1 maps to 1, not to 1 // 2 = 0$"):
        CoveringMap(six, three, [0, 1, 2, 0, 1, 0], {e: e % 3 for e in six.edge_ids()})


def test_degree_refuses_empty_fibers():
    # every fiber over the theta graph would have size 0: constant, but no covering
    with pytest.raises(CoveringError, match="^cover has 0 vertices, not m >= 1 times the target's 2$"):
        CoveringMap(Multigraph(0, {}), make_theta(), [], {})


@pytest.mark.parametrize("image", [-1, 5])
def test_degree_refuses_an_image_outside_the_target(image):
    edge = Multigraph(2, [(0, 1)])
    with pytest.raises(CoveringError, match=f"^vertex 1 maps to {image}, not to 1 // 1 = 1$"):
        CoveringMap(edge, edge, [0, image], {0: 0})


def test_degree_refuses_an_empty_target():
    empty = Multigraph(0, {})
    with pytest.raises(CoveringError, match="^cover has 0 vertices, not m >= 1 times the target's 0$"):
        CoveringMap(empty, empty, [], {})


@pytest.mark.parametrize("image", [-1, 6])
def test_extend_refuses_an_image_outside_the_target(k33, k33_pair, image):
    rest = sorted(k33_pair[0].color_class(1))
    h = spanning_subgraph(k33, rest)
    vmap = list(range(6))
    vmap[5] = image
    with pytest.raises(CoveringError, match=f"^vertex 5 maps to {image}, not to 5 // 1 = 5$"):
        extend_subgraph_cover(k33, rest, CoveringMap(h, h, vmap, {e: e for e in h.edge_ids()}))


def test_pullback_through_identity(k33, k33_pair):
    c1, _ = k33_pair
    assert pullback_coloring(CoveringMap.identity(k33), c1) is c1
    # a degree-1 cover whose source is another graph object pulls back a table of its own
    twin = CoveringMap(Multigraph(6, dict(edge_table(k33))), k33, range(6), {e: e for e in k33.edge_ids()})
    pulled = pullback_coloring(twin, c1)
    assert pulled == c1 and pulled._colors is not c1._colors


def test_pullback_through_double_cover():
    p = double_cycle_cover(4)
    c = alternating_coloring(4)
    pulled = pullback_coloring(p, c)
    assert is_legal(p.source, pulled)
    # the 8-cycle alternates, each edge colored as its image
    assert len(connected_components(p.source)) == 1
    assert dict(pulled.items()) == {e: c[p.edge_image(e)] for e in p.source.edge_ids()}


def test_pullback_names_the_first_uncolored_base_edge(k33):
    # a coloring is a list over ids 0..E-1, so a partial one misses the ids from its length on
    partial = EdgeColoring(3, K33_C1[:4])
    with pytest.raises(ColoringError, match="^edge 4 is not colored$"):
        pullback_coloring(copies_cover(k33, 2), partial)
    # a coloring with ids 4 and 7 left out is refused where it is built
    with pytest.raises(ColoringError, match="^edge ids must be 0..6: 4 is missing$"):
        EdgeColoring(3, {e: col for e, col in enumerate(K33_C1) if e not in (4, 7)})


@pytest.mark.parametrize("cover", [lambda g: copies_cover(g, 2), CoveringMap.identity], ids=["copies", "identity"])
@pytest.mark.parametrize("colors, reason", [
    (K33_C1[:8], "^edge 8 is not colored$"),
    (K33_C1 + (1, 2), "^edge 9 is not in the graph$"),  # extra entries are not dropped
], ids=["short", "long"])
def test_pullback_refuses_a_coloring_of_another_length(k33, cover, colors, reason):
    # the identity returns its coloring as it is, so the length is checked before that shortcut
    with pytest.raises(ColoringError, match=reason):
        pullback_coloring(cover(k33), EdgeColoring(3, colors))


def test_lift_switch_identity(k33, k33_pair):
    c1, _ = k33_pair
    gamma = bichromatic_cycles(k33, c1, 1, 2)[0]
    lifted = lift_sequence(CoveringMap.identity(k33), c1, [gamma])
    assert lifted == (gamma,)


def test_lift_whole_base_cycle_connects():
    # frozen by direct component scan: the 4-cycle lifts to the single 8-cycle
    p = double_cycle_cover(4)
    c = alternating_coloring(4)
    gamma = bichromatic_cycles(p.target, c, 1, 2)[0]
    lifted = lift_sequence(p, c, [gamma])
    assert len(lifted) == 1
    assert len(lifted[0]) == 8


def test_lift_partition_and_lengths(k33, k33_pair):
    c1, _ = k33_pair
    p = copies_cover(k33, 3)
    gamma = bichromatic_cycles(k33, c1, 2, 3)[0]
    lifted = lift_sequence(p, c1, [gamma])
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


@pytest.mark.parametrize("k", [1, 2])
def test_lift_sequence_names_the_position_of_a_stale_base_switch(k33, k33_pair, k):
    c1, _ = k33_pair
    gamma1 = bichromatic_cycles(k33, c1, 1, 2)[0]
    gamma2 = bichromatic_cycles(k33, kempe_switch(k33, c1, gamma1), 1, 3)[0]
    # gamma2 is a whole component after gamma1 and after gamma2 itself; one edge short, it is stale
    stale = BichromaticCycle(gamma2.colors, gamma2.edge_ids[:-1])
    with pytest.raises(StaleSwitchError, match=f"sequence position {k}") as info:
        lift_sequence(copies_cover(k33, 2), c1, (gamma1, gamma2)[:k] + (stale,))
    assert info.value.index == k


def test_lift_empty_sequence(k33, k33_pair):
    assert lift_sequence(copies_cover(k33, 2), k33_pair[0], ()) == ()


@pytest.fixture(scope="module")
def d4_witness():
    return kempe_cover_witness(*random_colored_instance(2, 4, 8))


@pytest.mark.parametrize(
    "one_shot", [iter, lambda switches: (cycle for cycle in switches)], ids=["iterator", "generator"]
)
def test_lift_sequence_lifts_a_one_shot_iterable_as_a_tuple(d4_witness, one_shot):
    w = d4_witness
    projection = copies_cover(w.cover.source, 2)
    start = pullback_coloring(w.cover, w.start)
    switches = w.switches[:5]
    lifted = lift_sequence(projection, start, switches)
    assert len(lifted) == 10
    # the sequence is read once: a second read, to lift, would find a one-shot iterable empty
    assert lift_sequence(projection, start, one_shot(switches)) == lifted


def kempe_walk(g, c):
    """A replayable sequence on ``g`` from ``c``: switch the first cycle of every color pair in turn."""
    walk = []
    for i in range(1, c.degree + 1):
        for j in range(i + 1, c.degree + 1):
            walk.append(bichromatic_cycles(g, c, i, j)[0])
            c = kempe_switch(g, c, walk[-1])
    return tuple(walk)


@pytest.mark.parametrize("seed, d, n", [(2, 4, 8), (1, 3, 8), (5, 3, 4), (1, 5, 6)])
def test_lift_is_lift_sequence_without_its_replay(monkeypatch, seed, d, n):
    g, c1, c2 = random_colored_instance(seed, d, n)
    w = kempe_cover_witness(g, c1, c2)
    projection = copies_cover(w.cover.source, 2)
    # a witness cover with a walk on its base, and a projection with the witness's own switches
    cases = [(w.cover, c1, kempe_walk(g, c1)), (projection, pullback_coloring(w.cover, c1), w.switches)]
    expected = [lift_sequence(p, c, sequence) for p, c, sequence in cases]
    assert all(expected)

    def no_replay(*args):
        raise AssertionError("_lift replayed its sequence")

    for module in (coloring, covering):
        monkeypatch.setattr(module, "_replay", no_replay)
    assert [covering._lift(p, sequence) for p, _, sequence in cases] == expected


def test_copies_cover_counts_and_provenance():
    k33 = make_k33()
    doubled = copies_cover(k33, 2)
    assert doubled.source.vertex_count == 12 and doubled.source.edge_count == 18
    assert len(connected_components(doubled.source)) == 2
    assert verify_covering(doubled) and doubled.degree == 2
    # copy k of vertex v is 3v + k; copy k of edge e is 3e + k, in g's own ids
    path_pairs = spanning_subgraph(make_cycle(6), [0, 2, 3, 5])
    tripled = copies_cover(path_pairs, 3)
    assert tripled.degree == 3 and tripled.source.vertex_count == 18
    assert tripled.source.edge_ids() == tuple(range(12))
    for f in tripled.source.edge_ids():
        e, k = divmod(f, 3)
        assert tripled.edge_image(f) == e
        assert tripled.source.endpoints(f) == tuple(3 * v + k for v in path_pairs.endpoints(e))
    # ids outside 0..11 have no image: a list would read -1 as its last row
    for f in (-1, 12):
        with pytest.raises(UnknownEdgeError, match=f"^no edge {f} in the cover$"):
            tripled.edge_image(f)
    assert copies_cover(k33, 1).source == k33


def test_copies_cover_rejects_zero():
    with pytest.raises(GraphStructureError, match="need at least one copy, got 0"):
        copies_cover(make_k33(), 0)


@pytest.mark.parametrize("m", [2.5, 2.0, "2", True, None])
def test_copies_cover_refuses_what_is_not_an_integer(m):
    with pytest.raises(GraphStructureError, match=f"^need at least one copy, got {m!r}$"):
        copies_cover(make_k33(), m)


def _rest_of_a_top_class(seed, d, n):
    """A (d+1)-regular g, the ids in g of its d-regular rest h without one color class, h, and two colorings of h.

    h numbers its edges densely in g's id order; its second coloring is its first after a {i, d}
    switch for each i < d.
    """
    g, _, c = random_colored_instance(seed, d + 1, n)
    rest = [e for e in g.edge_ids() if c[e] <= d]
    h = spanning_subgraph(g, rest)
    a = b = EdgeColoring(d, [c[e] for e in rest])
    for i in range(1, d):
        b = kempe_switch(h, b, bichromatic_cycles(h, b, i, d)[-1])
    return g, rest, h, a, b


REST_SHAPES = [(0, 3, 8), (1, 4, 8), (2, 3, 10), (3, 4, 10)]


def _alignment_covers():
    rests = [(h, a, b) for _, _, h, a, b in (_rest_of_a_top_class(*shape) for shape in REST_SHAPES)]
    instances = [random_colored_instance(seed, d, 8) for seed in range(4) for d in (3, 4, 5)]
    return [build_alignment_cover(*instance)[0] for instance in rests + instances]


def _extension_covers():
    covers = []
    for g, rest, h, a, b in (_rest_of_a_top_class(*shape) for shape in REST_SHAPES):
        covers.append(extend_subgraph_cover(g, rest, build_alignment_cover(h, a, b)[0]))
        covers.append(extend_subgraph_cover(g, rest, kempe_cover_witness(h, a, b).cover))
    return covers


def _copies_covers():
    return [copies_cover(_rest_of_a_top_class(*shape)[2], m) for shape, m in zip(REST_SHAPES, (1, 2, 3, 4))]


def _union_covers():
    g, c1, c2 = random_colored_instance(1, 4, 8)
    w = kempe_cover_witness(g, c1, c2)
    part = (w.cover, w.switches, range(g.vertex_count), range(g.edge_count))
    # and the per-component witness of g beside another d=4 instance, whose edge ids follow g's
    other, d1, d2 = random_colored_instance(3, 4, 8)
    pairs = [[col for _, col in c.items()] + [col for _, col in x.items()] for c, x in ((c1, d1), (c2, d2))]
    apart = kempe_cover_witness(make_disjoint(g, other), *(EdgeColoring(4, colors) for colors in pairs))
    return [equivalence._union_witness(g, [part], 2 * w.cover.degree)[0], apart.cover]


def _witness_covers():
    shapes = [(seed, 3, n) for seed in range(6) for n in (8, 20)] + [(seed, 4, 20) for seed in range(4)]
    shapes += [(1, 5, 6), (3, 5, 6)]
    return [kempe_cover_witness(*random_colored_instance(*shape)).cover for shape in shapes]


@pytest.mark.parametrize(
    "built",
    [_alignment_covers, _extension_covers, _copies_covers, _union_covers, _witness_covers],
    ids=["alignment", "extension", "copies", "union", "witness"],
)
def test_every_built_row_leaves_its_base_rows_first_end_on_its_own_sheet(built):
    # row e*m + k of e = (u, w) starts at u*m + k: the cover is one sheet permutation per base edge
    for p in built():
        assert rows_off_their_first_end_sheet(p) == []
        verdict = verify_covering(p)
        assert verdict, verdict.reason


def test_compose_identity_and_degrees(k33):
    p = copies_cover(k33, 2)
    assert compose(CoveringMap.identity(k33), p) == p
    q = copies_cover(p.source, 3)
    r = compose(p, q)
    assert r.degree == 6
    with pytest.raises(CoveringError):
        compose(q, p)  # middle graphs do not match


def test_a_cover_numbered_otherwise_is_refused_where_division_would_mislift():
    # the double cover of the 4-cycle by the 8-cycle, numbered around the cycle: v over v % 4
    big, small = make_cycle(8), make_cycle(4)
    with pytest.raises(CoveringError, match=r"^vertex 1 maps to 1, not to 1 // 2 = 0$"):
        CoveringMap(big, small, [v % 4 for v in range(8)], {e: e % 4 for e in big.edge_ids()})
    # the same covering numbered sheet by sheet is taken, and lifts the 4-cycle to the 8-cycle
    p = double_cycle_cover(4)
    c = alternating_coloring(4)
    assert verify_covering(p) and p.vertex_fiber(3) == (6, 7)
    assert [len(cycle) for cycle in lift_sequence(p, c, bichromatic_cycles(small, c, 1, 2))] == [8]


def test_extend_subgraph_cover_full_graph(k33, k33_pair):
    p = copies_cover(k33, 2)
    r = extend_subgraph_cover(k33, k33.edge_ids(), p)
    assert r == p


def test_extend_from_color_class(k33, k33_pair):
    c1, _ = k33_pair
    rest = sorted(c1.color_class(1) | c1.color_class(2))
    p = copies_cover(spanning_subgraph(k33, rest), 2)
    r = extend_subgraph_cover(k33, rest, p)
    assert verify_covering(r)
    assert r.degree == 2
    # restriction to the subgraph cover is untouched: its row i*2 + k is row rest[i]*2 + k
    assert r.source.vertex_count == p.source.vertex_count
    for f in p.source.edge_ids():
        up = rest[f // 2] * 2 + f % 2
        assert r.source.endpoints(up) == p.source.endpoints(f) and r.edge_image(up) == rest[p.edge_image(f)]


def test_extend_degree_one_adds_each_missing_edge_once(k33, k33_pair):
    c1, _ = k33_pair
    rest = sorted(c1.color_class(1) | c1.color_class(2))
    h = spanning_subgraph(k33, rest)
    r = extend_subgraph_cover(k33, rest, CoveringMap.identity(h))
    assert r.degree == 1
    assert r.source.edge_count == k33.edge_count


def test_extend_the_trivial_cover_to_the_identity_of_the_full_graph(k33, k33_pair):
    c1, _ = k33_pair
    rest = sorted(c1.color_class(1) | c1.color_class(2))
    h = spanning_subgraph(k33, rest)
    r = extend_subgraph_cover(k33, rest, CoveringMap.identity(h))
    assert r == CoveringMap.identity(k33)
    assert copies_cover(k33, 1) == CoveringMap.identity(k33)


def test_a_degree_one_cover_stored_reversed_is_refused_and_so_is_its_extension(k33, k33_pair):
    c1, _ = k33_pair
    rest = sorted(c1.color_class(1) | c1.color_class(2))
    h = spanning_subgraph(k33, rest)
    rows = {e: ends[::-1] if e == 0 else ends for e, ends in edge_table(h).items()}
    source = Multigraph(h.vertex_count, rows)
    p = CoveringMap(source, h, range(h.vertex_count), {e: e for e in rows})
    # row 0 is the base row stored the other way round: the sheet rule reads rows directed
    assert verify_covering(p) == Verdict(False, "edge 0 does not preserve incidence")
    # the extension trusts its input and takes every tail from k33, so that row comes out a loop
    r = extend_subgraph_cover(k33, rest, p)
    u, _ = k33.endpoints(rest[0])
    assert r.source.endpoints(rest[0]) == (u, u)
    assert verify_covering(r) == Verdict(False, f"edge {rest[0]} does not preserve incidence")


def test_lift_through_the_trivial_cover_keeps_each_switch(monkeypatch, k33, k33_pair):
    c1, _ = k33_pair
    sequence = kempe_walk(k33, c1)

    def no_decomposition(*args):
        raise AssertionError("_lift decomposed a switch")

    monkeypatch.setattr(covering, "_cycle_decomposition", no_decomposition)
    lifted = covering._lift(CoveringMap.identity(k33), sequence)
    assert lifted == sequence
    assert all(up is down for up, down in zip(lifted, sequence))
    assert lift_sequence(CoveringMap.identity(k33), c1, iter(sequence)) == sequence
    # lift_sequence still replays: one edge short, the second switch is stale
    stale = BichromaticCycle(sequence[1].colors, sequence[1].edge_ids[:-1])
    with pytest.raises(StaleSwitchError, match="sequence position 1"):
        lift_sequence(CoveringMap.identity(k33), c1, (sequence[0], stale))


def test_extend_rejects_non_spanning(k33):
    h = Multigraph(5, [])  # fewer vertices -> not spanning
    with pytest.raises(CoveringError):
        extend_subgraph_cover(k33, [], CoveringMap.identity(h))


def test_extend_rejects_a_cover_of_another_subgraph(k33, k33_pair):
    c1, _ = k33_pair
    rest = sorted(c1.color_class(1) | c1.color_class(2))
    other = spanning_subgraph(k33, c1.color_class(3))
    with pytest.raises(CoveringError, match="^cover does not map onto the given subgraph$"):
        extend_subgraph_cover(k33, rest, copies_cover(other, 2))


@pytest.mark.parametrize("edges, wrong", [
    ({0: (0, 3), 5: (2, 4)}, 5),  # edge 5 runs 1-5 in k33
    ({0: (3, 0)}, 0),  # the stored endpoint order differs
    ({0: (0, 3), 9: (1, 4)}, 9),  # k33 has no edge 9
    ({4: (1, 4), 0: (0, 3)}, 0),  # the ids do not ascend
    ({0: (0, 3), -1: (2, 5)}, -1),  # a list would read -1 as k33's last row
])
def test_extend_rejects_a_subgraph_edge_missing_from_the_graph(k33, edges, wrong):
    # the subgraph's edge i is to be edge list(edges)[i] of k33, and edge `wrong` cannot be
    h = Multigraph(k33.vertex_count, list(edges.values()))
    assert wrong in edges
    with pytest.raises(CoveringError, match="^cover does not map onto the given subgraph$"):
        extend_subgraph_cover(k33, list(edges), CoveringMap.identity(h))


def test_extend_rejects_nonconstant_fibers(k33, k33_pair):
    c1, _ = k33_pair
    rest = sorted(c1.color_class(1) | c1.color_class(2))
    h = spanning_subgraph(k33, rest)
    p = copies_cover(h, 2)
    # break fiber constancy by moving the last cover vertex onto base vertex 0
    vmap, emap = sheet_maps(p)
    with pytest.raises(CoveringError, match=r"^vertex 11 maps to 0, not to 11 // 2 = 5$"):
        extend_subgraph_cover(k33, rest, CoveringMap(p.source, h, vmap[:-1] + [0], emap))


# -- verdicts pinned reason by reason ------------------------------------------


def _k33_identity_parts():
    k33 = make_k33()
    return k33, list(range(6)), {e: e for e in k33.edge_ids()}


def _not_total():
    k33, vmap, emap = _k33_identity_parts()
    return CoveringMap(k33, k33, vmap[:-1], emap)


def _too_long():
    k33, vmap, emap = _k33_identity_parts()
    return CoveringMap(k33, k33, vmap + [0], emap)


def _edge_map_mismatch():
    k33, vmap, emap = _k33_identity_parts()
    del emap[8]
    return CoveringMap(k33, k33, vmap, emap)


def _edge_map_foreign():
    k33, vmap, emap = _k33_identity_parts()
    emap[12] = emap[9] = 0
    return CoveringMap(k33, k33, vmap, emap)


def _edge_map_str_key():
    edge = Multigraph(2, [(0, 1)])
    return CoveringMap(edge, edge, [0, 1], {"a": 0})


def _edge_map_bool_key():
    # False == 0, but a bool is no id, as in a graph's edge table
    edge = Multigraph(2, [(0, 1)])
    return CoveringMap(edge, edge, [False, True], {False: 0})


def _vertex_outside():
    k33, vmap, emap = _k33_identity_parts()
    vmap[2] = 6
    return CoveringMap(k33, k33, vmap, emap)


def _edge_image():
    k33, vmap, emap = _k33_identity_parts()
    emap[4] = 9
    return CoveringMap(k33, k33, vmap, emap)


def _edge_list_cut_short():
    k33, vmap, emap = _k33_identity_parts()
    return CoveringMap(k33, k33, vmap, list(emap.values())[:8])


def _edge_list_run_long():
    k33, vmap, emap = _k33_identity_parts()
    return CoveringMap(k33, k33, vmap, list(emap.values()) + [0] * 4)


def _edge_list_image():
    k33, vmap, emap = _k33_identity_parts()
    emap[4] = 9
    return CoveringMap(k33, k33, vmap, list(emap.values()))


def _vertex_not_surjective():
    triangle = make_cycle(3)
    with_isolated = Multigraph(4, dict(edge_table(triangle)))
    return CoveringMap(triangle, with_isolated, [0, 1, 2], {e: e for e in triangle.edge_ids()})


def _nonconstant_fibers():
    # locally bijective onto two triangles, but a hexagon covers one twice
    base = make_disjoint(make_cycle(3), make_cycle(3))
    source = make_disjoint(make_cycle(6), make_cycle(3))
    vertex_map = [v % 3 for v in range(6)] + [3, 4, 5]
    edge_map = {e: e % 3 if e < 6 else e - 3 for e in source.edge_ids()}
    return CoveringMap(source, base, vertex_map, edge_map)


@pytest.mark.parametrize(
    "broken, reason",
    [
        (_not_total, "vertex 5 has no image"),
        (_too_long, "vertex map names vertex 6, not a source vertex"),
        (_edge_map_mismatch, "edge 8 has no image"),
        # a mapping is read as a graph's edge table is: keyed by exactly 0..N-1, else its first gap is named
        (_edge_map_foreign, "edge ids must be 0..10: 10 is missing"),
        (_edge_map_str_key, "edge ids must be 0..0: 0 is missing"),
        (_edge_map_bool_key, "edge ids must be 0..0: 0 is missing"),
        (_vertex_outside, "vertex 2 maps to 6, not to 2 // 1 = 2"),
        (_edge_image, "edge 4 maps to 9, not to 4 // 1 = 4"),
        # the same three faults in an edge map given as a list
        (_edge_list_cut_short, "edge 8 has no image"),
        (_edge_list_run_long, "edge map names edge 9, not a source edge"),
        (_edge_list_image, "edge 4 maps to 9, not to 4 // 1 = 4"),
        (_vertex_not_surjective, "cover has 3 vertices, not m >= 1 times the target's 4"),
        (_nonconstant_fibers, "cover has 9 vertices, not m >= 1 times the target's 6"),
    ],
)
def test_constructor_names_the_first_entry_at_fault(broken, reason):
    with pytest.raises(CoveringError) as info:
        broken()
    assert str(info.value) == reason


def test_a_faulty_map_given_as_an_iterator_is_refused_as_a_covering_error():
    # a map that is no sequence is read once to compare it; a faulty one still raises CoveringError
    k33, vmap, emap = _k33_identity_parts()
    assert CoveringMap(k33, k33, iter(vmap), iter(emap.values())) == CoveringMap.identity(k33)
    vmap[2] = 6
    with pytest.raises(CoveringError):
        CoveringMap(k33, k33, iter(vmap), emap)


def _edge_outside():
    # the double cover of the digon, two sheets over its two edges, plus a fifth row: 4 // 2 is no edge,
    # and the cover has more than m|E| rows
    digon = Multigraph(2, [(0, 1), (0, 1)])
    source = Multigraph(4, [(0, 2), (1, 3), (0, 2), (1, 3), (0, 3)])
    return CoveringMap(source, digon, [0, 0, 1, 1], {f: f // 2 for f in range(5)})


def _incidence():
    k33, vmap, emap = _k33_identity_parts()
    # edge 0 is (0, 3); rerouted to (0, 4), it no longer runs over its image's ends
    return CoveringMap(Multigraph(6, {**edge_table(k33), 0: (0, 4)}), k33, vmap, emap)


def _edge_not_surjective():
    # no row lies over theta's edge 2
    digon = Multigraph(2, [(0, 1), (0, 1)])
    return CoveringMap(digon, make_theta(), [0, 1], {0: 0, 1: 1})


def _collision():
    # every row keeps the sheet rule, but both lifts of the digon's edge 0 reach cover vertex 2
    digon = Multigraph(2, [(0, 1), (0, 1)])
    source = Multigraph(4, {0: (0, 2), 1: (1, 2), 2: (0, 2), 3: (1, 3)})
    return CoveringMap(source, digon, [0, 0, 1, 1], {f: f // 2 for f in range(4)})


def _short_fiber():
    # the lifts of theta's edges 0 and 1 and one of edge 2: onto, no collision, constant vertex fibers,
    # but source vertex 1 sees only two of its image's three edges
    source = Multigraph(4, [(0, 2), (1, 3), (0, 2), (1, 3), (0, 2)])
    return CoveringMap(source, make_theta(), [0, 0, 1, 1], {f: f // 2 for f in range(5)})


def _reversed_rows():
    k33, vmap, emap = _k33_identity_parts()
    # k33 with each edge stored the other way round: a covering, but each row leaves the wrong end
    return CoveringMap(Multigraph(6, {e: (w, u) for e, (u, w) in edge_table(k33).items()}), k33, vmap, emap)


def _fiber_swap():
    # two copies of k33: rows 8 and 9, the lifts of edge 4 = (1, 4), trade their ends, so row 8
    # leaves base vertex 1 on sheet 1; the graph is the same, and so is every vertex's image
    rows = dict(edge_table(copies_cover(make_k33(), 2).source))
    rows[8], rows[9] = rows[9], rows[8]
    return CoveringMap(Multigraph(12, rows), make_k33(), [v // 2 for v in range(12)], {f: f // 2 for f in rows})


@pytest.mark.parametrize(
    "broken, reason",
    [
        (_edge_outside, "cover edge count 5 is not 2 x 2"),
        (_incidence, "edge 0 does not preserve incidence"),
        (_reversed_rows, "edge 0 does not preserve incidence"),
        (_fiber_swap, "edge 8 does not preserve incidence"),
        (_edge_not_surjective, "cover edge count 2 is not 1 x 3"),
        (_collision, "local bijection fails at source vertex 2 (collision)"),
        (_short_fiber, "cover edge count 5 is not 2 x 3"),
    ],
)
def test_verify_covering_reasons(broken, reason):
    assert verify_covering(broken()) == Verdict(False, reason)


# -- differential check against the multi-pass reference ------------------------


def reference_verify_covering(p):
    """The multi-pass verify_covering this module's check must agree with: the row count, the sheet
    rule row by row, then each row's second end against the earlier rows at that vertex, and last
    the local bijection at every vertex, which the rule and distinct second ends must already give."""
    src, tgt, (vmap, emap) = p.source, p.target, sheet_maps(p)
    m = p.degree
    if len(vmap) != src.vertex_count:
        return Verdict(False, "vertex map is not total on the source")
    if set(emap) != set(src.edge_ids()):
        return Verdict(False, "edge map does not match the source edge set")
    if src.edge_count != m * tgt.edge_count:
        return Verdict(False, f"cover edge count {src.edge_count} is not {m} x {tgt.edge_count}")
    for v in range(src.vertex_count):
        if not 0 <= vmap[v] < tgt.vertex_count:
            return Verdict(False, f"vertex {v} maps outside the target")
    for f in src.edge_ids():
        (u, w), (a, b) = src.endpoints(f), tgt.endpoints(emap[f])
        # the sheet rule, read directed: from sheet f % m of the base row's first end, to a vertex over its second
        if u != a * m + f % m or vmap[w] != b:
            return Verdict(False, f"edge {f} does not preserve incidence")
    src_darts, tgt_darts = dart_lists(src), dart_lists(tgt)
    for f in src.edge_ids():
        v = src.endpoints(f)[1]
        if any(e < f and emap[e] == emap[f] for e, _ in src_darts[v]):
            return Verdict(False, f"local bijection fails at source vertex {v} (collision)")
    for v in range(src.vertex_count):
        if sorted(emap[e] for e, _ in src_darts[v]) != sorted(e for e, _ in tgt_darts[vmap[v]]):
            return Verdict(False, f"local bijection fails at source vertex {v}")
    if set(vmap) != set(range(tgt.vertex_count)) or set(emap.values()) != set(tgt.edge_ids()):
        return Verdict(False, "map is not surjective")
    return Verdict(True)


def reference_is_legal(g, c):
    """The multi-pass is_legal (with its totality check) the fast path must agree with."""
    carrier = set(g.edge_ids())
    colored = set(e for e, _ in c.items())
    if carrier - colored:
        raise ColoringError(f"edge {min(carrier - colored)} is not colored")
    if colored - carrier:
        raise ColoringError(f"edge {min(colored - carrier)} is not in the graph")
    for darts in dart_lists(g):
        seen = set()
        for e, _ in darts:
            col = c[e]
            if col in seen:
                return False
            seen.add(col)
    return True


def outcome(check, *args):
    """A check's result, or the type and message of the error it raised."""
    try:
        return check(*args)
    except KempeCoversError as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def valid_covers():
    """(cover, base coloring) pairs: the identity, and copies, alignment and witness covers."""
    k33 = make_k33()
    c1 = EdgeColoring(3, dict(enumerate(K33_C1)))
    c2 = EdgeColoring(3, dict(enumerate(K33_C2)))
    g4, d1, d2 = random_colored_instance(2, 4, 8)
    covers = [
        (CoveringMap(Multigraph(6, dict(edge_table(k33))), k33, range(6), {e: e for e in k33.edge_ids()}), c2),
        (copies_cover(k33, 3), c1),
        (build_alignment_cover(k33, c1, c2)[0], c2),
        (kempe_cover_witness(k33, c1, c2).cover, c1),
        (build_alignment_cover(g4, d1, d2)[0], d1),
        (kempe_cover_witness(g4, d1, d2).cover, d2),
    ]
    for p, _ in covers:
        assert verify_covering(p)
    return covers


MUTATION = st.sampled_from(["none", "vertex", "edge", "append", "parallel", "fiber-swap", "drop"])


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_verify_covering_matches_reference(valid_covers, data):
    """Both checks on a valid cover whose graph had one row changed; the maps stay x // m."""
    p, _ = data.draw(st.sampled_from(valid_covers))
    m, rows = p.degree, dict(edge_table(p.source))
    kind = data.draw(MUTATION)
    if kind != "none":
        f = data.draw(st.sampled_from(sorted(rows)))
        u, w = rows.pop(f)
    if kind == "vertex":  # reattach one end anywhere
        rows[f] = (data.draw(st.sampled_from([x for x in range(p.source.vertex_count) if x != w])), w)
    elif kind == "edge":  # trade rows with another id, so both lie over other base edges
        g = data.draw(st.sampled_from([g for g in range(len(rows) + 1) if g != f]))
        rows[f], rows[g] = rows[g], (u, w)
    elif kind == "append":  # keep the row, and a copy at a new last id lies over another base edge or none
        rows[f] = (u, w)
        rows[len(rows)] = (u, w)
    elif kind == "parallel":  # reattach the second end within its fiber: keeps the sheet rule, so the later checks get reached
        rows[f] = (u, data.draw(st.sampled_from(range(w - w % m, w - w % m + m))))
    elif kind == "fiber-swap":  # exchange the tails of two rows of one fiber: the same graph, numbered off the rule
        g = data.draw(st.sampled_from(range(f - f % m, f - f % m + m)))
        rows[f] = (u, w)
        rows[f], rows[g] = (rows[g][0], w), (u, rows[g][1])
    elif kind == "drop":  # ids stay 0..E-1: the last row takes the dropped one's place
        if f < len(rows):
            rows[f] = rows.pop(len(rows))
    source = Multigraph(p.source.vertex_count, rows)
    broken = CoveringMap(source, p.target, [x // m for x in range(source.vertex_count)], {g: g // m for g in rows})
    fast, slow = outcome(verify_covering, broken), outcome(reference_verify_covering, broken)
    assert fast == slow
    assert kind != "none" or fast == Verdict(True)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_the_constructor_takes_built_maps_and_names_any_changed_entry(valid_covers, data):
    """A changed entry, a map cut short or run long, or a change with a length fault: the first id at
    fault is named. The edge map is a list or a dict, and a list fails as the same map keyed by id does."""
    p, _ = data.draw(st.sampled_from(valid_covers))
    m, (vmap, emap) = p.degree, sheet_maps(p)
    # a key that is no id, a string or a bool, leaves a gap in a mapping, which is named
    x = data.draw(st.sampled_from([0, 1]))
    keyed = dict(emap)
    keyed[data.draw(st.sampled_from([str(x), bool(x)]))] = keyed.pop(x)
    with pytest.raises(CoveringError, match=f"^edge ids must be 0..{len(keyed) - 1}: {x} is missing$"):
        CoveringMap(p.source, p.target, vmap, keyed)
    if data.draw(st.booleans()):
        emap = list(emap.values())
    assert CoveringMap(p.source, p.target, vmap, emap) == p
    kind = data.draw(st.sampled_from(["vertex", "edge"]))
    images, size, targets = (
        (vmap, p.source.vertex_count, p.target.vertex_count)
        if kind == "vertex"
        else (emap, p.source.edge_count, p.target.edge_count)
    )
    changed = data.draw(st.booleans())
    length = data.draw(st.sampled_from(["kept", "short", "long"] if changed else ["short", "long"]))
    faults = []
    if changed:
        x = data.draw(st.sampled_from(range(size)))
        images[x] = data.draw(st.integers(-1, targets).filter(lambda image: image != x // m))
        faults.append((x, f"{kind} {x} maps to {images[x]}, not to {x} // {m} = {x // m}"))
    if length == "short":  # the entries from ``cut`` on go, a changed one among them
        cut = data.draw(st.integers(0, size - 1))
        for y in reversed(range(cut, size)):
            del images[y]
        faults = [(x, reason) for x, reason in faults if x < cut] + [(cut, f"{kind} {cut} has no image")]
    elif length == "long":
        extra = range(size, size + data.draw(st.integers(1, 3)))
        if isinstance(images, dict):
            images.update(dict.fromkeys(extra, 0))
        else:
            images.extend([0] * len(extra))
        faults.append((size, f"{kind} map names {kind} {size}, not a source {kind}"))
    with pytest.raises(CoveringError) as info:
        CoveringMap(p.source, p.target, vmap, emap)
    assert str(info.value) == min(faults)[1]
    if isinstance(images, list):
        keyed = dict(enumerate(images))
        with pytest.raises(CoveringError) as reference:
            CoveringMap(p.source, p.target, *((keyed, emap) if kind == "vertex" else (vmap, keyed)))
        assert str(reference.value) == str(info.value)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_is_legal_matches_reference(valid_covers, data):
    p, base = data.draw(st.sampled_from(valid_covers))
    colors = dict(pullback_coloring(p, base).items())
    kind = data.draw(st.sampled_from(["none", "recolor", "drop", "foreign"]))
    if kind == "recolor":
        e = data.draw(st.sampled_from(sorted(colors)))
        colors[e] = data.draw(st.integers(1, base.degree))
    elif kind == "drop":  # a coloring is a list over 0..E-1: only its last edge can go uncolored
        del colors[max(colors)]
    elif kind == "foreign":
        colors[max(colors) + 1] = 1
    c = EdgeColoring(base.degree, colors)
    assert outcome(is_legal, p.source, c) == outcome(reference_is_legal, p.source, c)


# -- the one row writer against the builders it replaced ------------------------


def reference_copies_rows(g, m):
    """Frozen copy of the rows that copies_cover built before one writer wrote them all: copy k of
    the edge e = (u, w) is row e*m + k, from u*m + k to w*m + k."""
    tails = [u * m + k for u in g._tails for k in range(m)]
    heads = [w * m + k for w in g._heads for k in range(m)]
    return g.vertex_count * m, tails, heads, m


def reference_extension_rows(g, edges, p):
    """Frozen copy of the row loop that extend_subgraph_cover ran before one writer wrote them all:
    edge edges[i] takes p's rows i*m + k, and each other edge lifts sheet by sheet."""
    m, source = p.degree, p.source
    rows = dict(zip(edges, range(0, len(edges) * m, m)))
    tails, heads = [], []
    for e, (u, w) in enumerate(zip(g._tails, g._heads)):
        f = rows.get(e)
        if f is None:
            tails.extend(range(u * m, u * m + m))
            heads.extend(range(w * m, w * m + m))
        else:
            tails.extend(source._tails[f : f + m])
            heads.extend(source._heads[f : f + m])
    return source.vertex_count, tails, heads, m


def written_rows(p):
    return p.source._n, p.source._tails, p.source._heads, p.degree


@pytest.fixture(scope="module")
def spanning_covers():
    """(g, edges, h, covers): the empty edge list and each color class's complement in a few bases, the
    spanning subgraph h on those edges and covers of h. Past the identity they are the alignment cover
    and a built witness's cover of two colorings of h, a switch apart, whose permutations are not all
    the identity."""
    bases = [(make_k33(), EdgeColoring(3, K33_C1))]
    for seed, d in ((0, 4), (1, 4), (2, 5)):
        g, c, _ = random_colored_instance(seed, d, 8)
        bases.append((g, c))
    samples = []
    for g, c in bases:
        d = c.degree
        samples.append((g, [], spanning_subgraph(g, []), []))
        for k in range(1, d + 1):
            edges = [e for e in g.edge_ids() if c[e] != k]
            h = spanning_subgraph(g, edges)
            names = [*range(d), k]  # d takes k's name, so h's colors are 1..d-1
            a = EdgeColoring(d - 1, [names[c[e]] for e in edges])
            b = kempe_switch(h, a, bichromatic_cycles(h, a, 1, d - 1)[0])
            samples.append((g, edges, h, [build_alignment_cover(h, a, b)[0], kempe_cover_witness(h, a, b).cover]))
    # some of their permutations are not the identity: those covers are not copies
    assert any(written_rows(p) != reference_copies_rows(p.target, p.degree) for *_, covers in samples for p in covers)
    return samples


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_copies_and_extensions_write_the_rows_of_the_frozen_builders(spanning_covers, data):
    g, edges, h, covers = data.draw(st.sampled_from(spanning_covers))
    m = data.draw(st.integers(1, 4))
    for base in (g, h):
        assert written_rows(copies_cover(base, m)) == reference_copies_rows(base, m)
    p = data.draw(st.sampled_from([CoveringMap.identity(h), copies_cover(h, m), *covers]))
    assert written_rows(extend_subgraph_cover(g, edges, p)) == reference_extension_rows(g, edges, p)
