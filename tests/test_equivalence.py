import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kempe_covers import (
    BichromaticCycle,
    CoveringError,
    CoveringMap,
    EdgeColoring,
    EquivalenceWitness,
    GraphStructureError,
    IllegalColoringError,
    KempeCoversError,
    Multigraph,
    RegularityError,
    StaleSwitchError,
    Verdict,
    beta,
    bichromatic_cycles,
    bundled_instance_path,
    common_degree,
    compose,
    connected_components,
    copies_cover,
    equivalence,
    equivalent_without_cover,
    is_legal,
    kempe_cover_witness,
    kempe_switch,
    lift_sequence,
    pullback_coloring,
    random_colored_instance,
    verify_covering,
    verify_witness,
)
from kempe_covers.coloring import _replay
from kempe_covers.serialize import instance_from_json, load_json, witness_from_json

from conftest import (
    edge_table,
    K33_C1,
    K33_C2,
    alternating_coloring,
    make_cycle,
    make_disjoint,
    make_k33,
    make_petersen,
    make_theta,
    rows_off_their_first_end_sheet,
    sheet_maps,
)


def test_beta_table():
    assert [beta(d) for d in range(1, 6)] == [1, 1, 2, 12, 576]
    with pytest.raises(GraphStructureError):
        beta(0)


@pytest.mark.parametrize("d", [2.0, 2.5, "3", True, None])
def test_beta_refuses_what_is_not_an_integer(d):
    with pytest.raises(GraphStructureError, match=f"^beta needs an integer d >= 1, got {d!r}$"):
        beta(d)


def test_identity_witness_for_equal_colorings(k33, k33_pair):
    c1, _ = k33_pair
    w = kempe_cover_witness(k33, c1, c1)
    assert w.cover.degree == 1
    assert w.switches == ()
    assert verify_witness(w)


def test_two_regular_base_case():
    six = make_cycle(6)
    c1 = alternating_coloring(6)
    c2 = EdgeColoring(2, {e: 3 - c1[e] for e in six.edge_ids()})
    w = kempe_cover_witness(six, c1, c2)
    assert w.cover.degree == 1
    assert len(w.switches) == 1
    assert verify_witness(w)


def test_two_regular_disconnected_switches_at_most_components():
    for seed in range(10):
        g, c1, c2 = random_colored_instance(seed, 2, 10)
        w = kempe_cover_witness(g, c1, c2)
        assert w.cover.degree == 1
        assert len(w.switches) <= len(connected_components(g))
        assert verify_witness(w)


def test_k33_inequivalent_pair_gets_degree_two_cover(k33, k33_pair):
    c1, c2 = k33_pair
    assert equivalent_without_cover(k33, c1, c2) is None
    w = kempe_cover_witness(k33, c1, c2)
    assert w.cover.degree == 2 == beta(3)
    verdict = verify_witness(w)
    assert verdict, verdict.reason


def test_aligned_input_still_degree_beta(k33, k33_pair):
    c1, _ = k33_pair
    # swap colors 1 and 2 everywhere: top class equal, colorings differ
    c2 = EdgeColoring(3, {e: {1: 2, 2: 1, 3: 3}[c1[e]] for e in k33.edge_ids()})
    assert c1.color_class(3) == c2.color_class(3)
    w = kempe_cover_witness(k33, c1, c2)
    assert w.cover.degree == beta(3)
    assert verify_witness(w)


def test_disconnected_input_single_cover(k33, k33_pair):
    c1v, c2v = k33_pair
    p = copies_cover(make_k33(), 2)
    g = p.source  # copy k of k33's edge e has id 2e + k
    c1 = EdgeColoring(3, {e: c1v[p.edge_image(e)] for e in g.edge_ids()})
    # second copy differs, first copy identical
    c2 = EdgeColoring(3, {e: (c2v if e % 2 else c1v)[p.edge_image(e)] for e in g.edge_ids()})
    w = kempe_cover_witness(g, c1, c2)
    assert w.cover.degree == beta(3)
    assert verify_witness(w)


def k33_copies(pairs):
    """Disjoint K3,3 copies; copy k is colored from ``pairs[k][0]`` to ``pairs[k][1]``."""
    m = len(pairs)
    g = copies_cover(make_k33(), m).source
    # copy k of k33's edge e has id me + k
    start = EdgeColoring(3, {e: pairs[e % m][0][e // m] for e in g.edge_ids()})
    goal = EdgeColoring(3, {e: pairs[e % m][1][e // m] for e in g.edge_ids()})
    return g, start, goal


def component_calls(monkeypatch, component):
    """Record the (start, goal) of every recursion call on ``component``."""
    calls = []
    original = equivalence._witness

    def counted(g, c1, c2, d):
        if g == component:
            calls.append((c1, c2))
        return original(g, c1, c2, d)

    monkeypatch.setattr(equivalence, "_witness", counted)
    return calls


def test_identical_components_are_built_once(monkeypatch, k33, k33_pair):
    single = kempe_cover_witness(k33, *k33_pair)
    calls = component_calls(monkeypatch, k33)
    w = kempe_cover_witness(*k33_copies([k33_pair] * 3))
    assert calls == [k33_pair]
    assert w.cover.degree == beta(3)
    assert len(w.switches) == 3 * len(single.switches)
    verdict = verify_witness(w)
    assert verdict, verdict.reason


def test_components_that_differ_only_in_coloring_are_built_apart(monkeypatch, k33, k33_pair):
    c1, c2 = k33_pair
    forward, backward, still = (c1, c2), (c2, c1), (c1, c1)
    calls = component_calls(monkeypatch, k33)
    w = kempe_cover_witness(*k33_copies([forward, backward, still, forward, backward]))
    assert calls == [forward, backward, still]
    assert w.cover.degree == beta(3)
    verdict = verify_witness(w)
    assert verdict, verdict.reason


def test_witness_rejects_illegal_coloring():
    pet = make_petersen()
    bad = EdgeColoring(3, {e: e % 3 + 1 for e in pet.edge_ids()})
    with pytest.raises(IllegalColoringError):
        kempe_cover_witness(pet, bad, bad)


def test_witness_rejects_non_regular():
    path = Multigraph.from_edges(3, [(0, 1), (1, 2)])
    c = EdgeColoring(2, {0: 1, 1: 2})
    with pytest.raises(RegularityError):
        kempe_cover_witness(path, c, c)


def test_witness_rejects_mismatched_degrees(k33, k33_pair):
    c1, _ = k33_pair
    with pytest.raises(Exception):
        kempe_cover_witness(k33, c1, EdgeColoring(4, {e: c1[e] for e in k33.edge_ids()}))


@pytest.mark.parametrize("n", [8, 2])
def test_witness_refuses_a_cover_beyond_the_bound(monkeypatch, n):
    # 2 * beta(6) = 3,317,760 is the smallest d=6 cover; d=5 n=6 builds 3,456 vertices
    assert 6 * beta(5) < equivalence.MAX_COVER_VERTICES < 2 * beta(6)
    g, c1, c2 = random_colored_instance(2, 6, n)
    adopted = []
    monkeypatch.setattr(Multigraph, "_adopt", staticmethod(lambda *args: adopted.append(args)))
    with pytest.raises(CoveringError, match=rf"a cover of {n} x beta\(6\) vertices exceeds the bound"):
        kempe_cover_witness(g, c1, c2)
    assert adopted == []
    # identical colorings need only the identity cover
    assert kempe_cover_witness(g, c1, c1).cover.degree == 1


def test_deleted_switch_fails_replay(k33, k33_pair):
    c1, c2 = k33_pair
    w = kempe_cover_witness(k33, c1, c2)
    assert len(w.switches) >= 1
    tampered = EquivalenceWitness(w.graph, w.start, w.goal, w.cover, w.switches[:-1])
    verdict = verify_witness(tampered)
    assert not verdict
    assert "mismatch" in verdict.reason or "stale" in verdict.reason


def test_shuffled_non_commuting_switches_fail(k33, k33_pair):
    c1, _ = k33_pair
    gamma1 = bichromatic_cycles(k33, c1, 1, 2)[0]
    mid = kempe_switch(k33, c1, gamma1)
    gamma2 = bichromatic_cycles(k33, mid, 1, 3)[0]
    goal = kempe_switch(k33, mid, gamma2)
    good = EquivalenceWitness(k33, c1, goal, CoveringMap.identity(k33), (gamma1, gamma2))
    assert verify_witness(good)
    shuffled = EquivalenceWitness(k33, c1, goal, CoveringMap.identity(k33), (gamma2, gamma1))
    assert not verify_witness(shuffled)


def test_witness_on_wrong_graph_fails(k33, k33_pair):
    c1, c2 = k33_pair
    w = kempe_cover_witness(k33, c1, c2)
    other = make_cycle(6)
    moved = EquivalenceWitness(other, alternating_coloring(6), alternating_coloring(6), w.cover, w.switches)
    assert not verify_witness(moved)


def test_over_degree_witness_rejected(k33, k33_pair):
    c1, c2 = k33_pair
    w = kempe_cover_witness(k33, c1, c2)
    projection = copies_cover(w.cover.source, 2)
    switches = lift_sequence(projection, pullback_coloring(w.cover, c1), w.switches)
    padded = EquivalenceWitness(k33, c1, c2, compose(w.cover, projection), switches)
    assert padded.cover.degree == 4 > beta(3)
    verdict = verify_witness(padded)
    assert not verdict
    assert "exceeds beta(3) = 2" in verdict.reason


def reference_pad_to_degree(cover, switches, start, target_degree):
    """Padding as a lift, frozen: project copies of the cover, lift the switches by a replay, compose.

    The composite numbers copy c of the cover's sheet k as its sheet k*t + c,
    t the number of copies; the union numbers it c*m + k, m the cover's
    degree. So every id is renumbered, and each lifted switch re-sorted.
    """
    m, t = cover.degree, target_degree // cover.degree
    projection = copies_cover(cover.source, t)
    lifted = lift_sequence(projection, pullback_coloring(cover, start), switches)
    composite = compose(cover, projection)

    def renumbered(x):
        return x // target_degree * target_degree + x % t * m + x % target_degree // t

    source = Multigraph(
        composite.source.vertex_count,
        {renumbered(f): tuple(map(renumbered, ends)) for f, ends in edge_table(composite.source).items()},
    )
    vmap, emap = sheet_maps(composite)
    padded = CoveringMap(
        source,
        composite.target,
        [vmap[x] for x in sorted(range(source.vertex_count), key=renumbered)],
        {renumbered(f): image for f, image in emap.items()},
    )
    return padded, tuple(
        BichromaticCycle(cycle.colors, tuple(sorted(map(renumbered, cycle.edge_ids)))) for cycle in lifted
    )


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([(3, 4), (3, 6), (3, 8), (4, 6)]),
    st.integers(min_value=2, max_value=3),
)
def test_union_of_copies_pads_as_the_lift_through_the_copies(seed, shape, factor):
    g, c1, c2 = random_colored_instance(seed, *shape)
    w = kempe_cover_witness(g, c1, c2)
    target = factor * w.cover.degree
    part = (w.cover, w.switches, range(g.vertex_count), range(g.edge_count))
    cover, switches = equivalence._union_witness(g, [part], target)
    expected_cover, expected_switches = reference_pad_to_degree(w.cover, w.switches, c1, target)
    assert cover == expected_cover and cover.degree == target
    assert switches == expected_switches


def k33_beside_theta():
    """A disconnected base: K3,3 and a theta graph, each with two colorings of its own."""
    g = make_disjoint(make_k33(), make_theta())
    c1 = EdgeColoring(3, dict(enumerate(K33_C1 + (1, 2, 3))))
    c2 = EdgeColoring(3, dict(enumerate(K33_C2 + (2, 1, 3))))
    return g, c1, c2


def bundled(name):
    g, colorings = instance_from_json(load_json(bundled_instance_path(name)))
    return g, colorings["c1"], colorings["c2"]


@pytest.mark.parametrize("instance", [
    lambda: random_colored_instance(1, 3, 8),
    lambda: random_colored_instance(2, 3, 1000),
    lambda: random_colored_instance(2, 4, 40),
    lambda: random_colored_instance(1, 5, 6),
    k33_beside_theta,
    lambda: bundled("k33"),
    lambda: bundled("theta"),
], ids=["d3-n8-seed1", "d3-n1000-seed2", "d4-n40-seed2", "d5-n6-seed1", "disconnected", "k33", "theta"])
def test_built_witnesses_are_sheet_numbered_with_dense_ids(instance):
    g, c1, c2 = instance()
    w = kempe_cover_witness(g, c1, c2)
    m = w.cover.degree
    assert m == beta(c1.degree)
    # the ids of m sheets over g's dense ids, and a covering that lies over them by division
    assert w.cover.source.edge_ids() == tuple(range(m * g.edge_count))
    assert w.cover.source.vertex_count == m * g.vertex_count
    # and each row e*m + k leaves the first end of e on sheet k
    assert rows_off_their_first_end_sheet(w.cover) == []
    verdict = verify_covering(w.cover)
    assert verdict, verdict.reason


def rejected_input(name):
    """A witness graph and two colorings, each of which ``verify_witness`` must refuse."""
    k33 = make_k33()
    good = EdgeColoring(3, dict(enumerate(K33_C1)))
    illegal = EdgeColoring(3, dict(enumerate((1, 1) + K33_C1[2:])))  # edges 0 and 1 meet at 0
    if name == "illegal start":
        return k33, illegal, good
    if name == "illegal goal":
        return k33, good, illegal
    if name == "wrong degree":
        return k33, EdgeColoring(4, dict(enumerate(K33_C1))), good
    lollipop = Multigraph.from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    legal_colors = EdgeColoring(3, {0: 1, 1: 2, 2: 3, 3: 2})
    return lollipop, legal_colors, legal_colors


@pytest.mark.parametrize("name", ["illegal start", "illegal goal", "wrong degree", "non-regular base"])
def test_verify_witness_rejects_bad_inputs(name):
    g, start, goal = rejected_input(name)
    verdict = verify_witness(EquivalenceWitness(g, start, goal, CoveringMap.identity(g), ()))
    assert not verdict
    assert verdict.reason


def test_randomized_soundness_d3():
    for seed in range(40):
        g, c1, c2 = random_colored_instance(seed, 3, 8)
        w = kempe_cover_witness(g, c1, c2)
        assert w.cover.degree == (1 if c1 == c2 else beta(3))
        verdict = verify_witness(w)
        assert verdict, f"seed {seed}: {verdict.reason}"


def test_randomized_soundness_d4():
    for seed in range(10):
        g, c1, c2 = random_colored_instance(seed, 4, 8)
        w = kempe_cover_witness(g, c1, c2)
        assert w.cover.degree == (1 if c1 == c2 else beta(4))
        verdict = verify_witness(w)
        assert verdict, f"seed {seed}: {verdict.reason}"


def test_oracle_path_yields_identity_witness(theta, theta_coloring):
    goal = EdgeColoring(3, {0: 2, 1: 1, 2: 3})
    path = equivalent_without_cover(theta, theta_coloring, goal)
    assert path is not None and len(path) == 1
    w = EquivalenceWitness(theta, theta_coloring, goal, CoveringMap.identity(theta), path)
    assert verify_witness(w)


def test_verifying_an_identity_witness_leaves_its_start_unchanged(theta, theta_coloring):
    # the identity pulls the start back as the start itself, and the replay flips what it pulled back
    before = dict(theta_coloring.items())
    path = equivalent_without_cover(theta, theta_coloring, THETA_GOAL)
    for switches, ok in ((path, True), (path + path, False)):
        w = EquivalenceWitness(theta, theta_coloring, THETA_GOAL, CoveringMap.identity(theta), switches)
        assert pullback_coloring(w.cover, w.start) is w.start
        assert bool(verify_witness(w)) is ok
        assert dict(w.start.items()) == before


def blind_flip(c, cycle):
    """The coloring a replay would reach by flipping ``cycle`` without checking it."""
    lo, hi = cycle.colors
    colors = dict(c.items())
    colors.update({e: lo if c[e] == hi else hi for e in cycle.edges})
    return EdgeColoring(c.degree, colors)


def rejected_at_position(g, c, bad):
    """Replay switch, undo, then ``bad``: the verdict must name position 2."""
    gamma = bichromatic_cycles(g, c, 1, 2)[0]
    w = EquivalenceWitness(g, c, c, CoveringMap.identity(g), (gamma, gamma, bad))
    verdict = verify_witness(w)
    assert not verdict
    assert "sequence position 2" in verdict.reason
    return verdict.reason


def test_closed_walk_with_foreign_color_rejected(k33, k33_pair):
    c1, _ = k33_pair
    # 0 -> 3 -> 1 -> 4 -> 0 is a closed walk colored 1, 2, 3, 2
    bad = BichromaticCycle((1, 2), (0, 1, 3, 4))
    assert sorted(c1[e] for e in bad.edges) == [1, 2, 2, 3]
    assert not is_legal(k33, blind_flip(c1, bad))
    assert "not in (1, 2)" in rejected_at_position(k33, c1, bad)


def test_non_alternating_walk_rejected(k33, k33_pair):
    c1, _ = k33_pair
    # edges colored 1, 1, 2, 2: under a legal coloring two edges of one color
    # cannot meet, so the set is no cycle; the walk from edge 0 along the
    # (1, 2)-component leaves the set at edge 8
    bad = BichromaticCycle((1, 2), (0, 1, 3, 5))
    assert sorted(c1[e] for e in bad.edges) == [1, 1, 2, 2]
    assert not is_legal(k33, blind_flip(c1, bad))
    assert "misses edge 8" in rejected_at_position(k33, c1, bad)


def test_unknown_edge_in_walk_is_a_stale_switch(k33, k33_pair):
    c1, _ = k33_pair
    edges = bichromatic_cycles(k33, c1, 1, 2)[0].edges
    bad = BichromaticCycle((1, 2), tuple(sorted(edges - {3} | {999})))
    with pytest.raises(StaleSwitchError, match="edge 999 not in graph"):
        kempe_switch(k33, c1, bad)
    assert "edge 999 not in graph" in rejected_at_position(k33, c1, bad)


def calling_function() -> str:
    """The name of the function that called the caller, past comprehension frames."""
    frame = sys._getframe(2)
    while frame.f_code.co_name.startswith("<"):
        frame = frame.f_back
    return frame.f_code.co_name


@pytest.fixture
def checked_adoption(monkeypatch):
    """Make both private ``_adopt`` constructors run the public checks too.

    Each adopted table must be a list, or two endpoint lists of one length,
    and pass the validating constructor unchanged, in id order. Returns the
    set of (kind, calling function) pairs.
    """
    sites = set()
    adopt_graph, adopt_coloring = Multigraph._adopt, EdgeColoring._adopt

    def checked_graph(vertex_count, tails, heads):
        sites.add(("graph", calling_function()))
        assert type(tails) is list and type(heads) is list and len(tails) == len(heads)
        rows = list(zip(tails, heads))
        assert list(edge_table(Multigraph(vertex_count, rows)).items()) == list(enumerate(rows))
        return adopt_graph(vertex_count, tails, heads)

    def checked_coloring(degree, colors):
        sites.add(("coloring", calling_function()))
        assert type(colors) is list
        assert list(EdgeColoring(degree, colors).items()) == list(enumerate(colors))
        return adopt_coloring(degree, colors)

    monkeypatch.setattr(Multigraph, "_adopt", staticmethod(checked_graph))
    monkeypatch.setattr(EdgeColoring, "_adopt", staticmethod(checked_coloring))
    return sites


def test_every_adopted_table_passes_the_public_checks(checked_adoption):
    # d=5 n=6 seed 1 is the reference; every one of these builds a disconnected cover
    for seed, d, n in [(0, 3, 10), (1, 4, 12), (2, 4, 8), (1, 5, 6)]:
        g, c1, c2 = random_colored_instance(seed, d, n)
        w = kempe_cover_witness(g, c1, c2)
        assert len(connected_components(w.cover.source)) > 1
        assert verify_witness(w)
    kempe_switch(g, c1, bichromatic_cycles(g, c1, 1, 2)[0])
    graphs = {"spanning_subgraph", "_union_witness", "extend_subgraph_cover", "_build_alignment_cover",
              "_per_component_witness"}
    colorings = {"pullback_coloring", "kempe_switch", "apply_sequence", "_aligned_witness",
                 "_per_component_witness", "_build_alignment_cover", "_edge_colorings"}
    assert checked_adoption == {("graph", f) for f in graphs} | {("coloring", f) for f in colorings}


# -- the cover proof: incidence, constant fibers, an edge count and the fill ----


THETA_GOAL = EdgeColoring(3, {0: 2, 1: 1, 2: 3})


def with_cover(w, source):
    """``w`` with its cover graph replaced by ``source``, over ``w.graph`` by division by ``w``'s degree."""
    m = w.cover.degree
    vertex_map = [x // m for x in range(source.vertex_count)]
    cover = CoveringMap(source, w.graph, vertex_map, {f: f // m for f in edge_table(source)})
    return EquivalenceWitness(w.graph, w.start, w.goal, cover, w.switches)


def test_a_parallel_twin_image_fails_the_local_bijection(theta, theta_coloring):
    w = kempe_cover_witness(theta, theta_coloring, THETA_GOAL)
    edges = dict(edge_table(w.cover.source))
    assert (edges[1], edges[2]) == ((1, 3), (0, 2))
    # swapping the ids of cover edges 1 and 2 moves each onto a parallel twin of its base edge:
    # incidence holds, and cover vertex 0 gets edges 0 and 1, both over base edge 0
    edges[1], edges[2] = edges[2], edges[1]
    verdict = verify_witness(with_cover(w, Multigraph(4, edges)))
    assert verdict == Verdict(
        False, "local bijection fails: colors do not make a legal coloring: "
        "edges 0 and 1 both have color 1 at vertex 0"
    )


def test_a_cover_with_too_few_edges_is_rejected(theta, theta_coloring):
    # one sheet that carries one of the three edges: incidence holds, the
    # fibers have size 1 and the pull-back has no clash, but edges 1 and 2
    # have no lift
    short = CoveringMap(Multigraph.from_edges(2, [(0, 1)]), theta, [0, 1], {0: 0})
    w = EquivalenceWitness(theta, theta_coloring, theta_coloring, short, ())
    assert verify_witness(w) == Verdict(False, "cover edge count 1 is not 1 x 3")
    assert not verify_covering(short)


def test_an_empty_cover_is_rejected(theta, theta_coloring):
    # the pull-backs of both colorings would be empty, so the replay alone would accept;
    # the type has m >= 1, so no witness can hold an empty cover
    with pytest.raises(CoveringError, match="^cover has 0 vertices, not m >= 1 times the target's 2$"):
        CoveringMap(Multigraph(0, {}), theta, [], {})


GOLDEN_D3 = Path(__file__).parent / "golden" / "random_d3_n4_seed5.json"


def crossed_rows(w, f, g):
    """``w`` with the second ends of cover rows f and g swapped. Both rows have one color
    and no switch touches them, so the fill and the replay cannot see the swap."""
    start = pullback_coloring(w.cover, w.start)
    assert start[f] == start[g] and not {f, g} & {e for s in w.switches for e in s.edge_ids}
    edges = dict(edge_table(w.cover.source))
    (u, x), (v, y) = edges[f], edges[g]
    edges[f], edges[g] = (u, y), (v, x)
    return with_cover(w, Multigraph(w.cover.source.vertex_count, edges))


def tampered_witness(name):
    """A witness that ``verify_witness`` must refuse, with the only check that sees the fault."""
    k33 = make_k33()
    c1, c2 = (EdgeColoring(3, dict(enumerate(colors))) for colors in (K33_C1, K33_C2))
    if name == "other target":  # k33 with each edge stored the other way round: the same sizes and ends
        w = kempe_cover_witness(k33, c1, c2)
        flipped = Multigraph(6, {e: (v, u) for e, (u, v) in edge_table(k33).items()})
        return EquivalenceWitness(k33, c1, c2, CoveringMap(w.cover.source, flipped, *sheet_maps(w.cover)), w.switches)
    if name == "crossed rows d3":
        return crossed_rows(witness_from_json(load_json(GOLDEN_D3))[0], 8, 10)
    if name == "crossed rows d4":
        return crossed_rows(kempe_cover_witness(*random_colored_instance(1, 4, 12)), 160, 196)
    # without its last switch, the k33 witness first differs from the goal pull-back at edge 1, not 0
    w = kempe_cover_witness(k33, c1, c2)
    return EquivalenceWitness(k33, c1, c2, w.cover, w.switches[:-1])


@pytest.mark.parametrize("name, reason", [
    ("other target", "cover does not map onto the witness graph"),
    ("crossed rows d3", "edge 8 does not preserve incidence"),
    ("crossed rows d4", "edge 160 does not preserve incidence"),
    ("first mismatch", "replay mismatch at cover edge 1: got 2, want 1"),
])
def test_a_tampered_witness_is_refused_with_its_reason(name, reason):
    assert verify_witness(tampered_witness(name)) == Verdict(False, reason)


def parent_verify_witness(w):
    """``verify_witness`` as it was while it ran the whole of ``verify_covering``, kept to compare verdicts."""
    try:
        if w.cover.target != w.graph:
            return Verdict(False, "cover does not map onto the witness graph")
        verdict = verify_covering(w.cover)
        if not verdict:
            return verdict
        d = common_degree(w.graph, w.start, w.goal)
        current = pullback_coloring(w.cover, w.start)._colors
        goal = pullback_coloring(w.cover, w.goal)
        _replay(w.cover.source, d, current, enumerate(w.switches))
        if current != goal._colors:
            for e in w.cover.source.edge_ids():
                if current[e] != goal[e]:
                    return Verdict(
                        False,
                        f"replay mismatch at cover edge {e}: got {current[e]}, want {goal[e]}",
                    )
        if all(value < w.cover.degree for value in equivalence._betas(d)):
            return Verdict(False, f"covering degree {w.cover.degree} exceeds beta({d}) = {beta(d)}")
        return Verdict(True)
    except KempeCoversError as exc:
        return Verdict(False, str(exc))


@pytest.fixture(scope="module")
def proof_witnesses():
    k33 = make_k33()
    c1, c2 = (EdgeColoring(3, dict(enumerate(colors))) for colors in (K33_C1, K33_C2))
    return kempe_cover_witness(k33, c1, c2), kempe_cover_witness(*random_colored_instance(1, 4, 8))


@st.composite
def mutated_cover_rows(draw, w):
    """``w`` after 1-2 changes to the rows of its cover graph, with both maps x // m.

    Some keep incidence, so that the counts and the fill get reached: a
    cover edge whose ends move within their fibers, and two cover edges
    that swap ids, each then over the other's base edge.
    """
    m, source = w.cover.degree, w.cover.source
    edges = [source.endpoints(f) for f in source.edge_ids()]
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["reattach", "renumber", "swap", "ends", "drop", "append"]))
        e = draw(st.sampled_from(range(len(edges))))
        u, v = edges[e]
        if kind == "reattach":
            edges[e] = (u, draw(st.sampled_from([x for x in range(source.vertex_count) if x != u])))
        elif kind == "renumber":  # the row takes the last id, and each row after it the id before its own
            edges.append(edges.pop(e))
        elif kind == "swap":
            f = draw(st.sampled_from(range(len(edges))))
            edges[e], edges[f] = edges[f], edges[e]
        elif kind == "ends":
            moved = tuple(x - x % m + draw(st.integers(0, m - 1)) for x in (u, v))
            if moved[0] != moved[1]:
                edges[e] = moved
        elif kind == "drop" and len(edges) > 1:  # each row after it takes the id before its own
            del edges[e]
        elif kind == "append":  # a copy at a new last id, over another base edge or none
            edges.append((u, v))
    return with_cover(w, Multigraph(source.vertex_count, edges))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_verify_witness_accepts_exactly_what_the_whole_cover_check_accepts(proof_witnesses, data):
    w = data.draw(st.sampled_from(proof_witnesses))
    mutant = data.draw(mutated_cover_rows(w))
    assert bool(verify_witness(mutant)) == bool(parent_verify_witness(mutant))
