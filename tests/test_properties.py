"""Property-based checks over seeded random instances.

Every test here runs under ``checked_layers``, which re-proves each cover
and pull-back that the construction builds without checking.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from kempe_covers import (
    EquivalenceWitness,
    align_color,
    alignment_data,
    apply_sequence,
    beta,
    bichromatic_cycles,
    build_alignment_cover,
    compose,
    copies_cover,
    CoveringMap,
    EdgeColoring,
    equivalent_without_cover,
    is_legal,
    is_regular,
    kempe_cover_witness,
    kempe_switch,
    lift_sequence,
    pullback_coloring,
    random_colored_instance,
    spanning_subgraph,
    split_color_d,
    verify_covering,
    verify_witness,
)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
SHAPES3 = st.sampled_from([(3, 6), (3, 8), (3, 10)])
SHAPES = st.sampled_from([(2, 6), (2, 8), (3, 6), (3, 8), (4, 6)])

RELAXED = settings(max_examples=60, deadline=None)

pytestmark = pytest.mark.usefixtures("checked_layers")


def test_checked_layers_see_every_construction(checked_layers):
    before = dict(checked_layers)
    w = kempe_cover_witness(*random_colored_instance(2, 4, 8))
    assert verify_witness(w)
    for name in ("compose", "_union_witness", "extend_subgraph_cover", "_build_alignment_cover",
                 "pullback_coloring"):
        assert checked_layers[name] > before.get(name, 0), name


@RELAXED
@given(SEEDS, SHAPES)
def test_switch_involution_and_legality(seed, shape):
    d, n = shape
    g, c1, _ = random_colored_instance(seed, d, n)
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            for cycle in bichromatic_cycles(g, c1, i, j):
                switched = kempe_switch(g, c1, cycle)
                assert is_legal(g, switched)
                assert kempe_switch(g, switched, cycle) == c1
                for k in range(1, d + 1):
                    if k not in (i, j):
                        assert switched.color_class(k) == c1.color_class(k)


@RELAXED
@given(SEEDS, SHAPES)
def test_color_classes_are_matchings_and_cycles(seed, shape):
    d, n = shape
    g, c1, _ = random_colored_instance(seed, d, n)
    for k in range(1, d + 1):
        matching = spanning_subgraph(g, c1.color_class(k))
        assert is_regular(matching) == 1
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            cycles = bichromatic_cycles(g, c1, i, j)
            union = set()
            for cyc in cycles:
                assert len(cyc) % 2 == 0
                assert not union & cyc.edges
                union |= cyc.edges
            assert union == c1.color_class(i) | c1.color_class(j)


@RELAXED
@given(SEEDS, SHAPES3, st.integers(min_value=2, max_value=3))
def test_pullback_legality_and_lift_round_trip(seed, shape, copies):
    d, n = shape
    g, c1, c2 = random_colored_instance(seed, d, n)
    p = copies_cover(g, copies)
    pulled = pullback_coloring(p, c1)
    assert is_legal(p.source, pulled)

    path = equivalent_without_cover(g, c1, c2)
    if path is None:
        path = ()
    lifted = lift_sequence(p, c1, path)
    left = apply_sequence(p.source, pulled, lifted)
    right = pullback_coloring(p, apply_sequence(g, c1, path))
    assert left == right


@RELAXED
@given(SEEDS, SHAPES3)
def test_lift_switch_partitions_preimage(seed, shape):
    d, n = shape
    g, c1, _ = random_colored_instance(seed, d, n)
    p, shifted = build_alignment_cover(g, c1, c1)
    for cycle in bichromatic_cycles(g, c1, 1, 2):
        lifts = lift_sequence(p, c1, [cycle])
        preimage = {e for e in p.source.edge_ids() if p.edge_image(e) in cycle.edges}
        seen = set()
        for cyc in lifts:
            assert len(cyc) % len(cycle) == 0
            assert len(cyc) <= p.degree * len(cycle)
            seen |= cyc.edges
        assert seen == preimage
    assert is_legal(p.source, shifted)


@RELAXED
@given(SEEDS, SHAPES3)
def test_alignment_postconditions(seed, shape):
    d, n = shape
    g, c1, c2 = random_colored_instance(seed, d, n)
    split = split_color_d(g, c1, c2)
    data = alignment_data(g, c1, c2)
    for e in split.moving:
        assert data.offset[e] == 0
    p, shifted = build_alignment_cover(g, c1, c2)
    assert verify_covering(p)
    assert p.degree == d - 1
    assert is_legal(p.source, shifted)
    assert shifted.color_class(d) == pullback_coloring(p, c1).color_class(d)
    result = align_color(g, c1, c2)
    assert result.aligned_coloring.color_class(d) == pullback_coloring(p, c2).color_class(d)


@RELAXED
@given(SEEDS, SHAPES)
def test_witness_soundness(seed, shape):
    d, n = shape
    g, c1, c2 = random_colored_instance(seed, d, n)
    w = kempe_cover_witness(g, c1, c2)
    verdict = verify_witness(w)
    assert verdict, verdict.reason
    if c1 == c2:
        assert w.cover.degree == 1
    else:
        assert w.cover.degree == beta(d)


@RELAXED
@given(SEEDS, st.sampled_from([(3, 6), (3, 8), (4, 6), (4, 8), (5, 6)]), st.data())
def test_witness_never_switches_a_class_both_colorings_share(seed, shape, data):
    d, n = shape
    g, c1, _ = random_colored_instance(seed, d, n)
    k = data.draw(st.integers(min_value=1, max_value=d), label="shared color")
    # rename the other colors, then switch {i, j} components with i, j != k
    others = [c for c in range(1, d + 1) if c != k]
    image = data.draw(st.permutations(others), label="renaming")
    rename = dict(zip([k, *others], [k, *image]))
    c2 = EdgeColoring(d, {e: rename[c] for e, c in c1.items()})
    pairs = [(i, j) for i in others for j in others if i < j]
    for i, j in data.draw(st.lists(st.sampled_from(pairs), max_size=3), label="switched pairs"):
        cycles = bichromatic_cycles(g, c2, i, j)
        c2 = kempe_switch(g, c2, cycles[data.draw(st.integers(0, len(cycles) - 1), label="cycle")])
    assume(c1 != c2)
    assert c2.color_class(k) == c1.color_class(k)
    w = kempe_cover_witness(g, c1, c2)
    verdict = verify_witness(w)
    assert verdict, verdict.reason
    assert w.cover.degree == beta(d)
    assert all(k not in cycle.colors for cycle in w.switches)


@settings(max_examples=25, deadline=None)
@given(SEEDS)
def test_oracle_and_cover_agree(seed):
    g, c1, c2 = random_colored_instance(seed, 3, 6)
    path = equivalent_without_cover(g, c1, c2)
    if path is not None:
        assert apply_sequence(g, c1, path) == c2
        identity = EquivalenceWitness(g, c1, c2, CoveringMap.identity(g), path)
        assert verify_witness(identity)
    # the cover-based witness works whether or not a no-cover path exists
    assert verify_witness(kempe_cover_witness(g, c1, c2))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=8))
def test_beta_recursion(d):
    if d >= 3:
        assert beta(d) == (d - 1) * beta(d - 1) ** 2
    else:
        assert beta(d) == 1


@RELAXED
@given(SEEDS, st.integers(min_value=2, max_value=3), st.integers(min_value=2, max_value=3))
def test_compose_degree_multiplicative(seed, m1, m2):
    g, _, _ = random_colored_instance(seed, 3, 6)
    p = copies_cover(g, m1)
    q = copies_cover(p.source, m2)
    assert compose(p, q).degree == m1 * m2
