"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import random
import time

import pytest

from kempe_covers import (
    EdgeColoring,
    IllegalColoringError,
    align_color,
    alignment_data,
    apply_sequence,
    beta,
    bichromatic_cycles,
    build_alignment_cover,
    connected_components,
    copies_cover,
    default_orientation,
    enumerate_legal_colorings,
    equivalent_without_cover,
    is_legal,
    kempe_class_partition,
    kempe_cover_witness,
    kempe_switch,
    lift_sequence,
    pullback_coloring,
    random_colored_instance,
    split_color_d,
    verify_covering,
    verify_witness,
)

from conftest import K33_C1, K33_C2, make_k33, make_petersen, make_theta


def report(number, description):
    print(f"ACCEPTANCE {number} PASS: {description}")


@pytest.fixture(scope="module")
def k33_instance():
    g = make_k33()
    return g, EdgeColoring(3, dict(enumerate(K33_C1))), EdgeColoring(3, dict(enumerate(K33_C2)))


@pytest.fixture(scope="module")
def thousand_instances():
    """1000 seeded instances shared by the criterion-6 property suites."""
    shapes = [(3, 6), (3, 8), (2, 6), (2, 8), (4, 6), (3, 10)]
    return [
        random_colored_instance(seed, *shapes[seed % len(shapes)])
        for seed in range(1000)
    ]


def test_criterion_1_k33_census():
    started = time.perf_counter()
    census = kempe_class_partition(make_k33())
    elapsed = time.perf_counter() - started
    assert len(census.colorings) == 12
    assert len(census.classes) == 2
    assert elapsed < 1.0
    report(1, f"K3,3 census: 12 colorings, 2 classes in {elapsed:.3f}s")


def test_criterion_2_no_cover_negative_control(k33_instance):
    g, c1, c2 = k33_instance
    assert equivalent_without_cover(g, c1, c2) is None
    report(2, "K3,3 representative pair is not switch-connected on the graph itself")


def test_criterion_3_k33_cover_witness(k33_instance):
    g, c1, c2 = k33_instance
    started = time.perf_counter()
    w = kempe_cover_witness(g, c1, c2)
    elapsed = time.perf_counter() - started
    assert w.cover.degree == 2 == beta(3)
    verdict = verify_witness(w)
    assert verdict, verdict.reason
    replay = apply_sequence(
        w.cover.source, pullback_coloring(w.cover, c1), w.switches
    )
    assert replay == pullback_coloring(w.cover, c2)
    assert elapsed < 1.0
    report(3, f"K3,3 witness: degree 2, {len(w.switches)} switches, verified in {elapsed:.3f}s")


def test_criterion_4_beta_table():
    assert tuple(beta(d) for d in range(1, 6)) == (1, 1, 2, 12, 576)
    report(4, "beta(1..5) = (1, 1, 2, 12, 576)")


def test_criterion_5_randomized_soundness():
    started = time.perf_counter()
    checked = 0
    for seed in range(200):
        n = (6, 8, 10, 12)[seed % 4]
        g, c1, c2 = random_colored_instance(seed, 3, n)
        w = kempe_cover_witness(g, c1, c2)
        assert w.cover.degree == (1 if c1 == c2 else 2)
        verdict = verify_witness(w)  # validates every switch of the replay
        assert verdict, f"d=3 seed {seed}: {verdict.reason}"
        checked += 1
    for seed in range(50):
        n = (6, 8, 10)[seed % 3]
        g, c1, c2 = random_colored_instance(1_000_000 + seed, 4, n)
        w = kempe_cover_witness(g, c1, c2)
        assert w.cover.degree == (1 if c1 == c2 else 12)
        verdict = verify_witness(w)
        assert verdict, f"d=4 seed {seed}: {verdict.reason}"
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    report(5, f"{checked} randomized witnesses verified in {elapsed:.1f}s")


def test_criterion_6_switch_involution_and_legality(thousand_instances):
    cases = 0
    for g, c1, _ in thousand_instances:
        for cycle in bichromatic_cycles(g, c1, 1, 2):
            switched = kempe_switch(g, c1, cycle)
            assert is_legal(g, switched)
            assert kempe_switch(g, switched, cycle) == c1
        cases += 1
    assert cases >= 1000
    report(6, f"switch involution + legality preservation on {cases} instances")


def test_criterion_6_pullback_legality(thousand_instances):
    cases = 0
    for g, c1, c2 in thousand_instances:
        p = copies_cover(g, 2)
        assert is_legal(p.source, pullback_coloring(p, c1))
        assert is_legal(p.source, pullback_coloring(p, c2))
        cases += 1
    assert cases >= 1000
    report(6, f"pull-back legality on {cases} instances")


def test_criterion_6_lift_round_trip(thousand_instances):
    cases = 0
    for index, (g, c1, _) in enumerate(thousand_instances):
        p = copies_cover(g, 2 + index % 2)
        gamma1 = bichromatic_cycles(g, c1, 1, 2)[0]
        mid = kempe_switch(g, c1, gamma1)
        pair = (1, 3) if c1.degree >= 3 else (1, 2)
        gamma2 = bichromatic_cycles(g, mid, *pair)[0]
        seq = (gamma1, gamma2)
        lifted = lift_sequence(p, c1, seq)
        left = apply_sequence(p.source, pullback_coloring(p, c1), lifted)
        right = pullback_coloring(p, apply_sequence(g, c1, seq))
        assert left == right
        cases += 1
    assert cases >= 1000
    report(6, f"lift_sequence round-trip equality on {cases} instances")


def test_criterion_6_alignment_postconditions(thousand_instances):
    cases = 0
    for g, c1, c2 in thousand_instances:
        d = c1.degree
        split = split_color_d(g, c1, c2)
        data = alignment_data(g, c1, c2)
        assert all(data.offset[e] == 0 for e in split.moving)
        p, shifted = build_alignment_cover(g, c1, c2)
        assert verify_covering(p)
        assert p.degree == d - 1
        assert shifted.color_class(d) == pullback_coloring(p, c1).color_class(d)
        result = align_color(g, c1, c2)
        preimage = {e for e in p.source.edge_ids() if p.edge_image(e) in split.moving}
        seen = set()
        for switch in result.switches:
            matches = bichromatic_cycles(p.source, shifted, *switch.colors)
            assert any(cyc.edges == switch.edges for cyc in matches)
            seen |= switch.edges
        assert seen == preimage
        assert result.aligned_coloring.color_class(d) == pullback_coloring(p, c2).color_class(d)
        cases += 1
    assert cases >= 1000
    report(6, f"alignment-cover postconditions on {cases} instances")


def test_criterion_6_orientation_independence(thousand_instances):
    cases = 0
    for index, (g, c1, c2) in enumerate(thousand_instances):
        forward = default_orientation(g)
        rng = random.Random(index)
        flipped = {
            e: (pair if rng.random() < 0.5 else (pair[1], pair[0]))
            for e, pair in forward.items()
        }
        p0, s0 = build_alignment_cover(g, c1, c2)
        p1, s1 = build_alignment_cover(g, c1, c2, orientation=flipped)
        assert p0.source == p1.source
        assert p0 == p1
        assert s0 == s1
        cases += 1
    assert cases >= 1000
    report(6, f"orientation independence (literal equality) on {cases} instances")


def test_criterion_7_base_cases():
    for seed in range(100):
        g, c1, c2 = random_colored_instance(seed, 2, (6, 8, 10)[seed % 3])
        w = kempe_cover_witness(g, c1, c2)
        assert w.cover.degree == 1
        assert len(w.switches) <= len(connected_components(g))
        assert verify_witness(w)
    census = kempe_class_partition(make_theta())
    assert len(census.classes) == 1
    assert len(census.classes[0]) == 6
    report(7, "d=2 instances use identity covers; theta census is one class of six")


def test_criterion_8_petersen_guard():
    pet = make_petersen()
    assert enumerate_legal_colorings(pet) == []
    broken = EdgeColoring(3, {e: e % 3 + 1 for e in pet.edge_ids()})
    with pytest.raises(IllegalColoringError):
        kempe_cover_witness(pet, broken, broken)
    report(8, "Petersen: empty enumeration and witness rejects illegal input")
