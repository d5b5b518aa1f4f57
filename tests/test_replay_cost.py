"""Replay and covering checks stay linear: counted calls, no timing.

Each test counts calls to a known-expensive operation on a d=4 witness with
74 switches, then on the same witness with extra switches appended, and
requires the counts to match: the cost must not grow with the switch count.
The appended switches repeat the last switch an even number of times, which
flips one component back and forth and leaves the verdict unchanged.
The construction tests count the input and cover checks of one alignment
and one witness build: each input is proven once, and no derived cover is
proven again. They also count the recursion's calls, so that identical
components stay built once. The oracle tests count the `EdgeColoring`s,
`BichromaticCycle`s, `bichromatic_cycles` calls and cycle decompositions of
a census and its queries, which must not grow with the switches the
breadth-first search tries: one cycle per coloring it reaches, or per step
of the path it returns. The replay test counts every Python call the
package makes while it verifies a 5,088-switch witness, so that the replay
and the cover check stay loops over tables, with no call per switch or per
cover vertex; verifying it counts the degrees of the base only. The parse
test counts the calls that read the same witness back from JSON: no switch
is rebuilt as a walk, and no integer is checked by a call of its own. The
build tests count the calls and the degree counts of the d=5 n=6 build:
covers are composed, pulled back and split through their raw tables, and
only the input graph has its degrees counted. A replay fills its per-vertex
color table once, before it draws a switch, and a cover check that is about
to name a failing vertex counts the degrees of each graph once.
"""

import json
import os
import sys

import pytest

from kempe_covers import (
    BichromaticCycle,
    CoveringMap,
    EdgeColoring,
    EquivalenceWitness,
    IllegalColoringError,
    Multigraph,
    align_color,
    alignment,
    apply_sequence,
    coloring,
    copies_cover,
    covering,
    equivalence,
    equivalent_without_cover,
    graph,
    kempe_class_partition,
    kempe_cover_witness,
    lift_sequence,
    oracle,
    pullback_coloring,
    random_colored_instance,
    verify_covering,
    verify_witness,
    witness_from_json,
    witness_to_json,
)

EXTRA = 60


@pytest.fixture(scope="module")
def witnesses():
    w = kempe_cover_witness(*random_colored_instance(2, 4, 8))
    assert len(w.switches) >= 50
    longer = EquivalenceWitness(
        w.graph, w.start, w.goal, w.cover, w.switches + (w.switches[-1],) * EXTRA
    )
    return w, longer


def counter(monkeypatch, owners, name):
    """Wrap ``name`` on every owner (same original) and record each call's arguments."""
    calls = []
    original = getattr(owners[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, name, counted)
    return calls


def bindings(name, home=coloring):
    """Every ``kempe_covers`` module that binds ``home.<name>``."""
    fn = getattr(home, name)
    return tuple(
        module for key, module in sys.modules.items()
        if key.split(".")[0] == "kempe_covers" and getattr(module, name, None) is fn
    )


def test_verify_witness_cost_is_independent_of_switch_count(monkeypatch, witnesses):
    legal = counter(monkeypatch, bindings("is_legal"), "is_legal")
    built = counter(monkeypatch, (EdgeColoring,), "__init__")
    adopted = counter(monkeypatch, (EdgeColoring,), "_adopt")
    counts = []
    for w in witnesses:
        legal.clear()
        built.clear()
        adopted.clear()
        verdict = verify_witness(w)
        assert verdict, verdict.reason
        counts.append((len(legal), len(built) + len(adopted)))
    assert counts[0] == counts[1]
    assert max(counts[0]) < 10 < len(witnesses[0].switches)


@pytest.fixture(scope="module")
def d5_witness():
    w = kempe_cover_witness(*random_colored_instance(1, 5, 6))
    assert len(w.switches) == 5088
    return w


def package_calls(fn, *args):
    """``fn(*args)`` and the number of Python calls it makes into the package."""
    package = os.path.dirname(coloring.__file__) + os.sep
    calls = [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(previous)
    return result, calls[0]


def test_verify_witness_makes_few_python_calls_per_switch(d5_witness):
    verdict, calls = package_calls(verify_witness, d5_witness)
    assert verdict, verdict.reason
    # 541,595 when every dart went through the graph and coloring accessors;
    # 23,871 when each switch also went through a wrapper class and a flip
    # helper; 13,694 when each switch was checked by a call of its own and
    # the local bijection by a set per cover vertex
    assert calls < 1_000 < len(d5_witness.switches)


def test_verify_witness_builds_no_cover_dart_lists(monkeypatch, d5_witness):
    parsed, _ = witness_from_json(witness_to_json(d5_witness))
    degrees = counter(monkeypatch, bindings("_degrees", graph), "_degrees")
    verdict = verify_witness(parsed)
    assert verdict, verdict.reason
    # regularity, legality, the cover check and the replay read only tables;
    # only the base's degrees are counted, to prove it regular
    assert degrees == [(parsed.graph,)]


def test_kempe_cover_witness_makes_few_python_calls():
    w, calls = package_calls(kempe_cover_witness, *random_colored_instance(1, 5, 6))
    assert w.cover.degree == 576 and len(w.switches) == 5088
    # 230,671 when covers were composed and pulled back through per-element
    # accessors; 10,827 when this test was written
    assert calls < 60_000


def test_kempe_cover_witness_builds_no_per_vertex_edge_lists(monkeypatch):
    built = []
    init, adopt = Multigraph.__init__, Multigraph._adopt

    def counted_init(self, vertex_count, edges):
        init(self, vertex_count, edges)
        built.append(len(self._edges))

    def counted_adopt(vertex_count, table):
        built.append(len(table))
        return adopt(vertex_count, table)

    g, c1, c2 = random_colored_instance(1, 5, 6)
    monkeypatch.setattr(Multigraph, "__init__", counted_init)
    monkeypatch.setattr(Multigraph, "_adopt", staticmethod(counted_adopt))
    degrees = counter(monkeypatch, bindings("_degrees", graph), "_degrees")
    w = kempe_cover_witness(g, c1, c2)
    assert w.cover.degree == 576 and len(w.switches) == 5088
    # 203 graphs with 32,058 edges, every one adopted; 99 of them, with
    # 7,677 edges, got dart lists when regularity, legality and components
    # were scanned through them
    assert sum(built) > 30_000
    assert degrees == [(g,)]


def test_per_vertex_edge_lists_are_built_at_most_once_per_call(monkeypatch):
    # a 4-cycle colored 1, 2, 1, 2 whose vertex 0 also meets two edges of color 3:
    # filling the color table finds vertex 0 before any switch is drawn
    g = Multigraph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (0, 5)])
    c = EdgeColoring(3, {0: 1, 1: 2, 2: 1, 3: 2, 4: 3, 5: 3})
    cycle = BichromaticCycle((1, 2), (0, 1, 2, 3))
    drawn = []

    def sequence():
        for k in range(4):
            drawn.append(k)
            yield cycle

    with pytest.raises(IllegalColoringError, match="at vertex 0"):
        apply_sequence(g, c, sequence())
    assert drawn == []
    # a cover that fails the counts counts the degrees of each graph once
    degrees = counter(monkeypatch, bindings("_degrees", graph), "_degrees")
    source = Multigraph.from_edges(4, [(0, 1), (0, 1), (2, 3)])
    theta = Multigraph.from_edges(2, [(0, 1)] * 3)
    verdict = verify_covering(CoveringMap(source, theta, [0, 1, 0, 1], {0: 0, 1: 1, 2: 2}))
    assert verdict.reason == "local bijection fails at source vertex 0"
    assert degrees == [(source,), (theta,)]


def test_witness_from_json_rebuilds_no_walk_and_makes_no_call_per_switch(monkeypatch, d5_witness):
    text = json.dumps(witness_to_json(d5_witness), sort_keys=True, separators=(",", ":"))
    decompositions = counter(monkeypatch, bindings("_cycle_decomposition"), "_cycle_decomposition")
    (parsed, _), calls = package_calls(witness_from_json, json.loads(text))
    assert parsed == d5_witness
    assert decompositions == []
    # 139,910 when each switch was rebuilt as a dart walk and each integer
    # was checked by its own call
    assert calls < len(d5_witness.switches)


def test_verify_covering_does_not_scan_vertex_fibers(monkeypatch, witnesses):
    fibers = counter(monkeypatch, (CoveringMap,), "vertex_fiber")
    assert verify_covering(witnesses[0].cover)
    assert fibers == []


def test_lift_sequence_reads_the_edge_map_a_constant_number_of_times(monkeypatch, witnesses):
    w = witnesses[0]
    projection = copies_cover(w.cover.source, 2)
    start = pullback_coloring(w.cover, w.start)
    reads = []
    original = CoveringMap.edge_map

    def counted(self):
        reads.append(None)
        return original.fget(self)

    monkeypatch.setattr(CoveringMap, "edge_map", property(counted))
    counts = []
    for sequence in (w.switches, witnesses[1].switches):
        reads.clear()
        lifted = lift_sequence(projection, start, sequence)
        assert len(lifted) == 2 * len(sequence)
        counts.append(len(reads))
    assert counts[0] == counts[1] <= 1


def test_lift_sequence_validates_each_base_switch_once(monkeypatch, witnesses):
    w = witnesses[0]
    projection = copies_cover(w.cover.source, 2)
    start = pullback_coloring(w.cover, w.start)
    replay, checked = coloring._replay, []

    def counted_replay(g, degree, colors, steps):
        def drawn():  # the replay checks each switch before it draws the next
            for index, cycle in steps:
                checked.append((g, index))
                yield index, cycle

        replay(g, degree, colors, drawn())

    for module in bindings("_replay"):
        monkeypatch.setattr(module, "_replay", counted_replay)
    lifts = counter(monkeypatch, (covering,), "_cycle_decomposition")
    lift_sequence(projection, start, w.switches)
    assert len(checked) == len(lifts) == len(w.switches)
    assert checked == [(projection.target, k) for k in range(len(w.switches))]


def test_align_color_checks_its_inputs_once(monkeypatch):
    g, c1, c2 = random_colored_instance(1, 4, 20)
    splits = counter(monkeypatch, (alignment,), "split_color_d")
    degrees = counter(monkeypatch, (coloring, alignment), "common_degree")
    legal = counter(monkeypatch, (coloring,), "is_legal")
    result = align_color(g, c1, c2)
    assert result.switches
    assert len(splits) == len(degrees) == 1
    # once per input coloring on the base; the cover is legal by construction
    assert [c for graph, c in legal if graph is g] == [c1, c2]
    assert len(legal) == 2


def test_kempe_cover_witness_proves_its_inputs_once(monkeypatch):
    g, c1, c2 = random_colored_instance(1, 5, 6)
    covers = counter(monkeypatch, (covering, equivalence), "verify_covering")
    degrees = counter(monkeypatch, bindings("common_degree"), "common_degree")
    legal = counter(monkeypatch, bindings("is_legal"), "is_legal")
    w = kempe_cover_witness(g, c1, c2)
    assert w.cover.degree == 576 and len(w.switches) == 5088
    assert covers == []
    assert degrees == [(g, c1, c2)]
    # the recursion aligns through a private entry that re-proves nothing
    assert [(graph is g, c) for graph, c in legal] == [(True, c1), (True, c2)]


def test_kempe_cover_witness_builds_each_distinct_component_once(monkeypatch):
    g, c1, c2 = random_colored_instance(1, 5, 6)
    calls = counter(monkeypatch, (equivalence,), "_witness")
    scans = counter(monkeypatch, (equivalence,), "connected_components")
    w = kempe_cover_witness(g, c1, c2)
    assert w.cover.degree == 576 and len(w.switches) == 5088
    assert len(calls) == 95  # the top-level call included; 270 without reuse
    # one scan per call that reaches the component test; 57 when the split re-scanned
    assert len(scans) == 43


@pytest.fixture(scope="module")
def census():
    census = kempe_class_partition(random_colored_instance(4, 4, 8)[0])
    assert len(census.classes) == 2
    return census


def test_kempe_class_partition_builds_one_coloring_per_enumerated_coloring(monkeypatch):
    g = random_colored_instance(4, 4, 8)[0]
    built = counter(monkeypatch, (EdgeColoring,), "__init__")
    cycles = counter(monkeypatch, (coloring, oracle), "bichromatic_cycles")
    census = kempe_class_partition(g)
    assert len(built) == len(census.colorings) == 384
    assert cycles == []


def test_equivalent_without_cover_builds_no_coloring(monkeypatch, census):
    g, start = census.graph, census.colorings[0]
    member = census.classes[0][-1]
    built = counter(monkeypatch, (EdgeColoring,), "__init__")
    cycles = counter(monkeypatch, (coloring, oracle), "bichromatic_cycles")
    assert equivalent_without_cover(g, start, census.colorings[member]) == census.paths[member]
    assert equivalent_without_cover(g, start, census.colorings[census.representatives[1]]) is None
    assert built == [] and cycles == []


def test_kempe_class_partition_builds_one_cycle_per_reached_coloring(monkeypatch):
    g = random_colored_instance(1, 4, 8)[0]
    decompositions = counter(monkeypatch, bindings("_cycle_decomposition"), "_cycle_decomposition")
    cycles = counter(monkeypatch, (BichromaticCycle,), "__init__")
    census = kempe_class_partition(g)
    assert (len(census.colorings), len(census.classes)) == (192, 2)
    assert decompositions == []
    # each coloring but a class root is reached once, by one switch
    assert len(cycles) == len(census.colorings) - len(census.classes) == 190


def test_equivalent_without_cover_builds_only_the_returned_path(monkeypatch):
    census = kempe_class_partition(random_colored_instance(1, 4, 8)[0])
    members = census.classes[0]
    member = max(members, key=lambda i: len(census.paths[i]))
    start, goal = census.colorings[members[0]], census.colorings[member]
    decompositions = counter(monkeypatch, bindings("_cycle_decomposition"), "_cycle_decomposition")
    cycles = counter(monkeypatch, (BichromaticCycle,), "__init__")
    path = equivalent_without_cover(census.graph, start, goal)
    assert len(path) >= 2 and len(cycles) == len(path)
    assert decompositions == []
    assert path == census.paths[member]
