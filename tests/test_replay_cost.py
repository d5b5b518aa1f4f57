"""Replay and covering checks stay linear: counted calls, no timing.

Each test counts calls to a known-expensive operation on a d=4 witness with
66 switches, then on the same witness with extra switches appended, and
requires the counts to match: the cost must not grow with the switch count.
The appended switches repeat the last switch an even number of times, which
flips one component back and forth and leaves the verdict unchanged.
The construction tests count the input and cover checks of one alignment
and one witness build: each input is proven once, and no derived cover is
proven again. They also count the recursion's calls, so that identical
components stay built once, its color-class scans, of which there are
none, and its replays, which check each alignment switch once. A node
whose colorings agree on a lower color class drops that class and aligns
nothing. A degree-1 cover costs nothing: the tests count the graphs that
builds of d=3 and d=4 adopt, and the cycle decompositions of their lifts.
The oracle tests count the `EdgeColoring`s, `BichromaticCycle`s,
`bichromatic_cycles` calls and cycle decompositions of a census and its
queries, which must not grow with the switches the breadth-first search
tries: one cycle per distinct switch a census keeps, or per step of the
path a query returns. They also count the keys the searches read color
masks from: one per class, or per query. The replay test counts every Python call the package makes while
it verifies a 7,560-switch witness, so that the replay and the cover check
stay loops over tables, with no call per switch or per cover vertex;
verifying it counts the degrees of the base only. The parse test counts the
calls that read the same witness back from JSON: no switch is rebuilt as a
walk, and no integer is checked by a call of its own; on the golden d4
witness only the vertex map and the sequence take the bulk type check. The build tests count
the calls and the degree counts of d=5 builds: covers are composed, pulled
back and split through their raw tables, and only the input graph has its
degrees counted. A replay fills its per-vertex color table once, before it
draws a switch, and a cover check that is about to name a failing vertex
counts the degrees of each graph once. Naming the first faulty entry of a
cover's edge map traces no more memory than accepting the sound map does.
"""

import json
import os
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from kempe_covers import (
    BichromaticCycle,
    CoveringError,
    CoveringMap,
    EdgeColoring,
    EquivalenceWitness,
    IllegalColoringError,
    Multigraph,
    align_color,
    alignment,
    apply_sequence,
    beta,
    coloring,
    connected_components,
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
    serialize,
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


def domain_checks(replays):
    """The graph and colors of each recorded ``_replay`` call with no steps: a domain check alone."""
    return [(graph, colors) for graph, _, colors, steps in replays if steps == ()]


def test_verify_witness_cost_is_independent_of_switch_count(monkeypatch, witnesses):
    replays = counter(monkeypatch, bindings("_replay"), "_replay")
    built = counter(monkeypatch, (EdgeColoring,), "__init__")
    adopted = counter(monkeypatch, (EdgeColoring,), "_adopt")
    counts = []
    for w in witnesses:
        replays.clear()
        built.clear()
        adopted.clear()
        verdict = verify_witness(w)
        assert verdict, verdict.reason
        counts.append((len(replays), len(built) + len(adopted)))
    assert counts[0] == counts[1]
    assert max(counts[0]) < 10 < len(witnesses[0].switches)


@pytest.fixture(scope="module")
def d5_witness():
    w = kempe_cover_witness(*random_colored_instance(3, 5, 6))
    assert len(w.switches) == 7560
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
    w, calls = package_calls(kempe_cover_witness, *random_colored_instance(3, 5, 6))
    assert w.cover.degree == 576 and len(w.switches) == 7560
    # d=5 n=6 seed 1 made 230,671 calls when covers were composed and pulled
    # back through per-element accessors, and 10,827 when this test was
    # written; seed 3 makes 20,974
    assert calls < 60_000


def test_kempe_cover_witness_builds_no_per_vertex_edge_lists(monkeypatch):
    built = []
    init, adopt = Multigraph.__init__, Multigraph._adopt

    def counted_init(self, vertex_count, edges):
        init(self, vertex_count, edges)
        built.append(self.edge_count)

    def counted_adopt(vertex_count, tails, heads):
        built.append(len(tails))
        return adopt(vertex_count, tails, heads)

    g, c1, c2 = random_colored_instance(2, 5, 12)
    monkeypatch.setattr(Multigraph, "__init__", counted_init)
    monkeypatch.setattr(Multigraph, "_adopt", staticmethod(counted_adopt))
    degrees = counter(monkeypatch, bindings("_degrees", graph), "_degrees")
    w = kempe_cover_witness(g, c1, c2)
    assert w.cover.degree == 576 and len(w.switches) == 6632
    # 188 graphs with 47,820 edges, every one adopted; at d=5 n=6 seed 1, 99
    # of 203 graphs, with 7,677 of 32,058 edges, got dart lists when
    # regularity, legality and components were scanned through them
    assert sum(built) > 40_000
    assert degrees == [(g,)]


def test_per_vertex_edge_lists_are_built_at_most_once_per_call(monkeypatch):
    # a 4-cycle colored 1, 2, 1, 2 whose vertex 0 also meets two edges of color 3:
    # filling the color table finds vertex 0 before any switch is drawn
    g = Multigraph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (0, 5)])
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
    source = Multigraph(4, [(0, 2), (1, 3), (0, 2), (1, 3), (1, 3)])
    theta = Multigraph(2, [(0, 1)] * 3)
    verdict = verify_covering(CoveringMap(source, theta, [0, 0, 1, 1], {f: f // 2 for f in range(5)}))
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


def test_witness_from_json_type_checks_in_bulk_only_the_vertex_map_and_the_sequence(monkeypatch):
    doc = json.loads((Path(__file__).parent / "golden" / "random_d4_n8_seed2.json").read_text(encoding="utf-8"))
    bulk = counter(monkeypatch, (serialize,), "_strict_int_lists")
    witness_from_json(doc)
    # the graph, coloring and edge map blocks list their ids in order, so each row is read by one typed loop
    assert [what for _, what in bulk] == ["vertex map entry", "switch color", "switch edge id"]
    assert bulk[0][0] == [doc["vertex_map"]]


def traced_peak(fn, *args):
    """The traced peak of allocations while ``fn(*args)`` runs, in bytes, and the CoveringError it raises."""
    tracemalloc.start()
    try:
        fn(*args)
    except CoveringError as exc:
        reason = str(exc)
    else:
        reason = None
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak, reason


def test_naming_an_edge_map_fault_costs_what_accepting_the_map_does():
    w = kempe_cover_witness(*random_colored_instance(1, 5, 6))
    doc = json.loads(json.dumps(witness_to_json(w)))
    source, vertex_map, rows = w.cover.source, doc["vertex_map"], doc["edge_map"]
    sound = [image for _, image in rows]
    row = rows[len(rows) // 2]  # the middle row's image moved to the next base edge
    row[1] = (row[1] + 1) % w.graph.edge_count
    accepted = traced_peak(CoveringMap, source, w.graph, vertex_map, sound)
    refused = traced_peak(CoveringMap, source, w.graph, vertex_map, [image for _, image in rows])
    assert accepted[1] is None
    assert refused[1] == "edge 4320 maps to 8, not to 4320 // 576 = 7"
    # 2,240,284 against 169,613 bytes when the fault was sought in dicts of every id
    assert refused[0] < accepted[0] + 32 * 1024


def test_verify_covering_does_not_scan_vertex_fibers(monkeypatch, witnesses):
    fibers = counter(monkeypatch, (CoveringMap,), "vertex_fiber")
    assert verify_covering(witnesses[0].cover)
    assert fibers == []


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


@pytest.mark.parametrize(
    "seed, d, n, aligned, checked", [(3, 5, 6, 126, 533), (2, 3, 1000, 4, 8), (1, 4, 150, 28, 68)]
)
def test_kempe_cover_witness_replays_each_alignment_switch_once(monkeypatch, seed, d, n, aligned, checked):
    g, c1, c2 = random_colored_instance(seed, d, n)
    # every result and every drawn switch is kept, so no switch object is freed and its id reused
    alignments = []
    align = equivalence._align_color

    def kept(*args):
        alignments.append(align(*args))
        return alignments[-1]

    monkeypatch.setattr(equivalence, "_align_color", kept)
    replay, checked_switches = coloring._replay, []

    def counted_replay(g, degree, colors, steps):
        def drawn():
            for index, cycle in steps:
                checked_switches.append(cycle)
                yield index, cycle

        replay(g, degree, colors, drawn())

    for module in bindings("_replay"):
        monkeypatch.setattr(module, "_replay", counted_replay)
    kempe_cover_witness(g, c1, c2)
    switches = [id(cycle) for result in alignments for cycle in result.switches]
    assert len(switches) == len(set(switches)) == aligned
    # _align_color replays its switches; the recursion lifts them with no second replay
    draws = Counter(map(id, checked_switches))
    assert [draws[s] for s in switches] == [1] * aligned
    # the rest are the first aligned half's switches, replayed once by their lift
    assert len(checked_switches) == checked


@pytest.mark.parametrize(
    "seed, d, n, graphs, edges, decompositions", [(2, 3, 1000, 1, 3000, 0), (1, 4, 150, 14, 15975, 32)]
)
def test_kempe_cover_witness_takes_a_degree_one_cover_as_the_identity(
    monkeypatch, seed, d, n, graphs, edges, decompositions
):
    g, c1, c2 = random_colored_instance(seed, d, n)
    adopted, adopt = [], Multigraph._adopt

    def counted_adopt(vertex_count, tails, heads):
        adopted.append(len(tails))
        return adopt(vertex_count, tails, heads)

    monkeypatch.setattr(Multigraph, "_adopt", staticmethod(counted_adopt))
    lifts = counter(monkeypatch, (covering,), "_cycle_decomposition")
    kempe_cover_witness(g, c1, c2)
    # both aligned halves of a d=3 node run over the trivial cover, which extends to the identity
    # of g and lifts each switch to itself: 5 graphs with 13,000 edges and 8 decompositions at
    # d=3 n=1,000, and 26 graphs with 23,475 edges and 68 decompositions at d=4 n=150, when both
    # were rebuilt. Their d=2 rests are decomposed on the node's own table, with no subgraph: 3
    # graphs with 7,000 edges and 20 with 18,975 when each rest was a spanning subgraph
    assert (len(adopted), sum(adopted), len(lifts)) == (graphs, edges, decompositions)


def test_align_color_checks_its_inputs_once(monkeypatch):
    g, c1, c2 = random_colored_instance(1, 4, 20)
    splits = counter(monkeypatch, (alignment,), "split_color_d")
    degrees = counter(monkeypatch, (coloring, alignment), "common_degree")
    replays = counter(monkeypatch, bindings("_replay"), "_replay")
    result = align_color(g, c1, c2)
    assert result.switches
    assert len(splits) == len(degrees) == 1
    # once per input coloring on the base; the cover is legal by construction
    assert domain_checks(replays) == [(g, c1._colors), (g, c2._colors)]


def test_kempe_cover_witness_proves_its_inputs_once(monkeypatch):
    g, c1, c2 = random_colored_instance(3, 5, 6)
    covers = [counter(monkeypatch, bindings(name, covering), name)
              for name in ("verify_covering", "_verify_incidence")]
    degrees = counter(monkeypatch, bindings("common_degree"), "common_degree")
    replays = counter(monkeypatch, bindings("_replay"), "_replay")
    w = kempe_cover_witness(g, c1, c2)
    assert w.cover.degree == 576 and len(w.switches) == 7560
    assert covers == [[], []]
    assert degrees == [(g, c1, c2)]
    # the recursion, its d=2 base included, re-proves nothing: 45 checks when
    # the base took its cycles from bichromatic_cycles
    assert domain_checks(replays) == [(g, c1._colors), (g, c2._colors)]


def test_kempe_cover_witness_builds_each_distinct_component_once(monkeypatch):
    g, c1, c2 = random_colored_instance(3, 5, 6)
    calls = counter(monkeypatch, (equivalence,), "_witness")
    scans = counter(monkeypatch, (equivalence,), "connected_components")
    w = kempe_cover_witness(g, c1, c2)
    assert w.cover.degree == 576 and len(w.switches) == 7560
    # the top-level call included; 176 when each d=3 node recursed into its d=2 rest, 2,046 without reuse
    assert len(calls) == 91
    # one scan per call that reaches the component test
    assert len(scans) == 75


def test_kempe_cover_witness_aligns_no_color_when_a_lower_class_agrees(monkeypatch):
    g, c1, _ = random_colored_instance(1, 3, 20)
    assert len(connected_components(g)) == 1
    # colors 2 and 3 trade classes, so the colorings agree on class 1 alone
    c2 = EdgeColoring(3, {e: (1, 3, 2)[c - 1] for e, c in c1.items()})
    alignments = counter(monkeypatch, (equivalence,), "_align_color")
    w = kempe_cover_witness(g, c1, c2)
    assert verify_witness(w) and w.cover.degree == beta(3)
    # the root drops color 1 and the rest is a d=2 base; the top color was
    # aligned when only its own class could be dropped
    assert alignments == []


@pytest.mark.parametrize("seed, d, n", [(1, 5, 6), (2, 3, 1000), (1, 4, 150)])
def test_kempe_cover_witness_scans_no_color_class(monkeypatch, seed, d, n):
    g, c1, c2 = random_colored_instance(seed, d, n)
    scans = counter(monkeypatch, (EdgeColoring,), "color_class")
    kempe_cover_witness(g, c1, c2)
    # the recursion finds its moving edges in one pass over both colorings;
    # 86, 3 and 12 scans when every node split the two top-color classes
    assert scans == []


@pytest.fixture(scope="module")
def census():
    census = kempe_class_partition(random_colored_instance(4, 4, 8)[0])
    assert len(census.classes) == 2
    return census


def test_kempe_class_partition_builds_one_coloring_per_enumerated_coloring(monkeypatch):
    g = random_colored_instance(4, 4, 8)[0]
    built = counter(monkeypatch, (EdgeColoring,), "__init__")
    adopted = counter(monkeypatch, (EdgeColoring,), "_adopt")
    cycles = counter(monkeypatch, (coloring, oracle), "bichromatic_cycles")
    census = kempe_class_partition(g)
    # every field of an enumeration key is a color in 1..d, so none is checked again
    assert len(adopted) == len(census.colorings) == 384
    assert built == [] and cycles == []


def test_equivalent_without_cover_builds_no_coloring(monkeypatch, census):
    g, start = census.graph, census.colorings[0]
    member = census.classes[0][-1]
    built = counter(monkeypatch, (EdgeColoring,), "__init__")
    cycles = counter(monkeypatch, (coloring, oracle), "bichromatic_cycles")
    assert equivalent_without_cover(g, start, census.colorings[member]) == census.paths[member]
    assert equivalent_without_cover(g, start, census.colorings[census.representatives[1]]) is None
    assert built == [] and cycles == []


def test_kempe_class_partition_builds_each_switch_once(monkeypatch):
    g = random_colored_instance(1, 4, 8)[0]
    decompositions = counter(monkeypatch, bindings("_cycle_decomposition"), "_cycle_decomposition")
    cycles = counter(monkeypatch, (BichromaticCycle,), "__init__")
    census = kempe_class_partition(g)
    assert (len(census.colorings), len(census.classes)) == (192, 2)
    assert decompositions == []
    # 190 colorings are reached by a switch, but paths share the switch objects:
    # one build per distinct (pair, component), and equal switches are one object
    steps = [switch for path in census.paths.values() for switch in path]
    assert len(cycles) == len(set(steps)) == len({id(switch) for switch in steps}) == 97


def mask_reads(monkeypatch):
    """The keys each search's walker reads color masks from, recorded call by call."""
    reads = []
    walker = oracle._switch_walker

    def counted_walker(g, d):
        masks_of, neighbors, cycle = walker(g, d)

        def counted(key):
            reads.append(key)
            return masks_of(key)

        return counted, neighbors, cycle

    monkeypatch.setattr(oracle, "_switch_walker", counted_walker)
    return reads


def test_kempe_class_partition_reads_masks_once_per_class(monkeypatch):
    g = random_colored_instance(1, 4, 8)[0]
    reads = mask_reads(monkeypatch)
    census = kempe_class_partition(g)
    # every other coloring derives its masks from the one it was reached from
    keys = oracle._coloring_keys(g, oracle.DEFAULT_MAX_EDGES)[1]
    assert reads == [keys[rep] for rep in census.representatives] and len(reads) == 2


def test_equivalent_without_cover_reads_masks_once_per_query(monkeypatch, census):
    g, start = census.graph, census.colorings[0]
    deepest = max(census.classes[0], key=lambda i: len(census.paths[i]))
    reads = mask_reads(monkeypatch)
    assert len(equivalent_without_cover(g, start, census.colorings[deepest])) >= 2
    assert len(reads) == 1
    assert equivalent_without_cover(g, start, census.colorings[census.representatives[1]]) is None
    assert len(reads) == 2


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
