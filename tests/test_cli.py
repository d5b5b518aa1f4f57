import contextlib
import copy
import gc
import io
import os
import subprocess
import sys
import tracemalloc
import types
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import kempe_covers
from kempe_covers import (
    EdgeColoring,
    KempeCoversError,
    Multigraph,
    apply_sequence,
    bichromatic_cycles,
    bundled_instance_path,
    pullback_coloring,
    random_colored_instance,
    verify_witness,
)
from kempe_covers.cli import _COMMANDS, _build_parser, main
from kempe_covers.serialize import (
    canonical_json,
    dump_json,
    instance_from_json,
    instance_to_json,
    load_json,
    witness_from_json,
)

from conftest import make_cycle, make_k33, mutated_documents

K33 = str(bundled_instance_path("k33"))
THETA = str(bundled_instance_path("theta"))
PETERSEN = str(bundled_instance_path("petersen"))


def test_check_bundled_k33(capsys):
    assert main(["check", "--input", K33, "--coloring", "c1"]) == 0
    assert "legal" in capsys.readouterr().out


def test_check_illegal_coloring(tmp_path, capsys):
    doc = {
        "format": "kempe-instance/1",
        "vertices": 3,
        "edges": [[0, 1], [1, 2], [2, 0]],
        "colorings": {"bad": [1, 2, 1]},
    }
    path = tmp_path / "triangle.json"
    dump_json(doc, path)
    assert main(["check", "--input", str(path), "--coloring", "bad"]) == 2
    assert "not a legal" in capsys.readouterr().err


def test_check_missing_file():
    assert main(["check", "--input", "/nonexistent/nope.json", "--coloring", "c1"]) == 1


def test_check_unknown_coloring_name():
    assert main(["check", "--input", K33, "--coloring", "zzz"]) == 2


def test_check_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["check", "--input", str(path), "--coloring", "c1"]) == 1


GOLDEN_K33 = str(Path(__file__).parent / "golden" / "k33_c1_c2.json")
GOLDEN_THETA = str(Path(__file__).parent / "golden" / "theta_c1_c2.json")
GOLDEN_D3 = str(Path(__file__).parent / "golden" / "random_d3_n4_seed5.json")
UNREADABLE_DOCUMENTS = {
    # the decoder recurses once per bracket
    "nested": b"[" * 100_000 + b"]" * 100_000,
    # a UTF-16 byte-order mark
    "not utf-8": b"\xff\xfe" + "{}".encode("utf-16-le"),
    # past the interpreter's limit of 4,300 digits for converting an int
    "long integer": b'{"format": "kempe-instance/1", "vertices": ' + b"1" * 5000 + b', "edges": [], "colorings": {}}',
}


@pytest.mark.parametrize("document", sorted(UNREADABLE_DOCUMENTS))
@pytest.mark.parametrize("argv", [
    ["check", "--input", "BAD", "--coloring", "c1"],
    ["witness", "--input", "BAD", "--from", "c1", "--to", "c2"],
    ["verify", "--input", "BAD", "--witness", GOLDEN_K33],
    ["verify", "--input", K33, "--witness", "BAD"],
    ["classes", "--input", "BAD"],
], ids=["check", "witness", "verify-input", "verify-witness", "classes"])
def test_an_unreadable_document_is_one_error_line(tmp_path, capsys, argv, document):
    path = tmp_path / "bad.json"
    path.write_bytes(UNREADABLE_DOCUMENTS[document])
    assert main([str(path) if arg == "BAD" else arg for arg in argv]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: ")


def test_witness_k33(tmp_path, capsys):
    out = tmp_path / "w.json"
    code = main(["witness", "--input", K33, "--from", "c1", "--to", "c2", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "covering degree 2" in printed
    witness, names = witness_from_json(load_json(out))
    assert names == {"from": "c1", "to": "c2"}
    assert witness.cover.degree == 2


def test_witness_identity(tmp_path, capsys):
    out = tmp_path / "w.json"
    assert main(["witness", "--input", K33, "--from", "c1", "--to", "c1", "--out", str(out)]) == 0
    assert "covering degree 1, sequence length 0" in capsys.readouterr().out


def test_witness_mismatched_degrees(tmp_path):
    g = make_k33()
    doc = instance_to_json(g, {"c1": EdgeColoring(3, {e: [1,2,3,2,3,1,3,1,2][e] for e in range(9)})})
    doc["colorings"]["c4"] = [1, 2, 4, 2, 4, 1, 4, 1, 2]
    path = tmp_path / "mixed.json"
    dump_json(doc, path)
    assert main(["witness", "--input", str(path), "--from", "c1", "--to", "c4"]) == 2


def test_witness_has_no_drawing_flag(tmp_path):
    # the witness document is the command's only output
    dots = tmp_path / "dots"
    with pytest.raises(SystemExit) as exc:
        main(["witness", "--input", K33, "--from", "c1", "--to", "c2",
              "--emit-dot", str(dots)])
    assert exc.value.code == 2
    assert not dots.exists()


def test_verify_fresh_witness(tmp_path):
    out = tmp_path / "w.json"
    main(["witness", "--input", K33, "--from", "c1", "--to", "c2", "--out", str(out)])
    assert main(["verify", "--input", K33, "--witness", str(out)]) == 0


#: Every package function that ``verify`` runs on the golden k33 witness, as
#: module.name (comprehensions left out, so Python 3.10 and 3.11 agree). A
#: change that grows or shrinks the verify path edits this set on purpose.
VERIFY_PATH = {
    "cli._build_parser", "cli._cmd_verify", "cli._load_instance", "cli.main",
    "coloring.__eq__", "coloring.__init__", "coloring._adopt", "coloring._replay",
    "coloring.common_degree", "coloring.degree",
    "covering.__bool__", "covering.__init__", "covering._first_ends", "covering._repeat_each",
    "covering._verify_incidence", "covering.pullback_coloring",
    "equivalence._betas", "equivalence.verify_witness",
    "graph.__eq__", "graph.__init__", "graph._adopt", "graph._degrees", "graph._in_id_order",
    "graph.edge_count", "graph.is_regular", "graph.vertex_count",
    "serialize._coloring_from_json", "serialize._graph_from_json", "serialize._graph_in_order",
    "serialize._images_in_order",
    "serialize._strict_int", "serialize._strict_int_lists", "serialize.instance_from_json",
    "serialize.load_json", "serialize.witness_from_json",
}


def test_verify_runs_the_pinned_path(capsys):
    package = os.path.dirname(kempe_covers.__file__) + os.sep
    reached = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(package) and not code.co_name.startswith("<"):
            reached.add(f"{os.path.basename(code.co_filename)[:-3]}.{code.co_name}")

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        code = main(["verify", "--input", K33, "--witness", GOLDEN_K33])
    finally:
        sys.setprofile(previous)
    assert code == 0, capsys.readouterr().err
    assert reached == VERIFY_PATH


@pytest.mark.parametrize("outcome, code", [("returns", 0), ("refuses", 2), ("raises", None)])
@pytest.mark.parametrize("collecting", [True, False], ids=["collecting", "paused"])
def test_a_command_runs_with_the_cyclic_collector_paused(monkeypatch, capsys, outcome, code, collecting):
    seen = []

    def command(args):
        seen.append(gc.isenabled())
        if outcome == "refuses":
            raise KempeCoversError("refused")
        if outcome == "raises":
            raise RuntimeError("not a package error")
        return 0

    monkeypatch.setitem(_COMMANDS, "check", command)
    before = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        with pytest.raises(RuntimeError) if code is None else contextlib.nullcontext():
            assert main(["check", "--input", K33, "--coloring", "c1"]) == code
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if before else gc.disable)()
    assert seen == [False]


@pytest.mark.parametrize("argv", [
    ["check", "--input", K33, "--coloring", "c1"],
    ["witness", "--input", K33, "--from", "c1", "--to", "c2", "--out", "{tmp}/w.json"],
    ["verify", "--input", K33, "--witness", GOLDEN_K33],
    ["classes", "--input", K33],
    ["gen", "--seed", "1", "--degree", "4", "--vertices", "8", "--out", "{tmp}/g.json"],
], ids=lambda argv: argv[0])
def test_a_command_frees_what_it_builds_without_the_cyclic_collector(tmp_path, capsys, argv):
    args = _build_parser().parse_args([arg.format(tmp=tmp_path) for arg in argv])
    gc.collect()  # the parser's own cycles, and anything earlier
    before = gc.isenabled()
    gc.disable()
    try:
        assert _COMMANDS[args.command](args) == 0
        unreachable = gc.collect()
    finally:
        if before:
            gc.enable()
    assert unreachable == 0


def illegal_k33(tmp_path):
    """k33 with ``c1[1] = c1[0]``: edges 0 and 1 meet at vertex 0 and both get color 1."""
    doc = load_json(K33)
    doc["colorings"]["c1"][1] = doc["colorings"]["c1"][0]
    path = tmp_path / "k33-illegal.json"
    dump_json(doc, path)
    return str(path)


def witness_from_illegal_k33(tmp_path):
    """The golden k33 witness with its start coloring that of :func:`illegal_k33`."""
    doc = load_json(GOLDEN_K33)
    start = doc["start"]["colors"]
    start[1][1] = start[0][1]
    path = tmp_path / "illegal-start.json"
    dump_json(doc, path)
    return str(path)


CLASH = "colors do not make a legal coloring: edges 0 and 1 both have color 1 at vertex 0"


@pytest.mark.parametrize("argv, line", [
    (lambda tmp, k33: ["check", "--input", k33, "--coloring", "c1"],
     f"error: coloring 'c1' is not a legal 3-edge-coloring: {CLASH}"),
    (lambda tmp, k33: ["witness", "--input", k33, "--from", "c1", "--to", "c2"],
     f"error: {CLASH}"),
    (lambda tmp, k33: ["verify", "--input", k33, "--witness", witness_from_illegal_k33(tmp)],
     f"error: witness verification failed: {CLASH}"),
], ids=["check", "witness", "verify"])
def test_an_illegal_coloring_is_refused_with_its_clash(tmp_path, capsys, argv, line):
    assert main(argv(tmp_path, illegal_k33(tmp_path))) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [line]


def test_verify_tampered_sequence(tmp_path, capsys):
    out = tmp_path / "w.json"
    main(["witness", "--input", K33, "--from", "c1", "--to", "c2", "--out", str(out)])
    doc = load_json(out)
    doc["sequence"] = doc["sequence"][:-1]
    dump_json(doc, out)
    assert main(["verify", "--input", K33, "--witness", str(out)]) == 2
    assert "mismatch" in capsys.readouterr().err


def theta_witness_with(tmp_path, **blocks):
    """The golden theta witness with the given top-level blocks replaced."""
    doc = load_json(GOLDEN_THETA)
    doc.update(blocks)
    path = tmp_path / "theta-tampered.json"
    dump_json(doc, path)
    return str(path)


THETA_COVER = load_json(GOLDEN_THETA)["cover"]


@pytest.mark.parametrize("blocks, line", [
    # theta's three edges are parallel twins: sending cover edge 1, the sheet-1 lift of base
    # edge 0, to cover vertex 2 keeps the sheet rule, and vertex 2 meets both lifts of edge 0
    ({"cover": {**THETA_COVER, "edges": [[0, 0, 2], [1, 1, 2], *THETA_COVER["edges"][2:]]}},
     "error: witness verification failed: local bijection fails: "
     "colors do not make a legal coloring: edges 0 and 1 both have color 1 at vertex 2"),
    ({"degree": 0, "cover": {"vertices": 0, "edges": []}, "vertex_map": [], "edge_map": [], "sequence": []},
     "error: cover has 0 vertices, not m >= 1 times the target's 2"),
], ids=["parallel-twin", "empty-cover"])
def test_verify_rejects_a_cover_that_keeps_incidence_but_is_no_covering(tmp_path, capsys, blocks, line):
    assert THETA_COVER["edges"][:2] == [[0, 0, 2], [1, 1, 3]]
    assert main(["verify", "--input", THETA, "--witness", theta_witness_with(tmp_path, **blocks)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [line]


def renumbered(doc, vertex, edge):
    """``doc`` with its cover's vertex and edge ids sent through ``vertex`` and ``edge``, maps and
    switches included: the same covering and the same witness, numbered another way."""
    doc = copy.deepcopy(doc)
    cover = doc["cover"]
    cover["edges"] = sorted([edge(f), vertex(u), vertex(w)] for f, u, w in cover["edges"])
    images = doc["vertex_map"]
    doc["vertex_map"] = [images[x] for x in sorted(range(len(images)), key=vertex)]
    doc["edge_map"] = sorted([edge(f), image] for f, image in doc["edge_map"])
    for entry in doc["sequence"]:
        entry["edges"] = sorted(map(edge, entry["edges"]))
    return doc


def test_verify_refuses_a_true_covering_numbered_otherwise(tmp_path, capsys):
    doc = load_json(GOLDEN_K33)
    m = doc["degree"]
    assert m == 2
    path = tmp_path / "renumbered.json"
    # swapping two sheets keeps every id over its image, x // m: still sheet-numbered, and it verifies
    dump_json(renumbered(doc, lambda x: x ^ 1, lambda f: f ^ 1), path)
    assert main(["verify", "--input", K33, "--witness", str(path)]) == 0
    # swapping the fibers over base vertices 0 and 1 is the same covering, but vertex 0 lies over 1
    dump_json(renumbered(doc, lambda x: x + m if x < m else x - m if x < 2 * m else x, lambda f: f), path)
    capsys.readouterr()
    assert main(["verify", "--input", K33, "--witness", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: vertex 0 maps to 1, not to 0 // 2 = 0"]


def test_verify_switch_edges_not_a_cycle(tmp_path, capsys):
    out = tmp_path / "w.json"
    main(["witness", "--input", K33, "--from", "c1", "--to", "c2", "--out", str(out)])
    doc = load_json(out)
    doc["sequence"][0]["edges"] = doc["sequence"][0]["edges"][:-1]
    dump_json(doc, out)
    assert main(["verify", "--input", K33, "--witness", str(out)]) == 2
    assert "cycle" in capsys.readouterr().err


def test_verify_switch_with_a_repeated_edge(tmp_path, capsys):
    out = tmp_path / "w.json"
    main(["witness", "--input", K33, "--from", "c1", "--to", "c2", "--out", str(out)])
    doc = load_json(out)
    doc["sequence"][0]["edges"].append(doc["sequence"][0]["edges"][0])
    dump_json(doc, out)
    assert main(["verify", "--input", K33, "--witness", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "repeated edge" in err[0]


def test_a_repeated_edge_parses_and_fails_the_replay_at_its_position(tmp_path):
    out = tmp_path / "w.json"
    with contextlib.redirect_stdout(io.StringIO()):
        main(["witness", "--input", K33, "--from", "c1", "--to", "c2", "--out", str(out)])
    doc = load_json(out)
    k = len(doc["sequence"]) - 1
    edges = doc["sequence"][k]["edges"]
    edges.append(edges[0])
    witness, _ = witness_from_json(doc)
    assert len(witness.switches[k]) == len(edges)
    verdict = verify_witness(witness)
    assert not verdict
    assert "repeated edge" in verdict.reason and f"sequence position {k}" in verdict.reason


def test_verify_switch_edges_two_cycles(tmp_path, capsys):
    out = tmp_path / "w.json"
    main(["witness", "--input", K33, "--from", "c1", "--to", "c2", "--out", str(out)])
    doc = load_json(out)
    witness, _ = witness_from_json(doc)
    start = pullback_coloring(witness.cover, witness.start)
    for pair in combinations(range(1, 4), 2):
        cycles = bichromatic_cycles(witness.cover.source, start, *pair)
        if len(cycles) >= 2:
            break
    first, second = cycles[:2]
    doc["sequence"][0] = {"colors": list(pair), "edges": sorted(first.edges | second.edges)}
    dump_json(doc, out)
    assert main(["verify", "--input", K33, "--witness", str(out)]) == 2
    assert "single cycle" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        ("switch edge", "1"),
        ("switch edge", 3.4),
        ("vertex map", False),
    ],
)
def test_verify_rejects_non_integer_witness_fields(tmp_path, capsys, field, value):
    out = tmp_path / "w.json"
    main(["witness", "--input", K33, "--from", "c1", "--to", "c2", "--out", str(out)])
    doc = load_json(out)
    # each value reads back under int() as the integer it replaces
    if field == "switch edge":
        edges = doc["sequence"][0]["edges"]
        edges[edges.index(int(value))] = value
    else:
        assert doc["vertex_map"][0] == 0
        doc["vertex_map"][0] = value
    dump_json(doc, out)
    capsys.readouterr()
    assert main(["verify", "--input", K33, "--witness", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and "must be an integer" in captured.err
    assert "Traceback" not in captured.err


def test_verify_accepts_integral_floats_in_switch_edges(tmp_path, capsys):
    out = tmp_path / "w.json"
    main(["witness", "--input", K33, "--from", "c1", "--to", "c2", "--out", str(out)])
    doc = load_json(out)
    doc["sequence"][0]["edges"] = [float(e) for e in doc["sequence"][0]["edges"]]
    dump_json(doc, out)
    assert main(["verify", "--input", K33, "--witness", str(out)]) == 0


@pytest.mark.parametrize("names", [["c1", "c2"], "c1", {"from": ["c1"], "to": "c2"}])
def test_verify_rejects_a_malformed_names_block(tmp_path, capsys, names):
    out = tmp_path / "w.json"
    main(["witness", "--input", K33, "--from", "c1", "--to", "c2", "--out", str(out)])
    doc = load_json(out)
    doc["names"] = names
    dump_json(doc, out)
    capsys.readouterr()
    assert main(["verify", "--input", K33, "--witness", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and "names block" in captured.err


@pytest.mark.parametrize("degree, code", [(99, 2), (None, 1), ("two", 1)], ids=["wrong", "missing", "string"])
def test_verify_checks_the_witness_degree(tmp_path, capsys, degree, code):
    out = tmp_path / "w.json"
    main(["witness", "--input", K33, "--from", "c1", "--to", "c2", "--out", str(out)])
    doc = load_json(out)
    assert doc["degree"] == 2
    if degree is None:
        del doc["degree"]
    else:
        doc["degree"] = degree
    dump_json(doc, out)
    capsys.readouterr()
    assert main(["verify", "--input", K33, "--witness", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and "degree" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("block", ["base.edges", "cover.edges", "edge_map", "start.colors", "goal.colors"])
def test_verify_rejects_an_id_listed_twice(tmp_path, capsys, block):
    out = tmp_path / "w.json"
    main(["witness", "--input", K33, "--from", "c1", "--to", "c2", "--out", str(out)])
    doc = load_json(out)
    first, _, second = block.partition(".")
    rows = doc[first][second] if second else doc[first]
    if block == "cover.edges":  # keep the row count, which the cover-size guard checks first
        rows[-1][0] = rows[0][0]
    else:  # a conflicting row ahead of the real one, which a dict built in order lets win
        key, *values = rows[0]
        rows.insert(0, [key, *values[::-1]] if len(values) == 2 else [key, values[0] % 3 + 1])
    dump_json(doc, out)
    capsys.readouterr()
    assert main(["verify", "--input", K33, "--witness", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {block} lists id {rows[0][0]} twice"]


@pytest.mark.parametrize("block", ["base.edges", "cover.edges", "start.colors", "goal.colors"])
def test_verify_refuses_rows_that_skip_an_id_in_one_line(tmp_path, capsys, block):
    # ids are positions 0..E-1: row 1 renumbered past the end leaves id 1 missing, and the count unchanged
    out = tmp_path / "w.json"
    main(["witness", "--input", K33, "--from", "c1", "--to", "c2", "--out", str(out)])
    doc = load_json(out)
    first, _, second = block.partition(".")
    rows = doc[first][second]
    rows[1][0] = len(rows)
    dump_json(doc, out)
    capsys.readouterr()
    assert main(["verify", "--input", K33, "--witness", str(out)]) == 1
    captured = capsys.readouterr()
    kind = "graph" if second == "edges" else "coloring"
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: malformed {kind} block: edge ids must be 0..{len(rows) - 1}: 1 is missing"]


@pytest.mark.parametrize("where", ["-1", "E"])
def test_verify_refuses_a_switch_edge_outside_the_cover_as_stale(tmp_path, capsys, where):
    # a list indexed with -1 would read its last slot, and with E would raise IndexError
    out = tmp_path / "w.json"
    main(["witness", "--input", K33, "--from", "c1", "--to", "c2", "--out", str(out)])
    doc = load_json(out)
    edge = -1 if where == "-1" else len(doc["cover"]["edges"])
    doc["sequence"][0]["edges"].append(edge)
    dump_json(doc, out)
    capsys.readouterr()
    assert main(["verify", "--input", K33, "--witness", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: witness verification failed: stale switch (sequence position 0): edge {edge} not in graph"
    ]


def d4_instance(tmp_path):
    g, c1, c2 = kempe_covers.random_colored_instance(2, 4, 8)
    path = tmp_path / "d4.json"
    dump_json(instance_to_json(g, {"c1": c1, "c2": c2}), path)
    return str(path)


@pytest.mark.parametrize("tamper", ["drop", "unknown", "other component"])
@pytest.mark.parametrize("instance", ["k33", "d4"])
def test_verify_names_the_position_of_a_tampered_switch(tmp_path, capsys, instance, tamper):
    path = K33 if instance == "k33" else d4_instance(tmp_path)
    out = tmp_path / "w.json"
    main(["witness", "--input", path, "--from", "c1", "--to", "c2", "--out", str(out)])
    doc = load_json(out)
    witness, _ = witness_from_json(doc)
    k = len(witness.switches) // 2
    switch = doc["sequence"][k]
    if tamper == "drop":
        switch["edges"].pop()
    elif tamper == "unknown":
        switch["edges"].append(10**6)
    else:
        # an edge of another component of the same pair, as the replay finds them
        cover = witness.cover.source
        current = apply_sequence(cover, pullback_coloring(witness.cover, witness.start), witness.switches[:k])
        others = [cycle for cycle in bichromatic_cycles(cover, current, *switch["colors"])
                  if cycle != witness.switches[k]]
        switch["edges"] = sorted(switch["edges"] + [others[0].edge_ids[-1]])
    dump_json(doc, out)
    capsys.readouterr()
    assert main(["verify", "--input", path, "--witness", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"sequence position {k}" in err[0]


def verify_with_claimed_vertices(tmp_path, capsys, monkeypatch, block):
    """Verify a k33 witness whose ``block`` claims 500,000 vertices.

    Returns the exit code, stderr and the vertex count of every Multigraph built.
    """
    out = tmp_path / "w.json"
    main(["witness", "--input", K33, "--from", "c1", "--to", "c2", "--out", str(out)])
    doc = load_json(out)
    doc[block]["vertices"] = 500_000  # never larger: an unguarded parse allocates it
    dump_json(doc, out)
    built = []
    original = Multigraph.__init__

    def counted(self, vertex_count, edges):
        built.append(vertex_count)
        original(self, vertex_count, edges)

    monkeypatch.setattr(Multigraph, "__init__", counted)
    capsys.readouterr()
    code = main(["verify", "--input", K33, "--witness", str(out)])
    return code, capsys.readouterr().err, built


def test_verify_rejects_oversized_cover_before_allocating(tmp_path, capsys, monkeypatch):
    code, err, built = verify_with_claimed_vertices(tmp_path, capsys, monkeypatch, "cover")
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("error: cover has 500000 vertices and 18 edges")
    assert built and max(built) < 500_000


def test_verify_rejects_oversized_base_before_allocating(tmp_path, capsys, monkeypatch):
    code, err, built = verify_with_claimed_vertices(tmp_path, capsys, monkeypatch, "base")
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("error: base has 500000 vertices and 9 edges")
    assert max(built, default=0) < 500_000


def test_high_degree_identity_witness_does_not_hang(tmp_path):
    # beta(40) has about 2**40 digits; the degree check must not compute it
    d = 40
    instance = tmp_path / "parallel.json"
    dump_json({
        "format": "kempe-instance/1",
        "vertices": 2,
        "edges": [[0, 1]] * d,
        "colorings": {"c1": list(range(1, d + 1))},
    }, instance)
    witness = tmp_path / "w.json"
    env = dict(os.environ, PYTHONPATH=str(Path(kempe_covers.__file__).parents[1]))
    for argv in (
        ["witness", "--input", str(instance), "--from", "c1", "--to", "c1", "--out", str(witness)],
        ["verify", "--input", str(instance), "--witness", str(witness)],
    ):
        done = subprocess.run(
            [sys.executable, "-m", "kempe_covers.cli", *argv],
            env=env, capture_output=True, text=True, timeout=30,
        )
        assert done.returncode == 0, done.stderr


def test_verify_instance_mismatch(tmp_path):
    out = tmp_path / "w.json"
    main(["witness", "--input", K33, "--from", "c1", "--to", "c2", "--out", str(out)])
    assert main(["verify", "--input", THETA, "--witness", str(out)]) == 2


def test_classes_k33(capsys):
    assert main(["classes", "--input", K33]) == 0
    assert "12 colorings, 2 classes" in capsys.readouterr().out


def test_classes_theta(capsys):
    assert main(["classes", "--input", THETA]) == 0
    assert "6 colorings, 1 classes" in capsys.readouterr().out


def test_classes_petersen(capsys):
    assert main(["classes", "--input", PETERSEN]) == 0
    assert capsys.readouterr().out == "0 colorings, 0 classes\n"


def test_classes_edgeless_graph_is_one_error_line(tmp_path, capsys):
    # degree 0: the one empty coloring has no legal ambient degree
    path = tmp_path / "edgeless.json"
    dump_json(instance_to_json(Multigraph(4, {}), {}), path)
    assert main(["classes", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: ambient degree must be >= 1, got 0"]


def test_classes_stops_at_the_coloring_bound(tmp_path, capsys, monkeypatch):
    # 12 parallel edges pass the 30-edge bound but have 12! legal colorings
    monkeypatch.setattr(kempe_covers.oracle, "MAX_COLORINGS", 1000)
    path = tmp_path / "theta12.json"
    dump_json(instance_to_json(Multigraph(2, [(0, 1)] * 12), {}), path)
    assert main(["classes", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: more than 1000 legal colorings"]


def test_classes_answers_a_cycle_of_2400_vertices(tmp_path, capsys):
    # 2,400 edges pass --max-edges 5000; a search recursing once per matched
    # pair would pass the interpreter's default limit of 1,000 calls
    path = tmp_path / "cycle.json"
    dump_json(instance_to_json(make_cycle(2400), {}), path)
    assert main(["classes", "--input", str(path), "--max-edges", "5000"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [
        "2 colorings, 1 classes",
        "class 0: 2 colorings, representative index 0",
    ]


def test_classes_max_edges_defaults_to_the_oracle_bound():
    args = _build_parser().parse_args(["classes", "--input", K33])
    assert args.max_edges == kempe_covers.oracle.DEFAULT_MAX_EDGES


def test_gen_roundtrip(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert main(["gen", "--seed", "42", "--degree", "3", "--vertices", "8",
                 "--out", str(out)]) == 0
    g, colorings = instance_from_json(load_json(out))
    assert g.vertex_count == 8 and g.edge_count == 12
    assert set(colorings) == {"c1", "c2"}
    # witness the generated pair end to end
    assert main(["witness", "--input", str(out), "--from", "c1", "--to", "c2"]) == 0


@pytest.mark.parametrize("instance, golden", [(K33, GOLDEN_K33), (THETA, GOLDEN_THETA)], ids=["k33", "theta"])
def test_witness_out_writes_the_golden_bytes(tmp_path, capsys, instance, golden):
    out = tmp_path / "w.json"
    assert main(["witness", "--input", instance, "--from", "c1", "--to", "c2", "--out", str(out)]) == 0
    assert out.read_bytes() == Path(golden).read_bytes()


def test_gen_out_writes_the_canonical_form(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert main(["gen", "--seed", "42", "--degree", "3", "--vertices", "8", "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text == canonical_json(load_json(out))
    assert text.endswith("}\n") and text.count("\n") == 1


def test_instance_roundtrip_exact():
    doc = load_json(K33)
    g, colorings = instance_from_json(doc)
    assert instance_to_json(g, colorings, metadata=doc.get("metadata")) == doc


@pytest.mark.parametrize(
    "field, value",
    [
        ("color", "x"),
        ("edge", ["a", 1]),
        ("degree", "q"),
        ("color", 1.7),
        ("color", True),
    ],
)
def test_check_rejects_non_integer_fields(tmp_path, capsys, field, value):
    doc = load_json(THETA)
    if field == "color":
        doc["colorings"]["c1"][0] = value
    elif field == "edge":
        doc["edges"][0] = value
    else:
        doc["degree"] = value
    path = tmp_path / "bad.json"
    dump_json(doc, path)
    assert main(["check", "--input", str(path), "--coloring", "c1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and "must be an integer" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command, edges, message", [
    (["check", "--coloring", "c1"], [[0, 1]], "error: graph is not regular"),
    (["classes"], [[0, 1]], "error: enumeration needs a regular graph"),
    (["classes"], [], "error: ambient degree must be >= 1, got 0"),
])
def test_claimed_vertex_count_is_answered_from_the_edge_table(tmp_path, capsys, command, edges, message):
    path = tmp_path / "inflated.json"
    colorings = {"c1": [1] * len(edges)}
    dump_json({"format": "kempe-instance/1", "vertices": 10**6, "edges": edges, "colorings": colorings}, path)
    tracemalloc.start()
    try:
        assert main([command[0], "--input", str(path), *command[1:]]) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err.splitlines() == [message]
    assert peak < 100_000  # a list per claimed vertex would take 8 MB


@pytest.mark.parametrize("command, code", [
    (["check", "--coloring", "c1"], 2),
    (["witness", "--from", "c1", "--to", "c2"], 2),
    (["classes"], 0),
], ids=["check", "witness", "classes"])
def test_an_ambient_degree_is_compared_before_any_table_is_filled(tmp_path, capsys, command, code):
    doc = load_json(K33)
    doc["degree"] = 10**12
    path = tmp_path / "huge-degree.json"
    dump_json(doc, path)
    tracemalloc.start()
    try:
        assert main([command[0], "--input", str(path), *command[1:]]) == code
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(capsys.readouterr().err.splitlines()) == (1 if code else 0)
    assert peak < 16 * 2**20  # a color table of 6 * (10**12 + 1) slots would take 48 TB


def test_witness_on_a_d6_instance_exits_before_any_build(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "g6.json")
    assert main(["gen", "--seed", "2", "--degree", "6", "--vertices", "8", "--out", path]) == 0
    capsys.readouterr()
    adopted = []
    monkeypatch.setattr(Multigraph, "_adopt", staticmethod(lambda *args: adopted.append(args)))
    assert main(["witness", "--input", path, "--from", "c1", "--to", "c2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and adopted == []
    assert captured.err.splitlines() == [
        "error: a cover of 8 x beta(6) vertices exceeds the bound of 1,000,000"
    ]


def check_three_vertices(tmp_path, edges, colors):
    """``check`` argv for a 3-vertex instance whose coloring c1 gives ``colors`` to ``edges``."""
    path = tmp_path / "instance.json"
    dump_json({"format": "kempe-instance/1", "vertices": 3, "edges": edges, "colorings": {"c1": colors}}, path)
    return ["check", "--input", str(path), "--coloring", "c1"]


def verify_k33_witness(tmp_path, edit, instance=K33):
    """``verify`` argv for the k33 witness after ``edit`` changed its document."""
    out = tmp_path / "w.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["witness", "--input", K33, "--from", "c1", "--to", "c2", "--out", str(out)]) == 0
    doc = load_json(out)
    edit(doc)
    dump_json(doc, out)
    return ["verify", "--input", instance, "--witness", str(out)]


def verify_golden_d3_with_crossed_rows(tmp_path):
    """``verify`` argv for the golden d=3 witness with the second ends of cover rows 8 and 10
    swapped: two rows of one color that no switch touches, so only the incidence check sees it."""
    instance, witness = tmp_path / "d3.json", tmp_path / "d3-crossed.json"
    g, c1, c2 = random_colored_instance(5, 3, 4)
    dump_json(instance_to_json(g, {"c1": c1, "c2": c2}), instance)
    doc = load_json(GOLDEN_D3)
    rows = doc["cover"]["edges"]
    assert (rows[8][0], rows[10][0]) == (8, 10)
    rows[8][2], rows[10][2] = rows[10][2], rows[8][2]
    dump_json(doc, witness)
    return ["verify", "--input", str(instance), "--witness", str(witness)]


def verify_golden_k33_with_rows(tmp_path, edit):
    """``verify`` argv for the golden k33 witness (m = 2) after ``edit`` changed its cover rows and
    sequence. Rows 8 and 9 are the two lifts of base edge 4 = (1, 4): [8, 2, 8] and [9, 3, 9]."""
    doc = load_json(GOLDEN_K33)
    assert doc["cover"]["edges"][8:10] == [[8, 2, 8], [9, 3, 9]]
    edit(doc["cover"]["edges"], doc["sequence"])
    witness = tmp_path / "k33-rows.json"
    dump_json(doc, witness)
    return ["verify", "--input", K33, "--witness", str(witness)]


def swap_fiber_rows(rows, sequence):
    """Rows 8 and 9 trade their ends and every switch renames 8 <-> 9: the same cover graph and
    switches, with row 8 leaving base vertex 1 on sheet 1 against the sheet rule."""
    rows[8][1:], rows[9][1:] = rows[9][1:], rows[8][1:]
    for entry in sequence:
        entry["edges"] = sorted({8: 9, 9: 8}.get(f, f) for f in entry["edges"])


def reverse_row_9(rows, sequence):
    """Row 9 stored the other way round, [9, 9, 3]: the same edge, with its ends in the wrong order."""
    rows[9][1:] = rows[9][:0:-1]


def witness_failing_self_verification(tmp_path, monkeypatch):
    monkeypatch.setattr(kempe_covers.cli, "verify_witness", lambda w: kempe_covers.Verdict(False, "forced"))
    return ["witness", "--input", K33, "--from", "c1", "--to", "c2"]


#: each content violation a command prints itself: argv from (tmp_path, monkeypatch), and the line's start
CONTENT_VIOLATIONS = {
    "not regular": (
        lambda tmp, _: check_three_vertices(tmp, [[0, 1], [1, 2]], [1, 2]),
        "error: graph is not regular",
    ),
    "illegal": (
        lambda tmp, _: check_three_vertices(tmp, [[0, 1], [1, 2], [2, 0]], [1, 2, 1]),
        "error: coloring 'c1' is not a legal 2-edge-coloring",
    ),
    "self-verification": (
        witness_failing_self_verification,
        "error: internal: witness failed self-verification: forced",
    ),
    "base differs": (
        lambda tmp, _: verify_k33_witness(tmp, lambda doc: None, instance=THETA),
        "error: witness base graph differs from the instance graph",
    ),
    "coloring differs": (
        lambda tmp, _: verify_k33_witness(tmp, lambda doc: doc["names"].update({"from": "c2"})),
        "error: witness 'from' coloring does not match instance coloring 'c2'",
    ),
    "replay fails": (
        lambda tmp, _: verify_k33_witness(tmp, lambda doc: doc["sequence"].pop()),
        "error: witness verification failed: replay mismatch at cover edge",
    ),
    "crossed rows": (
        lambda tmp, _: verify_golden_d3_with_crossed_rows(tmp),
        "error: witness verification failed: edge 8 does not preserve incidence",
    ),
    "fiber swap": (
        lambda tmp, _: verify_golden_k33_with_rows(tmp, swap_fiber_rows),
        "error: witness verification failed: edge 8 does not preserve incidence",
    ),
    "reversed row": (
        lambda tmp, _: verify_golden_k33_with_rows(tmp, reverse_row_9),
        "error: witness verification failed: edge 9 does not preserve incidence",
    ),
}


@pytest.mark.parametrize("case", sorted(CONTENT_VIOLATIONS))
def test_a_content_violation_is_one_error_line(tmp_path, capsys, monkeypatch, case):
    argv, line = CONTENT_VIOLATIONS[case]
    argv = argv(tmp_path, monkeypatch)
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [err] = captured.err.splitlines()
    assert err.startswith(line)


def check_k33_as(tmp_path, document_format):
    """``check`` argv for the bundled k33 instance under another ``format`` string."""
    path = tmp_path / "k33.json"
    dump_json({**load_json(K33), "format": document_format}, path)
    return ["check", "--input", str(path), "--coloring", "c1"]


def with_a_long_integer(tmp_path, source, key):
    """The path of the document at ``source``, written canonically with 5,000 more digits in its first ``key``."""
    path = tmp_path / "long.json"
    path.write_text(canonical_json(load_json(source)).replace(f'"{key}":', f'"{key}":' + "1" * 5000, 1))
    return str(path)


#: each malformed document a command refuses itself: argv from tmp_path, and the whole line, {tmp} standing
#: for tmp_path
MALFORMED_DOCUMENTS = {
    "long integer in an instance": (
        lambda tmp: ["check", "--input", with_a_long_integer(tmp, K33, "vertices"), "--coloring", "c1"],
        "error: {tmp}/long.json: an integer has more than 4,300 digits",
    ),
    "long integer in a witness": (
        lambda tmp: ["verify", "--input", K33, "--witness", with_a_long_integer(tmp, GOLDEN_K33, "degree")],
        "error: {tmp}/long.json: an integer has more than 4,300 digits",
    ),
    "instance format": (
        lambda tmp: check_k33_as(tmp, "kempe-instance/2"),
        "error: not a kempe-instance/1 document",
    ),
    "three-color switch": (
        lambda tmp: verify_k33_witness(tmp, lambda doc: doc["sequence"][0]["colors"].append(3)),
        "error: switch needs exactly two colors",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DOCUMENTS))
def test_a_malformed_document_is_one_error_line(tmp_path, capsys, case):
    argv, line = MALFORMED_DOCUMENTS[case]
    argv = argv(tmp_path)
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [line.format(tmp=tmp_path)]


def test_all_lists_every_public_binding():
    bound = {
        name for name, value in vars(kempe_covers).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(kempe_covers.__all__) == bound
    assert len(kempe_covers.__all__) == len(bound)


@pytest.fixture(scope="module")
def fuzz_witness(tmp_path_factory):
    """A directory for mutated witnesses, and the k33 witness document."""
    directory = tmp_path_factory.mktemp("fuzz")
    out = directory / "k33.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["witness", "--input", K33, "--from", "c1", "--to", "c2", "--out", str(out)]) == 0
    return directory, load_json(out)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_verify_of_a_mutated_witness_exits_with_one_line(fuzz_witness, data):
    directory, doc = fuzz_witness
    path = directory / "mutated.json"
    dump_json(data.draw(mutated_documents(doc)), path)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["verify", "--input", K33, "--witness", str(path)])
    assert code in (0, 1, 2)
    assert len(err.getvalue().splitlines()) == (0 if code == 0 else 1), err.getvalue()


#: the integer rows of each witness block; the parser checks each block's types in one pass
INTEGER_ROWS = {
    "base.edges": lambda doc: doc["base"]["edges"],
    "cover.edges": lambda doc: doc["cover"]["edges"],
    "start.colors": lambda doc: doc["start"]["colors"],
    "goal.colors": lambda doc: doc["goal"]["colors"],
    "vertex_map": lambda doc: [doc["vertex_map"]],
    "edge_map": lambda doc: doc["edge_map"],
    "switch colors": lambda doc: [entry["colors"] for entry in doc["sequence"]],
    "switch edges": lambda doc: [entry["edges"] for entry in doc["sequence"]],
}


def verify_with_one_integer_as(fuzz_witness, block, kind):
    """Exit code and stderr lines of ``verify`` once the block's first 0 or 1 is ``kind(value)``."""
    directory, doc = fuzz_witness
    doc = copy.deepcopy(doc)
    row = next(row for row in INTEGER_ROWS[block](doc) if {0, 1} & set(row))
    k = next(k for k, value in enumerate(row) if value in (0, 1))
    row[k] = kind(row[k])
    path = directory / "one-integer.json"
    dump_json(doc, path)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["verify", "--input", K33, "--witness", str(path)])
    return code, err.getvalue().splitlines()


@pytest.mark.parametrize("block", sorted(INTEGER_ROWS))
def test_verify_accepts_integral_floats_in_every_block(fuzz_witness, block):
    assert verify_with_one_integer_as(fuzz_witness, block, float) == (0, [])


@pytest.mark.parametrize("kind", [bool, str], ids=["bool", "string"])
@pytest.mark.parametrize("block", sorted(INTEGER_ROWS))
def test_verify_rejects_bools_and_strings_in_every_block(fuzz_witness, block, kind):
    code, lines = verify_with_one_integer_as(fuzz_witness, block, kind)
    assert code == 1
    [line] = lines
    assert line.startswith("error: ") and "must be an integer" in line, line


@pytest.fixture(scope="module")
def fuzz_instance(tmp_path_factory):
    """A path for mutated instances, and the k33 instance document."""
    return tmp_path_factory.mktemp("fuzz-instance") / "mutated.json", load_json(K33)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_commands_on_a_mutated_instance_exit_with_one_line(fuzz_instance, data):
    path, doc = fuzz_instance
    dump_json(data.draw(mutated_documents(doc)), path)
    for command in (
        ["check", "--input", str(path), "--coloring", "c1"],
        ["classes", "--input", str(path)],
        ["witness", "--input", str(path), "--from", "c1", "--to", "c2"],
    ):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(command)
        lines = err.getvalue().splitlines()
        assert code in (0, 1, 2)
        assert len(lines) == (0 if code == 0 else 1), err.getvalue()
        assert all(line.startswith("error: ") for line in lines), err.getvalue()
