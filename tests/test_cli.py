import contextlib
import copy
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
    Multigraph,
    apply_sequence,
    bichromatic_cycles,
    bundled_instance_path,
    dot_export,
    kempe_cover_witness,
    pullback_coloring,
    verify_witness,
)
from kempe_covers.cli import main
from kempe_covers.serialize import (
    dump_json,
    instance_from_json,
    instance_to_json,
    load_json,
    witness_from_json,
)

from conftest import make_k33

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
UNREADABLE_DOCUMENTS = {
    # the decoder recurses once per bracket
    "nested": b"[" * 100_000 + b"]" * 100_000,
    # a UTF-16 byte-order mark
    "not utf-8": b"\xff\xfe" + "{}".encode("utf-16-le"),
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


def test_witness_emit_dot(tmp_path):
    dots = tmp_path / "dots"
    assert main(["witness", "--input", K33, "--from", "c1", "--to", "c2",
                 "--emit-dot", str(dots)]) == 0
    names = sorted(p.name for p in dots.iterdir())
    assert "base_from.dot" in names and "cover_to.dot" in names
    assert any(n.startswith("cover_step_") for n in names)
    g, colorings = instance_from_json(load_json(K33))
    witness = kempe_cover_witness(g, colorings["c1"], colorings["c2"])
    cover, first = witness.cover, witness.switches[0]
    goal = pullback_coloring(cover, colorings["c2"])
    assert (dots / "cover_to.dot").read_text() == dot_export(cover.source, goal)
    step = (dots / "cover_step_000.dot").read_text()
    start = pullback_coloring(cover, colorings["c1"])
    assert step == dot_export(cover.source, start, highlight=first)
    assert step.count("style=bold") == len(first)


def test_verify_fresh_witness(tmp_path):
    out = tmp_path / "w.json"
    main(["witness", "--input", K33, "--from", "c1", "--to", "c2", "--out", str(out)])
    assert main(["verify", "--input", K33, "--witness", str(out)]) == 0


#: Every package function that ``verify`` runs on the golden k33 witness, as
#: module.name (comprehensions left out, so Python 3.10 and 3.11 agree). A
#: change that grows or shrinks the verify path edits this set on purpose.
VERIFY_PATH = {
    "cli._build_parser", "cli._cmd_verify", "cli._load_instance", "cli.main",
    "coloring.__eq__", "coloring.__init__", "coloring._adopt", "coloring._check_total",
    "coloring._replay", "coloring.common_degree", "coloring.degree", "coloring.is_legal",
    "covering.__bool__", "covering.__init__", "covering.degree", "covering.pullback_coloring",
    "covering.verify_covering",
    "equivalence._betas", "equivalence.verify_witness",
    "graph.__eq__", "graph.__init__", "graph._degrees", "graph.edge_count", "graph.from_edges",
    "graph.is_regular", "graph.vertex_count",
    "serialize._coloring_from_json", "serialize._graph_from_json", "serialize._require_unique",
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


def test_verify_tampered_sequence(tmp_path, capsys):
    out = tmp_path / "w.json"
    main(["witness", "--input", K33, "--from", "c1", "--to", "c2", "--out", str(out)])
    doc = load_json(out)
    doc["sequence"] = doc["sequence"][:-1]
    dump_json(doc, out)
    assert main(["verify", "--input", K33, "--witness", str(out)]) == 2
    assert "mismatch" in capsys.readouterr().err


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
    dump_json(instance_to_json(Multigraph.from_edges(2, [(0, 1)] * 12), {}), path)
    assert main(["classes", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: more than 1000 legal colorings"]


def test_gen_roundtrip(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert main(["gen", "--seed", "42", "--degree", "3", "--vertices", "8",
                 "--out", str(out)]) == 0
    g, colorings = instance_from_json(load_json(out))
    assert g.vertex_count == 8 and g.edge_count == 12
    assert set(colorings) == {"c1", "c2"}
    # witness the generated pair end to end
    assert main(["witness", "--input", str(out), "--from", "c1", "--to", "c2"]) == 0


def test_instance_roundtrip_exact():
    doc = load_json(K33)
    g, colorings = instance_from_json(doc)
    assert instance_to_json(g, colorings, metadata=doc.get("metadata")) == doc


def test_dot_export_deterministic_and_bold(k33, k33_pair):
    c1, _ = k33_pair
    text1 = dot_export(k33, c1)
    text2 = dot_export(k33, c1)
    assert text1 == text2
    assert "style=bold" not in text1
    bold = dot_export(k33, c1, highlight=[0, 4])
    assert bold.count("style=bold") == 2
    # blue/red/black palette for colors 1..3
    assert 'color="blue"' in text1 and 'color="red"' in text1 and 'color="black"' in text1


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


def test_all_lists_every_public_binding():
    bound = {
        name for name, value in vars(kempe_covers).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(kempe_covers.__all__) == bound
    assert len(kempe_covers.__all__) == len(bound)


def json_slots(node) -> list:
    """Every (container, key) pair inside a JSON value, depth first."""
    slots = []
    for key in list(node) if isinstance(node, dict) else range(len(node)):
        slots.append((node, key))
        if isinstance(node[key], (dict, list)):
            slots.extend(json_slots(node[key]))
    return slots


#: replacement values; integers stay at or below 10**6 so that no parse allocates much
FUZZ_VALUES = st.none() | st.booleans() | st.integers(min_value=0, max_value=9) | st.sampled_from(
    [-1, 10**6, 1.5, "x", [], {}]
)


@st.composite
def mutated_documents(draw, doc):
    """``doc`` after 1-3 mutations: a value replaced, a key deleted, or a list row duplicated."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        slots = json_slots(doc)
        kind = draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if kind == "delete":
            slots = [(parent, key) for parent, key in slots if isinstance(parent, dict)]
        elif kind == "duplicate":
            slots = [(parent, key) for parent, key in slots if isinstance(parent, list)]
        if not slots:
            continue
        parent, key = draw(st.sampled_from(slots))
        if kind == "replace":
            parent[key] = copy.deepcopy(draw(FUZZ_VALUES))
        elif kind == "delete":
            del parent[key]
        else:
            parent.insert(key, copy.deepcopy(parent[key]))
    return doc


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
