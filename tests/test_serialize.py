"""The witness parser against a frozen reference, and the parser's hands off its input.

The reference below is ``witness_from_json`` as it stood when every block
was copied row by row before its integer check, the switch loop sorted
those copies in place, and ``Multigraph`` rebuilt its table edge by edge,
with one change since: a graph or coloring block whose ids are not
0..E-1 is refused, naming the first missing id, before any row is checked.
The package's parser must return exactly what it returns: an equal witness
whose graph tables keep the same id order, or an exception of the same
class with the same message.
"""

import copy
import json
from itertools import chain
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from kempe_covers import (
    BichromaticCycle,
    CoveringMap,
    EdgeColoring,
    EquivalenceWitness,
    Multigraph,
    kempe_cover_witness,
    random_colored_instance,
    serialize,
    spanning_subgraph,
)
from kempe_covers.errors import (
    CoveringError,
    FormatError,
    GraphStructureError,
    KempeCoversError,
    LoopEdgeError,
    RegularityError,
    UnknownVertexError,
)
from kempe_covers.serialize import (
    WITNESS_FORMAT,
    canonical_json,
    dump_json,
    instance_from_json,
    instance_to_json,
    witness_from_json,
    witness_to_json,
)

from conftest import FUZZ_VALUES, K33_C1, K33_C2, edge_table, make_k33, mutated_documents

# -- the frozen reference -----------------------------------------------------


def reference_graph(vertex_count, edges):
    """``Multigraph(vertex_count, edges)`` by the per-edge rebuild."""
    if vertex_count < 0:
        raise GraphStructureError(f"negative vertex count {vertex_count}")
    reference_dense_ids(edges, GraphStructureError)
    table = {}
    for eid in sorted(edges):
        u, v = edges[eid]
        if not (0 <= u < vertex_count):
            raise UnknownVertexError(f"edge {eid}: vertex {u} not in graph")
        if not (0 <= v < vertex_count):
            raise UnknownVertexError(f"edge {eid}: vertex {v} not in graph")
        if u == v:
            raise LoopEdgeError(f"edge {eid} would be a loop at vertex {u}")
        table[eid] = (u, v)
    return Multigraph._adopt(vertex_count, [u for u, _ in table.values()], [v for _, v in table.values()])


def reference_dense_ids(table, error):
    """Raise ``error`` naming the first missing id unless ``table``'s keys are 0..E-1."""
    missing = set(range(len(table))) - set(table)
    if missing:
        raise error(f"edge ids must be 0..{len(table) - 1}: {min(missing)} is missing")


def reference_strict_int(value, what):
    if type(value) is int:
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    shown = json.dumps(value, default=repr)
    raise FormatError(f"{what} must be an integer, got {shown[:40]}")


def reference_strict_int_lists(lists, what):
    lists = list(map(list, lists))
    if set(map(type, chain.from_iterable(lists))) <= {int}:
        return lists
    return [[reference_strict_int(v, what) for v in values] for values in lists]


def reference_require_unique(rows, table, block):
    if len(table) != len(rows):
        seen = set()
        for row in rows:
            if row[0] in seen:
                raise FormatError(f"{block} lists id {row[0]} twice")
            seen.add(row[0])


def reference_graph_from_json(doc, block):
    try:
        rows = reference_strict_int_lists(doc["edges"], "graph edge entry")
        pairs = {e: (u, v) for e, u, v in rows}
        graph = reference_graph(reference_strict_int(doc["vertices"], "vertex count"), pairs)
    except (KeyError, TypeError, ValueError, KempeCoversError) as exc:
        raise FormatError(f"malformed graph block: {exc}") from exc
    reference_require_unique(rows, pairs, f"{block}.edges")
    return graph


def reference_coloring_from_json(doc, block):
    try:
        rows = reference_strict_int_lists(doc["colors"], "coloring entry")
        colors = dict(rows)
        reference_dense_ids(colors, ValueError)
        coloring = EdgeColoring(reference_strict_int(doc["degree"], "degree"), colors)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed coloring block: {exc}") from exc
    reference_require_unique(rows, colors, f"{block}.colors")
    return coloring


def reference_witness_from_json(doc):
    if not isinstance(doc, dict) or doc.get("format") != WITNESS_FORMAT:
        raise FormatError(f"not a {WITNESS_FORMAT} document")
    base_doc = doc.get("base", {})
    edges = base_doc.get("edges") if isinstance(base_doc, dict) else None
    if isinstance(edges, list):
        vertices = reference_strict_int(base_doc.get("vertices"), "base vertex count")
        if vertices > 2 * len(edges):
            raise RegularityError(
                f"base has {vertices} vertices and {len(edges)} edges, more than a regular base can have"
            )
    base = reference_graph_from_json(base_doc, "base")
    cover_doc = doc.get("cover", {})
    edges = cover_doc.get("edges") if isinstance(cover_doc, dict) else None
    if not isinstance(edges, list):
        raise FormatError("malformed graph block: cover edges must be a list")
    sheets = len(edges) // max(base.edge_count, 1)
    vertices = reference_strict_int(cover_doc.get("vertices"), "cover vertex count")
    if len(edges) != sheets * base.edge_count or vertices != sheets * base.vertex_count:
        raise CoveringError(f"cover has {vertices} vertices and {len(edges)} edges, not m times the base's")
    degree = reference_strict_int(doc.get("degree"), "witness degree")
    if degree != sheets:
        raise CoveringError(f"witness degree {degree} differs from its cover's {sheets} sheets")
    cover_graph = reference_graph_from_json(cover_doc, "cover")
    start = reference_coloring_from_json(doc.get("start", {}), "start")
    goal = reference_coloring_from_json(doc.get("goal", {}), "goal")
    try:
        [vertex_map] = reference_strict_int_lists([doc["vertex_map"]], "vertex map entry")
        map_rows = reference_strict_int_lists(doc["edge_map"], "edge map entry")
        edge_map = dict(map_rows)
        entries = list(doc.get("sequence", []))
        pairs = reference_strict_int_lists(map(itemgetter("colors"), entries), "switch color")
        edge_lists = reference_strict_int_lists(map(itemgetter("edges"), entries), "switch edge id")
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed witness: {exc}") from exc
    reference_require_unique(map_rows, edge_map, "edge_map")
    names = doc.get("names")
    if "names" in doc and not (
        isinstance(names, dict) and isinstance(names.get("from"), str) and isinstance(names.get("to"), str)
    ):
        raise FormatError("names block must be an object with string 'from' and 'to' entries")
    cover = CoveringMap(cover_graph, base, vertex_map, edge_map)
    switches = []
    for pair, edges in zip(pairs, edge_lists):
        if len(pair) != 2:
            raise FormatError("switch needs exactly two colors")
        edges.sort()
        switches.append(BichromaticCycle((min(pair), max(pair)), tuple(edges)))
    witness = EquivalenceWitness(base, start, goal, cover, tuple(switches))
    return witness, names


# -- documents ------------------------------------------------------------------


def k33_document():
    g = make_k33()
    w = kempe_cover_witness(g, EdgeColoring(3, dict(enumerate(K33_C1))), EdgeColoring(3, dict(enumerate(K33_C2))))
    return witness_to_json(w, ("c1", "c2"))


def d4_document():
    return witness_to_json(kempe_cover_witness(*random_colored_instance(1, 4, 8)), ("c1", "c2"))


@pytest.fixture(scope="module")
def documents():
    """Round-tripped through JSON text, as a verifier reads them."""
    return {name: json.loads(json.dumps(make())) for name, make in [("k33", k33_document), ("d4", d4_document)]}


def outcome(parse, doc):
    """The parsed witness with its names and its graph tables in order, or the raised class and message."""
    try:
        w, names = parse(doc)
    except Exception as exc:  # the reference fixes the class as well as the message
        return type(exc), str(exc)
    return w, names, list(edge_table(w.graph).items()), list(edge_table(w.cover.source).items())


#: replacement values, plus integral floats, which the parser takes as the integers they equal
PARSER_VALUES = FUZZ_VALUES | st.integers(min_value=0, max_value=9).map(float)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_parser_matches_the_reference_on_a_mutated_witness(documents, data):
    doc = data.draw(mutated_documents(documents[data.draw(st.sampled_from(sorted(documents)))], PARSER_VALUES))
    untouched = copy.deepcopy(doc)
    assert outcome(witness_from_json, doc) == outcome(reference_witness_from_json, copy.deepcopy(doc))
    assert doc == untouched


@pytest.mark.parametrize("name", ["k33", "d4"])
def test_parser_leaves_an_unsorted_document_alone(documents, name):
    canonical = documents[name]
    doc = copy.deepcopy(canonical)
    doc["cover"]["edges"].reverse()
    doc["edge_map"].reverse()  # an even count of rows: none keeps its place
    for entry in doc["sequence"]:
        entry["edges"].reverse()
        entry["colors"].reverse()
    assert any(len(entry["edges"]) > 1 for entry in doc["sequence"])
    untouched = copy.deepcopy(doc)
    parsed = outcome(witness_from_json, doc)
    assert doc == untouched
    assert parsed == outcome(witness_from_json, canonical) == outcome(reference_witness_from_json, doc)
    assert [e for e, _ in parsed[3]] == sorted(e for e, _, _ in canonical["cover"]["edges"])


def two_faults(doc, name):
    """``doc`` with two faults, the first of them the one each parser must name."""
    sequence, rows = doc["sequence"], doc["cover"]["edges"]
    if name == "switch colors":  # not iterable, then missing
        sequence[0]["colors"] = 5
        del sequence[1]["colors"]
    elif name == "switch edges":  # not iterable, then missing
        sequence[0]["edges"] = None
        del sequence[1]["edges"]
    else:  # rows out of id order: a vertex out of range, then at a larger id a loop
        rows.reverse()
        rows[-3][1] = doc["cover"]["vertices"]
        rows[-5][2] = rows[-5][1]
    return doc


@pytest.mark.parametrize("name, message", [
    ("switch colors", "malformed witness: 'int' object is not iterable"),
    ("switch edges", "malformed witness: 'NoneType' object is not iterable"),
    ("cover rows", "malformed graph block: edge 2: vertex 96 not in graph"),
])
def test_parser_names_the_first_of_two_faults_as_the_reference_does(documents, name, message):
    doc = two_faults(copy.deepcopy(documents["d4"]), name)
    assert outcome(witness_from_json, doc) == outcome(reference_witness_from_json, doc) == (FormatError, message)


def block_fault(doc, name):
    """``doc`` with a fault in one block, or two faults where the name gives their order."""
    rows, vertices = doc["cover"]["edges"], doc["cover"]["vertices"]
    if name == "range before an id out of order":
        rows[2][1] = vertices
        rows[5][0], rows[6][0] = rows[6][0], rows[5][0]
    elif name == "tail at the vertex count":
        rows[2][1] = vertices
    elif name == "head at the vertex count":
        rows[2][2] = vertices
    elif name == "loop":
        rows[3][2] = rows[3][1]
    elif name == "range before a loop":
        rows[2][1] = -1
        rows[7][2] = rows[7][1]
    elif name == "two-wide row":
        rows[4].pop()
    elif name == "two-wide row after an id out of order":
        rows[1][0], rows[2][0] = rows[2][0], rows[1][0]
        rows[6].pop()
    elif name == "bool endpoint":
        rows[3][1] = True
    elif name == "negative vertex count":
        doc["base"]["vertices"] = -1
    else:  # a three-wide edge map row
        doc["edge_map"][3].append(0)
    return doc


# The message of each fault of the d4 document as the parser gave it before
# rows in id order got their one-loop check.
@pytest.mark.parametrize("name, message", [
    ("range before an id out of order", "malformed graph block: edge 2: vertex 96 not in graph"),
    ("tail at the vertex count", "malformed graph block: edge 2: vertex 96 not in graph"),
    ("head at the vertex count", "malformed graph block: edge 2: vertex 96 not in graph"),
    ("loop", "malformed graph block: edge 3 would be a loop at vertex 39"),
    ("range before a loop", "malformed graph block: edge 2: vertex -1 not in graph"),
    ("two-wide row", "malformed graph block: not enough values to unpack (expected 3, got 2)"),
    ("two-wide row after an id out of order", "malformed graph block: not enough values to unpack (expected 3, got 2)"),
    ("bool endpoint", "malformed graph block: graph edge entry must be an integer, got true"),
    ("negative vertex count", "malformed graph block: negative vertex count -1"),
    ("three-wide edge map row", "malformed witness: dictionary update sequence element #3 has length 3; 2 is required"),
])
def test_parser_names_each_fault_of_a_block_as_before(documents, name, message):
    doc = block_fault(copy.deepcopy(documents["d4"]), name)
    assert outcome(witness_from_json, doc) == outcome(reference_witness_from_json, doc) == (FormatError, message)


#: each kind of block that an in-order loop reads: where it sits, how the bulk pass names an entry in it,
#: and its row width (the id column, then the values)
IN_ORDER_BLOCKS = [
    (("base", "edges"), "malformed graph block: graph edge entry", 3),
    (("cover", "edges"), "malformed graph block: graph edge entry", 3),
    (("start", "colors"), "coloring entry", 2),
    (("goal", "colors"), "coloring entry", 2),
    (("edge_map",), "edge map entry", 2),
]


def entry_cases():
    for path, what, width in IN_ORDER_BLOCKS:
        for row in ("first", "middle", "last"):
            for column in range(width):
                yield pytest.param(path, what, row, column, id=f"{'.'.join(path)}-{row}-{column}")


@pytest.mark.parametrize("path, what, row, column", entry_cases())
def test_a_float_or_a_bool_in_an_in_order_row_reads_as_the_reference_reads_it(documents, path, what, row, column):
    canonical = documents["d4"]

    def with_entry(value):
        doc = copy.deepcopy(canonical)
        rows = doc[path[0]] if len(path) == 1 else doc[path[0]][path[1]]
        k = {"first": 0, "middle": len(rows) // 2, "last": len(rows) - 1}[row]
        rows[k][column] = value(rows[k][column])
        return doc

    # the entry as the float it equals: the same witness
    doc = with_entry(float)
    assert outcome(witness_from_json, doc) == outcome(reference_witness_from_json, doc)
    assert outcome(witness_from_json, doc) == outcome(witness_from_json, canonical)
    doc = with_entry(lambda _: 2.0)
    assert outcome(witness_from_json, doc) == outcome(reference_witness_from_json, doc)
    doc = with_entry(lambda _: True)
    assert outcome(witness_from_json, doc) == outcome(reference_witness_from_json, doc)
    assert outcome(witness_from_json, doc) == (FormatError, f"{what} must be an integer, got true")


def bool_cases():
    for path, what, width in IN_ORDER_BLOCKS:
        for column in range(width):
            yield pytest.param(path, what, column, id=f"{'.'.join(path)}-{column}")


@pytest.mark.parametrize("path, what, column", bool_cases())
def test_a_block_whose_every_id_or_value_is_a_bool_is_refused(path, what, column):
    # a 1-regular base of two edges is its own cover, so each block has the two ids 0 and 1, which compare
    # equal to false and true: every entry of one column turns bool, an id column still in id order
    g = Multigraph(4, [(0, 1), (2, 3)])
    c = EdgeColoring(1, {0: 1, 1: 1})
    doc = json.loads(json.dumps(witness_to_json(kempe_cover_witness(g, c, c))))
    rows = doc[path[0]] if len(path) == 1 else doc[path[0]][path[1]]
    for row in rows:
        row[column] = bool(row[column])
    shown = json.dumps(rows[0][column])
    assert outcome(witness_from_json, doc) == outcome(reference_witness_from_json, doc)
    assert outcome(witness_from_json, doc) == (FormatError, f"{what} must be an integer, got {shown}")


def reversed_matching_document():
    # degree 1, and each row's second end is the smaller, so a head 0 sits at the edge of the range check
    g = Multigraph(4, [(1, 0), (3, 2)])
    c = EdgeColoring(1, {0: 1, 1: 1})
    return json.loads(json.dumps(witness_to_json(kempe_cover_witness(g, c, c))))


def empty_document():
    # no vertex and no edge anywhere: each graph block is in order and in range, and the map check refuses it
    graph = {"vertices": 0, "edges": []}
    coloring = {"degree": 1, "colors": []}
    return {"format": WITNESS_FORMAT, "degree": 0, "base": graph, "cover": graph, "start": coloring,
            "goal": coloring, "vertex_map": [], "edge_map": [], "sequence": []}


@pytest.mark.parametrize("make", [reversed_matching_document, empty_document])
def test_a_sound_in_order_block_takes_neither_the_bulk_pass_nor_the_fault_search(monkeypatch, make):
    doc = make()
    bulk, ends = [], []
    for name, calls in (("_strict_int_lists", bulk), ("_check_ends", ends)):
        original = getattr(serialize, name)
        monkeypatch.setattr(serialize, name, lambda *args, _f=original, _c=calls: _c.append(args[-1]) or _f(*args))
    assert outcome(witness_from_json, doc) == outcome(reference_witness_from_json, doc)
    assert ends == []
    assert bulk == ["vertex map entry", "switch color", "switch edge id"]


PIECE = serialize._PIECE


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"empty": [], "none": {}, "text": ["\u00e9", "\n", ""], "flag": [True, None]},
        # long lists are encoded a slice at a time: just below, at and over one slice, and over two
        *({"rows": [(k, k // 2) for k in range(n)], "n": n} for n in (PIECE - 1, PIECE, PIECE + 1, 2 * PIECE + 1)),
        {"outer": {"inner": list(range(3 * PIECE)), "after": {"b": 1, "a": [[0, 1, 2]] * (PIECE + 1)}}},
        # a list of objects is written object by object, whatever its length
        {"sequence": [{"edges": list(range(3 * PIECE)), "colors": [1, 2]}, {}, {"edges": [], "colors": [2, 3]}, 7]},
        {"sequence": [{"edges": [k], "colors": [1, 2]} for k in range(PIECE + 1)]},
    ],
    ids=["empty", "small", "below-a-slice", "a-slice", "over-a-slice", "over-two-slices", "nested", "objects",
         "many-objects"],
)
def test_the_written_form_is_the_compact_sorted_dump(tmp_path, doc):
    expected = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    assert canonical_json(doc) == expected
    dump_json(doc, tmp_path / "doc.json")
    assert (tmp_path / "doc.json").read_bytes() == expected.encode()


def test_a_perfect_matching_base_round_trips():
    # a 1-regular base has twice as many vertices as edges, the most the base-size guard lets through
    g = Multigraph(4, [(0, 1), (2, 3)])
    c = EdgeColoring(1, {0: 1, 1: 1})
    w = kempe_cover_witness(g, c, c)
    assert witness_from_json(witness_to_json(w))[0] == w


@pytest.mark.parametrize("name, message", [
    ("other format", "not a kempe-instance/1 document"),
])
def test_an_instance_document_is_written_and_read_only_in_its_own_form(name, message):
    k33, c1 = make_k33(), EdgeColoring(3, dict(enumerate(K33_C1)))
    with pytest.raises(FormatError, match=f"^{message}$"):
        # a well-formed document under another format string
        instance_from_json({**instance_to_json(k33, {"c1": c1}), "format": "kempe-instance/2"})
    # a subgraph is numbered densely, so its edge ids are its positions on disk
    rest = [e for e in k33.edge_ids() if c1[e] != 1]
    doc = instance_to_json(spanning_subgraph(k33, rest), {})
    assert doc["edges"] == [list(k33.endpoints(e)) for e in rest]
    assert instance_from_json(doc)[0] == spanning_subgraph(k33, rest)
