"""JSON instance and witness documents.

Instances are small human-diffable JSON files: an edge list (edge id =
list index) and named colorings (color list indexed by edge id). Witness
documents embed the full cover graph with explicit edge ids and both maps.
Every cover is numbered sheet by sheet (see ``covering``), so a format-1
document's maps are x // degree: vertex x and edge f lie over x // degree
and f // degree. The parser builds the map through the public
``CoveringMap`` constructor, so a document numbered any other way, such as
a witness written before covers were numbered so, is refused with
CoveringError (exit 2 from the CLI). The verifier checks the rest of the
cover, and round-trips are exact. The witness parser reads each row of a
graph, coloring or edge map block once, in one loop that checks each
entry's type and the row's id while it splits the columns. Only a block
that is not rows of ints with ids 0..E-1 in order falls back to a bulk
type check and is keyed by id; a block whose ids skip one is refused,
naming the first gap. Every document is written in one canonical form.
"""

from __future__ import annotations

import json
from itertools import chain, count
from operator import itemgetter
from typing import Mapping

from .coloring import BichromaticCycle, EdgeColoring
from .covering import CoveringMap
from .equivalence import EquivalenceWitness
from .errors import (
    CoveringError,
    FormatError,
    KempeCoversError,
    RegularityError,
)
from .graph import Multigraph, _check_ends, _in_id_order, is_regular

INSTANCE_FORMAT = "kempe-instance/1"
WITNESS_FORMAT = "kempe-witness/1"

# -- instances ------------------------------------------------------------


def instance_to_json(
    g: Multigraph,
    colorings: Mapping[str, EdgeColoring],
    metadata: Mapping | None = None,
) -> dict:
    """Instance document: an edge's id is its index in the edge list."""
    ids = g.edge_ids()
    doc = {
        "format": INSTANCE_FORMAT,
        "vertices": g.vertex_count,
        "edges": list(map(list, zip(g._tails, g._heads))),
        "colorings": {
            name: [colorings[name][e] for e in ids] for name in sorted(colorings)
        },
    }
    if metadata:
        doc["metadata"] = dict(metadata)
    return doc


def _strict_int(value, what: str) -> int:
    """A JSON integer. Integral floats pass; bools, strings and fractions do not."""
    if type(value) is int:
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    shown = json.dumps(value, default=repr)
    raise FormatError(f"{what} must be an integer, got {shown[:40]}")


def _strict_int_lists(rows: list, what: str) -> list:
    """Rows of JSON integers, as :func:`_strict_int` takes them: type-checked
    in one bulk pass, and returned as they are unless a value is not an int.
    The vertex map and the sequence always take it; the graph, coloring and
    edge map blocks only when their in-order loop gives up."""
    if set(map(type, chain.from_iterable(rows))) <= {int}:
        return rows
    return [[_strict_int(v, what) for v in values] for values in rows]


def instance_from_json(doc) -> tuple[Multigraph, dict[str, EdgeColoring]]:
    """Parse an instance document. Structural problems raise FormatError;
    color-range violations raise ColoringError (a content violation)."""
    if not isinstance(doc, dict) or doc.get("format") != INSTANCE_FORMAT:
        raise FormatError(f"not a {INSTANCE_FORMAT} document")
    try:
        raw_vertices = doc["vertices"]
        raw_edges = list(doc["edges"])
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed instance: {exc}") from exc
    vertex_count = _strict_int(raw_vertices, "vertex count")
    pairs = []
    for k, pair in enumerate(raw_edges):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise FormatError(f"edge {k} is not a pair")
        pairs.append(tuple(_strict_int(v, f"edge {k} endpoint") for v in pair))
    try:
        g = Multigraph.from_edges(vertex_count, pairs)
    except KempeCoversError as exc:
        raise FormatError(f"bad edge list: {exc}") from exc

    raw_colorings = doc.get("colorings", {})
    if not isinstance(raw_colorings, dict):
        raise FormatError("colorings must be an object")
    color_lists = {}
    for name, colors in raw_colorings.items():
        if not isinstance(colors, list) or len(colors) != len(pairs):
            raise FormatError(f"coloring {name!r} must list one color per edge")
        color_lists[name] = [_strict_int(col, f"coloring {name!r} color") for col in colors]
    degree = doc.get("degree")
    if degree is not None:
        degree = _strict_int(degree, "degree")
    else:
        degree = is_regular(g)
    if degree is None:
        degree = max((col for colors in color_lists.values() for col in colors), default=1)
    colorings = {
        name: EdgeColoring(degree, colors) for name, colors in color_lists.items()
    }
    return g, colorings


# -- witnesses -------------------------------------------------------------


def _graph_to_json(g: Multigraph) -> dict:
    return {
        "vertices": g.vertex_count,
        "edges": list(map(list, zip(count(), g._tails, g._heads))),
    }


def _require_unique(rows: list[list[int]], table: dict, block: str) -> None:
    """Raise unless ``table``, read from ``rows`` keyed by their first entry, kept every row."""
    if len(table) != len(rows):
        seen = set()
        for row in rows:
            if row[0] in seen:
                raise FormatError(f"{block} lists id {row[0]} twice")
            seen.add(row[0])


def _images_in_order(rows) -> list[int] | None:
    """The second entries of edge map or coloring rows that list ids 0..E-1 in order as int pairs,
    each entry type-checked in this one loop. None at the first row that is no such pair or is out
    of order: the block then falls back to :func:`_strict_int_lists` and is keyed by id."""
    images = []
    try:
        for e, (f, image) in enumerate(rows):
            if type(f) is not int or type(image) is not int or f != e:
                return None
            images.append(image)
    except (TypeError, ValueError):  # a row of another width, or rows that are no sequence
        return None
    return images


def _graph_in_order(vertices: int, rows) -> Multigraph | None:
    """The graph of rows that list ids 0..E-1 in order as int triples, read in one loop that
    splits the columns and notes a row out of range or a loop for :func:`_check_ends` to name.
    None at the first row that is no such triple or is out of order, as for :func:`_images_in_order`."""
    tails, heads, faulty = [], [], vertices < 0
    try:
        for e, (f, u, w) in enumerate(rows):
            if type(f) is not int or type(u) is not int or type(w) is not int or f != e:
                return None
            tails.append(u)
            heads.append(w)
            if not (0 <= u < vertices and 0 <= w < vertices) or u == w:
                faulty = True
    except (TypeError, ValueError):  # a row of another width, or rows that are no sequence
        return None
    if faulty:
        _check_ends(vertices, tails, heads)
    return Multigraph._adopt(vertices, tails, heads)


def _graph_from_json(doc, block: str) -> Multigraph:
    try:
        rows = doc["edges"]
        vertices = doc.get("vertices")
        graph = _graph_in_order(vertices, rows) if type(vertices) is int else None
        if graph is not None:
            return graph
        # any other block is type-checked in bulk and keyed by id, and the graph names the first id missing
        rows = _strict_int_lists(rows, "graph edge entry")
        pairs = {e: (u, v) for e, u, v in rows}
        graph = Multigraph(_strict_int(doc["vertices"], "vertex count"), pairs)
    except (KeyError, TypeError, ValueError, KempeCoversError) as exc:
        raise FormatError(f"malformed graph block: {exc}") from exc
    _require_unique(rows, pairs, f"{block}.edges")
    return graph


def _coloring_to_json(c: EdgeColoring) -> dict:
    return {"degree": c.degree, "colors": list(map(list, c.items()))}


def _coloring_from_json(doc, block: str) -> EdgeColoring:
    try:
        rows = doc["colors"]
        degree = doc.get("degree")
        colors = _images_in_order(rows) if type(degree) is int and degree >= 1 else None
        if colors is not None and (not colors or 1 <= min(colors) and max(colors) <= degree):
            return EdgeColoring._adopt(degree, colors)
        # any other block is type-checked in bulk and keyed by id, and the constructor names its first fault
        rows = _strict_int_lists(rows, "coloring entry")
        colors = dict(rows)
        # an id missing from the rows makes a malformed block (ValueError), not a faulty coloring
        coloring = EdgeColoring(_strict_int(doc["degree"], "degree"), _in_id_order(colors, ValueError))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed coloring block: {exc}") from exc
    _require_unique(rows, colors, f"{block}.colors")
    return coloring


def witness_to_json(w: EquivalenceWitness, names: tuple[str, str] | None = None) -> dict:
    """Witness document; its ``edge_map`` rows are (id, image) tuples, which JSON writes as arrays."""
    m, cover = w.cover.degree, w.cover.source
    doc = {
        "format": WITNESS_FORMAT,
        "degree": m,
        "base": _graph_to_json(w.graph),
        "start": _coloring_to_json(w.start),
        "goal": _coloring_to_json(w.goal),
        "cover": _graph_to_json(cover),
        "vertex_map": [x // m for x in range(cover.vertex_count)],
        "edge_map": [(f, f // m) for f in range(cover.edge_count)],
        "sequence": [
            {"colors": list(cyc.colors), "edges": list(cyc.edge_ids)} for cyc in w.switches
        ],
    }
    if names is not None:
        doc["names"] = {"from": names[0], "to": names[1]}
    return doc


def witness_from_json(doc) -> tuple[EquivalenceWitness, dict | None]:
    """Parse a witness document; returns the witness and its optional names block."""
    if not isinstance(doc, dict) or doc.get("format") != WITNESS_FORMAT:
        raise FormatError(f"not a {WITNESS_FORMAT} document")
    base_doc = doc.get("base", {})
    edges = base_doc.get("edges") if isinstance(base_doc, dict) else None
    if isinstance(edges, list):  # before allocating: a regular base of degree d >= 1 has d|V| = 2|E|
        vertices = _strict_int(base_doc.get("vertices"), "base vertex count")
        if vertices > 2 * len(edges):
            raise RegularityError(
                f"base has {vertices} vertices and {len(edges)} edges, more than a regular base can have"
            )
    base = _graph_from_json(base_doc, "base")
    cover_doc = doc.get("cover", {})
    edges = cover_doc.get("edges") if isinstance(cover_doc, dict) else None
    if not isinstance(edges, list):
        raise FormatError("malformed graph block: cover edges must be a list")
    # before allocating: a degree-m cover has m times the base's size, and m is the witness degree
    sheets = len(edges) // max(base.edge_count, 1)
    vertices = _strict_int(cover_doc.get("vertices"), "cover vertex count")
    if len(edges) != sheets * base.edge_count or vertices != sheets * base.vertex_count:
        raise CoveringError(f"cover has {vertices} vertices and {len(edges)} edges, not m times the base's")
    degree = _strict_int(doc.get("degree"), "witness degree")
    if degree != sheets:
        raise CoveringError(f"witness degree {degree} differs from its cover's {sheets} sheets")
    cover_graph = _graph_from_json(cover_doc, "cover")
    start = _coloring_from_json(doc.get("start", {}), "start")
    goal = _coloring_from_json(doc.get("goal", {}), "goal")
    try:
        [vertex_map] = _strict_int_lists([doc["vertex_map"]], "vertex map entry")
        map_rows = doc["edge_map"]
        edge_map = _images_in_order(map_rows)
        if edge_map is None:
            map_rows = _strict_int_lists(map_rows, "edge map entry")
            edge_map = dict(map_rows)
        entries = list(doc.get("sequence", []))
        # iter() tries each row as it is looked up, so the first bad entry raises, whatever its fault
        pairs = _strict_int_lists(list(filter(iter, map(itemgetter("colors"), entries))), "switch color")
        edge_lists = _strict_int_lists(list(filter(iter, map(itemgetter("edges"), entries))), "switch edge id")
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed witness: {exc}") from exc
    _require_unique(map_rows, edge_map, "edge_map")
    names = doc.get("names")
    if "names" in doc and not (
        isinstance(names, dict) and isinstance(names.get("from"), str) and isinstance(names.get("to"), str)
    ):
        raise FormatError("names block must be an object with string 'from' and 'to' entries")
    cover = CoveringMap(cover_graph, base, vertex_map, edge_map)
    if set(map(len, pairs)) - {2}:
        raise FormatError("switch needs exactly two colors")
    # The replay checks that each edge set is one whole two-color component
    # of distinct edges, and names the sequence position of a switch that is not.
    switches = [
        BichromaticCycle((a, b) if a < b else (b, a), tuple(sorted(edges)))
        for (a, b), edges in zip(pairs, edge_lists)
    ]
    witness = EquivalenceWitness(base, start, goal, cover, tuple(switches))
    return witness, names


# -- files ------------------------------------------------------------------


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise FormatError(f"{path}: JSON nested too deeply to parse") from None
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
#: list entries per encoder call. A document encoded whole holds about twice its text in memory at once;
#: slices of 4,096 entries still raised the writer's peak RSS by 1 MiB at d=5 n=6, slices of 256 by 0.1 MiB
_PIECE = 256


def _canonical_pieces(value):
    """``json.dumps(value, sort_keys=True, separators=(",", ":"))`` in pieces, each from the C encoder:
    objects entry by entry, a list of objects (a switch sequence) object by object, and any other long list
    a slice at a time. Every key is a string, as in each document the package writes."""
    if isinstance(value, dict) and value:
        opening = "{"
        for key in sorted(value):
            yield opening + _encode(key) + ":"
            yield from _canonical_pieces(value[key])
            opening = ","
        yield "}"
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        opening = "["
        for entry in value:
            yield opening
            yield from _canonical_pieces(entry)
            opening = ","
        yield "]"
    elif isinstance(value, list) and len(value) > _PIECE:
        for i in range(0, len(value), _PIECE):
            yield ("[" if i == 0 else ",") + _encode(value[i:i + _PIECE])[1:-1]
        yield "]"
    else:
        yield _encode(value)


def canonical_json(doc) -> str:
    """The one written form of a document: sorted keys, no spaces, a trailing newline."""
    return "".join(_canonical_pieces(doc)) + "\n"


def dump_json(doc: dict, path) -> None:
    """Write ``doc`` as :func:`canonical_json`, piece by piece."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_canonical_pieces(doc))
        fh.write("\n")
