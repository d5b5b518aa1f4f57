"""JSON instance and witness documents, plus DOT rendering.

Instances are small human-diffable JSON files: an edge list (edge id =
list index) and named colorings (color list indexed by edge id). Witness
documents embed the full cover graph with explicit edge ids, because covers
built by subgraph extension legitimately carry non-dense ids and round-trips
must be exact. DOT output renders a colored graph with an optional bold
cycle; it is never re-imported.
"""

from __future__ import annotations

import json
from itertools import chain
from operator import itemgetter
from typing import Iterable, Mapping

from .coloring import BichromaticCycle, EdgeColoring
from .covering import CoveringMap
from .equivalence import EquivalenceWitness
from .errors import (
    CoveringError,
    FormatError,
    KempeCoversError,
    RegularityError,
)
from .graph import EdgeId, Multigraph, is_regular

INSTANCE_FORMAT = "kempe-instance/1"
WITNESS_FORMAT = "kempe-witness/1"

#: colors 1..3 follow the blue/red/black convention; the rest are fixed names
DOT_PALETTE = (
    "blue",
    "red",
    "black",
    "forestgreen",
    "darkorange",
    "purple",
    "saddlebrown",
    "deepskyblue",
    "magenta",
    "goldenrod",
    "teal",
    "crimson",
)


def dot_color(color: int) -> str:
    """Palette lookup; colors beyond the named palette get a stable HSV string."""
    if 1 <= color <= len(DOT_PALETTE):
        return DOT_PALETTE[color - 1]
    hue = (color * 0.618033988749895) % 1.0
    return f"{hue:.4f} 0.600 0.600"


def dot_export(
    g: Multigraph,
    c: EdgeColoring,
    highlight: BichromaticCycle | Iterable[EdgeId] | None = None,
) -> str:
    """Deterministic DOT text for a colored graph; highlighted edges are bold."""
    if isinstance(highlight, BichromaticCycle):
        bold = set(highlight.edge_ids)
    elif highlight is None:
        bold = set()
    else:
        bold = set(highlight)
    lines = ["graph kempe {", "  node [shape=circle fontsize=10];"]
    for v in g.vertices():
        lines.append(f"  {v};")
    for e in g.edge_ids():
        u, w = g.endpoints(e)
        attrs = f'color="{dot_color(c[e])}"'
        if e in bold:
            attrs += " style=bold penwidth=2.5"
        lines.append(f"  {u} -- {w} [{attrs}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- instances ------------------------------------------------------------


def instance_to_json(
    g: Multigraph,
    colorings: Mapping[str, EdgeColoring],
    metadata: Mapping | None = None,
) -> dict:
    """Instance document; requires dense edge ids (the on-disk id is the index)."""
    ids = g.edge_ids()
    if ids != tuple(range(len(ids))):
        raise FormatError("instance serialization needs dense edge ids")
    doc = {
        "format": INSTANCE_FORMAT,
        "vertices": g.vertex_count,
        "edges": [list(g.endpoints(e)) for e in ids],
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


def _strict_int_lists(lists, what: str) -> list[list[int]]:
    """Lists of JSON integers, as :func:`_strict_int` takes them, type-checked in one bulk pass."""
    lists = list(map(list, lists))
    if set(map(type, chain.from_iterable(lists))) <= {int}:
        return lists
    return [[_strict_int(v, what) for v in values] for values in lists]


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
        name: EdgeColoring(degree, dict(enumerate(colors))) for name, colors in color_lists.items()
    }
    return g, colorings


# -- witnesses -------------------------------------------------------------


def _graph_to_json(g: Multigraph) -> dict:
    return {
        "vertices": g.vertex_count,
        "edges": [[e, u, w] for e, (u, w) in g._edges.items()],  # the table is in id order
    }


def _require_unique(rows: list[list[int]], table: dict, block: str) -> None:
    """Raise unless ``table``, read from ``rows`` keyed by their first entry, kept every row."""
    if len(table) != len(rows):
        seen = set()
        for row in rows:
            if row[0] in seen:
                raise FormatError(f"{block} lists id {row[0]} twice")
            seen.add(row[0])


def _graph_from_json(doc, block: str) -> Multigraph:
    try:
        rows = _strict_int_lists(doc["edges"], "graph edge entry")
        pairs = {e: (u, v) for e, u, v in rows}
        graph = Multigraph(_strict_int(doc["vertices"], "vertex count"), pairs)
    except (KeyError, TypeError, ValueError, KempeCoversError) as exc:
        raise FormatError(f"malformed graph block: {exc}") from exc
    _require_unique(rows, pairs, f"{block}.edges")
    return graph


def _coloring_to_json(c: EdgeColoring) -> dict:
    return {"degree": c.degree, "colors": sorted([e, col] for e, col in c.items())}


def _coloring_from_json(doc, block: str) -> EdgeColoring:
    try:
        rows = _strict_int_lists(doc["colors"], "coloring entry")
        colors = dict(rows)
        coloring = EdgeColoring(_strict_int(doc["degree"], "degree"), colors)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed coloring block: {exc}") from exc
    _require_unique(rows, colors, f"{block}.colors")
    return coloring


def witness_to_json(w: EquivalenceWitness, names: tuple[str, str] | None = None) -> dict:
    """Witness document; its ``edge_map`` rows are (id, image) tuples, which JSON writes as arrays."""
    doc = {
        "format": WITNESS_FORMAT,
        "degree": w.cover.degree,
        "base": _graph_to_json(w.graph),
        "start": _coloring_to_json(w.start),
        "goal": _coloring_to_json(w.goal),
        "cover": _graph_to_json(w.cover.source),
        "vertex_map": list(w.cover.vertex_map),
        "edge_map": sorted(w.cover._emap.items()),
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
        map_rows = _strict_int_lists(doc["edge_map"], "edge map entry")
        edge_map = dict(map_rows)
        entries = list(doc.get("sequence", []))
        pairs = _strict_int_lists(map(itemgetter("colors"), entries), "switch color")
        edge_lists = _strict_int_lists(map(itemgetter("edges"), entries), "switch edge id")
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed witness: {exc}") from exc
    _require_unique(map_rows, edge_map, "edge_map")
    names = doc.get("names")
    if "names" in doc and not (
        isinstance(names, dict) and isinstance(names.get("from"), str) and isinstance(names.get("to"), str)
    ):
        raise FormatError("names block must be an object with string 'from' and 'to' entries")
    cover = CoveringMap(cover_graph, base, vertex_map, edge_map)
    # The replay checks that each edge set is one whole two-color component
    # of distinct edges, and names the sequence position of a switch that is not.
    switches = []
    for pair, edges in zip(pairs, edge_lists):
        if len(pair) != 2:
            raise FormatError("switch needs exactly two colors")
        edges.sort()
        switches.append(BichromaticCycle((min(pair), max(pair)), tuple(edges)))
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


def dump_json(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
