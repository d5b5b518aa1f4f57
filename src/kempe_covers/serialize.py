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
from typing import Iterable, Mapping

from .coloring import BichromaticCycle, EdgeColoring, WorkingColoring, _cycle_decomposition
from .covering import CoveringMap
from .equivalence import EquivalenceWitness
from .errors import (
    CoveringError,
    FormatError,
    IllegalColoringError,
    KempeCoversError,
    RegularityError,
    StaleSwitchError,
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
    c: EdgeColoring | WorkingColoring,
    highlight: BichromaticCycle | Iterable[EdgeId] | None = None,
) -> str:
    """Deterministic DOT text for a colored graph; highlighted edges are bold."""
    if isinstance(highlight, BichromaticCycle):
        bold = set(highlight.edges)
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
        "edges": [[e, *g.endpoints(e)] for e in g.edge_ids()],
    }


def _graph_from_json(doc) -> Multigraph:
    try:
        pairs = {
            _strict_int(e, "edge id"): (_strict_int(u, "endpoint"), _strict_int(v, "endpoint"))
            for e, u, v in doc["edges"]
        }
        return Multigraph(_strict_int(doc["vertices"], "vertex count"), pairs)
    except (KeyError, TypeError, ValueError, KempeCoversError) as exc:
        raise FormatError(f"malformed graph block: {exc}") from exc


def _coloring_to_json(c: EdgeColoring) -> dict:
    return {"degree": c.degree, "colors": sorted([e, col] for e, col in c.items())}


def _coloring_from_json(doc) -> EdgeColoring:
    try:
        colors = {_strict_int(e, "edge id"): _strict_int(col, "color") for e, col in doc["colors"]}
        return EdgeColoring(_strict_int(doc["degree"], "degree"), colors)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed coloring block: {exc}") from exc


def witness_to_json(w: EquivalenceWitness, names: tuple[str, str] | None = None) -> dict:
    doc = {
        "format": WITNESS_FORMAT,
        "degree": w.cover.degree,
        "base": _graph_to_json(w.graph),
        "start": _coloring_to_json(w.start),
        "goal": _coloring_to_json(w.goal),
        "cover": _graph_to_json(w.cover.source),
        "vertex_map": list(w.cover.vertex_map),
        "edge_map": sorted([e, img] for e, img in w.cover.edge_map.items()),
        "sequence": [
            {"colors": list(cyc.colors), "edges": sorted(cyc.edges)} for cyc in w.switches
        ],
    }
    if names is not None:
        doc["names"] = {"from": names[0], "to": names[1]}
    return doc


def switch_from_edges(g: Multigraph, colors: tuple[int, int], edges: Iterable[EdgeId]) -> BichromaticCycle:
    """Rebuild the canonical closed walk of a switch from its edge set.

    Broken cycle structure is a content violation (tampering), not a parse
    error, so it raises StaleSwitchError.
    """
    edges = sorted(edges)
    if not edges:
        raise StaleSwitchError("switch with empty edge set")
    if len(set(edges)) != len(edges):
        raise StaleSwitchError("switch lists a repeated edge")
    for e in edges:
        if not g.has_edge(e):
            raise StaleSwitchError(f"switch references unknown edge {e}")
    try:
        walks = _cycle_decomposition(g, edges)
    except IllegalColoringError as exc:
        raise StaleSwitchError(f"switch edges do not form a cycle: {exc}") from exc
    if len(walks) != 1:
        raise StaleSwitchError("switch edges do not form a single cycle")
    lo, hi = sorted(colors)
    return BichromaticCycle((lo, hi), walks[0])


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
    base = _graph_from_json(base_doc)
    cover_doc = doc.get("cover", {})
    edges = cover_doc.get("edges") if isinstance(cover_doc, dict) else None
    if isinstance(edges, list):  # before allocating: a degree-m cover has m times the base's size
        sheets = len(edges) // max(base.edge_count, 1)
        vertices = _strict_int(cover_doc.get("vertices"), "cover vertex count")
        if len(edges) != sheets * base.edge_count or vertices != sheets * base.vertex_count:
            raise CoveringError(f"cover has {vertices} vertices and {len(edges)} edges, not m times the base's")
    cover_graph = _graph_from_json(cover_doc)
    start = _coloring_from_json(doc.get("start", {}))
    goal = _coloring_from_json(doc.get("goal", {}))
    try:
        vertex_map = [_strict_int(v, "vertex map entry") for v in doc["vertex_map"]]
        edge_map = {_strict_int(e, "edge id"): _strict_int(img, "edge image") for e, img in doc["edge_map"]}
        raw_sequence = list(doc.get("sequence", []))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed witness: {exc}") from exc
    cover = CoveringMap(cover_graph, base, vertex_map, edge_map)
    switches = []
    for entry in raw_sequence:
        try:
            colors = tuple(_strict_int(c, "switch color") for c in entry["colors"])
            edges = [_strict_int(e, "switch edge id") for e in entry["edges"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"malformed switch entry: {exc}") from exc
        if len(colors) != 2:
            raise FormatError("switch needs exactly two colors")
        switches.append(switch_from_edges(cover_graph, colors, edges))
    witness = EquivalenceWitness(base, start, goal, cover, tuple(switches))
    return witness, doc.get("names")


# -- files ------------------------------------------------------------------


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def dump_json(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
