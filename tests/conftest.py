import copy
import sys
from collections import Counter

import pytest
from hypothesis import strategies as st

from kempe_covers import EdgeColoring, Multigraph, alignment, covering, equivalence, is_legal, verify_covering


def pytest_runtest_logreport(report):
    # the acceptance module prints its PASS lines itself; mirror failures
    if report.when == "call" and report.failed and "test_acceptance" in report.nodeid:
        print(f"\nACCEPTANCE FAIL: {report.nodeid}")

# frozen oracle output: the two Kempe class representatives of K3,3
# (lexicographically smallest coloring of each class)
K33_C1 = (1, 2, 3, 2, 3, 1, 3, 1, 2)
K33_C2 = (1, 2, 3, 3, 1, 2, 2, 3, 1)


def make_k33() -> Multigraph:
    """Complete bipartite graph on 3+3 vertices, edges in (left, right) order."""
    return Multigraph(6, [(i, j) for i in range(3) for j in range(3, 6)])


def make_theta() -> Multigraph:
    """Two vertices joined by three parallel edges."""
    return Multigraph(2, [(0, 1)] * 3)


def make_petersen() -> Multigraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Multigraph(10, outer + spokes + inner)


def make_cube() -> Multigraph:
    """3-cube; edge ids grouped by dimension (0-3 dim 0, 4-7 dim 1, 8-11 dim 2)."""
    pairs = []
    for dim in range(3):
        pairs.extend((v, v | (1 << dim)) for v in range(8) if not v & (1 << dim))
    return Multigraph(8, pairs)


def cube_dimension_coloring() -> EdgeColoring:
    return EdgeColoring(3, {e: e // 4 + 1 for e in range(12)})


def make_cycle(length: int) -> Multigraph:
    return Multigraph(length, [(i, (i + 1) % length) for i in range(length)])


def alternating_coloring(length: int) -> EdgeColoring:
    return EdgeColoring(2, {e: e % 2 + 1 for e in range(length)})


def edge_table(g: Multigraph) -> dict[int, tuple[int, int]]:
    """Edge id -> stored endpoint pair, read through the public queries."""
    return {e: g.endpoints(e) for e in g.edge_ids()}


def make_disjoint(*parts: Multigraph) -> Multigraph:
    """The parts side by side: each part's vertices follow the previous parts', and edges count up densely."""
    pairs, offset = [], 0
    for part in parts:
        pairs += [(u + offset, w + offset) for u, w in edge_table(part).values()]
        offset += part.vertex_count
    return Multigraph(offset, pairs)


def sheet_maps(p) -> tuple[list[int], dict[int, int]]:
    """The vertex and edge maps x // m of ``p``, in the form the public CoveringMap constructor takes."""
    m = p.degree
    return [x // m for x in range(p.source.vertex_count)], {f: f // m for f in edge_table(p.source)}


def rows_off_their_first_end_sheet(p) -> list[int]:
    """The cover rows e*m + k that do not start at u*m + k, for the base row e = (u, w) of ``p``."""
    m, base = p.degree, edge_table(p.target)
    return [f for f, (u, _) in edge_table(p.source).items() if u != base[f // m][0] * m + f % m]


def dart_lists(g: Multigraph) -> list[list[tuple[int, int]]]:
    """Per-vertex (edge id, endpoint slot) lists in edge id order, built from the edge table.

    The reference kernels walk these, so they stay independent of the package.
    """
    darts: list[list[tuple[int, int]]] = [[] for _ in range(g.vertex_count)]
    for e, ends in edge_table(g).items():
        for slot, v in enumerate(ends):
            darts[v].append((e, slot))
    return darts


@pytest.fixture
def k33():
    return make_k33()


@pytest.fixture
def k33_pair(k33):
    return (
        EdgeColoring(3, dict(enumerate(K33_C1))),
        EdgeColoring(3, dict(enumerate(K33_C2))),
    )


@pytest.fixture
def theta():
    return make_theta()


@pytest.fixture
def theta_coloring():
    return EdgeColoring(3, {0: 1, 1: 2, 2: 3})


@pytest.fixture
def petersen():
    return make_petersen()


@pytest.fixture
def cube():
    return make_cube()


def _checking_covers(fn, checked):
    def wrapped(*args, **kwargs):
        result = fn(*args, **kwargs)
        p, *rest = result if isinstance(result, tuple) else (result,)
        verdict = verify_covering(p)
        assert verdict, f"{fn.__name__} built a map that is not a covering: {verdict.reason}"
        # a coloring built with the cover must be legal; a switch sequence is left to verify_witness
        colorings = [c for c in rest if isinstance(c, EdgeColoring)]
        assert all(is_legal(p.source, c) for c in colorings), f"{fn.__name__} built an illegal coloring"
        checked[fn.__name__] += 1
        return result

    return wrapped


def _checking_pullbacks(fn, checked):
    def wrapped(p, c):
        pulled = fn(p, c)
        assert is_legal(p.source, pulled), "a pull-back came out illegal"
        checked[fn.__name__] += 1
        return pulled

    return wrapped


@pytest.fixture(scope="module")
def checked_layers():
    """Re-prove what the construction trusts, for every test in the module.

    The library proves its inputs once and builds every later cover and
    coloring from lemmas, without checking them again. While this fixture
    is active, every cover that ``compose``, ``copies_cover``,
    ``extend_subgraph_cover``, ``_build_alignment_cover`` and
    ``_union_witness`` return must pass ``verify_covering`` (and the
    shifted coloring ``is_legal``), and every ``pullback_coloring`` result
    must be legal. ``covering._union_witness``, bound in ``equivalence``
    too, writes every copy, extension, union of components and pad, so the
    recursion's covers are all checked there. Each function is replaced in
    every ``kempe_covers`` namespace that binds it, so calls between layers
    are checked too.
    ``_build_alignment_cover`` is the builder behind both the public
    ``build_alignment_cover`` and the recursion's private alignment entry.
    Yields the number of checked results per function.
    """
    checked = Counter()
    wrappers = {
        covering.compose: _checking_covers,
        covering.copies_cover: _checking_covers,
        covering._union_witness: _checking_covers,
        covering.extend_subgraph_cover: _checking_covers,
        alignment._build_alignment_cover: _checking_covers,
        covering.pullback_coloring: _checking_pullbacks,
    }
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "kempe_covers"]
    with pytest.MonkeyPatch.context() as mp:
        for original, wrap in wrappers.items():
            wrapper = wrap(original, checked)
            for module in modules:
                for attr, value in vars(module).copy().items():
                    if value is original:
                        mp.setattr(module, attr, wrapper)
        yield checked


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
def mutated_documents(draw, doc, values=FUZZ_VALUES):
    """``doc`` after 1-3 mutations: a value replaced by one of ``values``, a key deleted, or a list row duplicated."""
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
            parent[key] = copy.deepcopy(draw(values))
        elif kind == "delete":
            del parent[key]
        else:
            parent.insert(key, copy.deepcopy(parent[key]))
    return doc
