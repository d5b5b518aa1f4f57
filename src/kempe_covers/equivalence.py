"""Constructive Kempe equivalence of pulled-back colorings on a finite cover.

Any two legal colorings of a finite d-regular graph become Kempe equivalent
after pulling back through a suitable finite cover, and the covering degree
is bounded by ``beta(d)`` with beta(1) = beta(2) = 1 and
beta(d) = (d-1) * beta(d-1)^2. The construction is a recursion on d:

* d <= 2: no cover is needed. A 2-regular graph is a union of even cycles,
  each a single bi-chromatic cycle; switching the cycles where the two
  colorings differ transforms one into the other.
* disconnected: witness every connected component on its own and take the
  disjoint union. Identical components (the same relabelled edges and the
  same colors on them) are solved once per split; their cover and switches
  are shared between the parts, which only read them.
* some color classes already equal: drop the largest such color k. The
  remaining edges form a spanning (d-1)-regular subgraph, numbered densely,
  carrying both colorings with d renamed to k; recurse there, extend the
  resulting cover to the full graph (each k-colored edge lifts to one copy
  per sheet, joining equal sheets), and replay the same switches with k
  renamed back to d, their edge ids taken back to the full graph. At d=3
  the rest is 2-regular, and its cycles are found on the graph's own table.
* no color class equal: align the top color first with the degree-(d-1)
  alignment cover, then run the aligned case for k = d twice, once from the
  pulled-back first coloring to the shifted coloring and once from the
  aligned coloring to the pulled-back second coloring. Composing the three
  covers multiplies the degrees to (d-1) * beta(d-1)^2 exactly. At d=3
  both aligned cases run over the identity of the graph, as beta(2) = 1,
  which lifts each switch to itself and pulls each coloring back as itself.

Every result is normalized to degree exactly beta(d) by padding with
disjoint copies, except the trivial short-circuit for identical inputs,
which keeps the identity cover. Padding is a disjoint union of copies
that renumbers each switch onto every copy, with no replay. It keeps
fibers constant across disconnected intermediate subgraphs, which is what
lets cover extension stay in the constant-fiber case throughout. Every
cover is numbered sheet by sheet in its base's id space (see ``covering``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .alignment import _align_color
from .coloring import (
    BichromaticCycle,
    EdgeColoring,
    SwitchSequence,
    _cycle_decomposition,
    _replay,
    common_degree,
)
from .covering import (
    CoveringMap,
    Verdict,
    _lift,
    _verify_incidence,
    compose,
    extend_subgraph_cover,
    lift_sequence,
    pullback_coloring,
)
from .errors import CoveringError, GraphStructureError, IllegalColoringError, KempeCoversError
from .graph import EdgeId, Multigraph, VertexId, connected_components, spanning_subgraph


#: Largest cover, in vertices, that :func:`kempe_cover_witness` builds. A build of d=4 n=80,000
#: (960,000 cover vertices) took 31 s and grew RSS by 672 MiB, 0.73 kB per cover vertex (x86_64,
#: Python 3.11.7); d=4 n = 1,000 to 20,000 and d=5 n = 60 to 300 grew it by 0.57-0.76 kB per cover
#: vertex. d=3 builds, whose aligned halves run over the identity, grow it by 0.16-0.27 kB per cover
#: vertex at n = 20,000 to 100,000 (30 MiB at n=100,000). The smallest cover of a d=6 instance,
#: 2 * beta(6) = 3,317,760 vertices, is refused.
MAX_COVER_VERTICES = 1_000_000


def _betas(d: int):
    """beta(1), beta(2), ..., beta(d), lazily; the sequence never decreases."""
    value = 1
    for k in range(1, d + 1):
        if k >= 3:
            value = (k - 1) * value * value
        yield value


def beta(d: int) -> int:
    """Covering-degree bound: beta(1) = beta(2) = 1, beta(d) = (d-1)*beta(d-1)^2."""
    if type(d) is not int or d < 1:  # bools are not integers here
        raise GraphStructureError(f"beta needs an integer d >= 1, got {d!r}")
    *_, value = _betas(d)
    return value


@dataclass(frozen=True)
class EquivalenceWitness:
    """A cover and a switch sequence carrying one pull-back to the other.

    Replaying ``switches`` on the cover, starting from the pull-back of
    ``start``, must end at the pull-back of ``goal`` edge for edge.
    """

    graph: Multigraph
    start: EdgeColoring
    goal: EdgeColoring
    cover: CoveringMap
    switches: SwitchSequence


def verify_witness(w: EquivalenceWitness) -> Verdict:
    """Machine-check a witness: cover axioms, replay equality, degree bound.

    The cover must map onto the witness graph with images that keep
    incidence, and have m|E| edges; its type gives total maps and constant,
    non-empty fibers of its degree m. :func:`common_degree` then checks that
    the base is d-regular and both colorings legal of degree d; its message
    is the reason of a rejection. The replay's domain check fills its color
    table from the start pull-back, and that fill proves the rest of the
    covering axioms: each edge at a cover vertex v maps to an edge at p(v)
    of the same color, and those have distinct colors, so a fill with no
    clash shows that the images of v's edges are distinct: deg(v) <= d.
    Summed, 2|E_cover| <= d * m|V| = 2m|E| = 2|E_cover|, so each vertex's
    edges map one to one onto the edges at its image, and with non-empty
    fibers every base edge has a preimage. A clash in the fill is a cover
    fault, and its reason says that the local bijection fails. Each switch
    is validated as a whole alternating two-color component before its
    flip, and the end state must equal the goal pull-back edge for edge.
    """
    try:
        if w.cover.target != w.graph:
            return Verdict(False, "cover does not map onto the witness graph")
        verdict = _verify_incidence(w.cover)
        if not verdict:
            return verdict
        m = w.cover.degree
        edges = w.cover.source.edge_count
        if edges != m * w.graph.edge_count:
            return Verdict(False, f"cover edge count {edges} is not {m} x {w.graph.edge_count}")
        d = common_degree(w.graph, w.start, w.goal)
        # the pull-back is built for this replay alone, so it flips in place, except through
        # the identity, whose pull-back is w.start itself
        current = pullback_coloring(w.cover, w.start)._colors
        if w.cover.source is w.cover.target:
            current = list(current)
        goal = pullback_coloring(w.cover, w.goal)._colors
        try:
            _replay(w.cover.source, d, current, enumerate(w.switches))
        except IllegalColoringError as exc:  # only the fill raises it, and the base colorings are legal
            return Verdict(False, f"local bijection fails: {exc}")
        if current != goal:
            e = next(e for e, (got, want) in enumerate(zip(current, goal)) if got != want)
            return Verdict(False, f"replay mismatch at cover edge {e}: got {current[e]}, want {goal[e]}")
        # beta(d) has about 2**d digits: stop the recurrence once it reaches the degree
        if all(value < m for value in _betas(d)):
            return Verdict(False, f"covering degree {m} exceeds beta({d}) = {beta(d)}")
        return Verdict(True)
    except KempeCoversError as exc:
        return Verdict(False, str(exc))


def _base_two_witness(
    g: Multigraph, c1: EdgeColoring, c2: EdgeColoring, pair: tuple[int, int]
) -> tuple[CoveringMap, SwitchSequence]:
    """d = 2: switch exactly the cycles on which the colorings differ.

    Every edge the colorings may differ on has a color of ``pair``, so those
    cycles of ``g`` are its ``pair`` components, whatever ``g``'s other edges."""
    # both colorings alternate around each cycle, so they differ on all of it or on none
    differ = [e for e, (a, b) in enumerate(zip(c1._colors, c2._colors)) if a != b]
    return CoveringMap.identity(g), tuple(BichromaticCycle(pair, edges) for edges in _cycle_decomposition(g, differ))


def _aligned_witness(
    g: Multigraph, c1: EdgeColoring, c2: EdgeColoring, d: int, k: int
) -> tuple[CoveringMap, SwitchSequence]:
    """Equal color-k classes (the caller checks): recurse on the (d-1)-regular rest.

    The rest, numbered densely, carries both colorings with d renamed to k,
    and each sub-switch has k renamed back to d and its ids taken back to g;
    a renaming of colors maps legal colorings and their {a, b} components to
    legal colorings and components. The sub-witness cover extends to g by
    lifting each k-colored edge to one copy per sheet, and no switch touches
    k. Result degree is exactly beta(d-1), with no pad: on unequal inputs
    :func:`_witness` has degree exactly beta(j), and the colorings of the
    rest always differ. In :func:`_witness`, c1 != c2 agree on k's class. In
    :func:`_misaligned_witness`, k = d; in its first call, the d-1 lifts of an
    edge with c1 != d take every shifted color. In its second, at d >= 3 some
    edge is top-colored in neither c1 nor c2; its lifts miss the moving
    preimage and keep all d-1 shifted colors, which the surjective r1 keeps.
    """
    if d == 3:  # the rest is 2-regular, and its cycles are found on g's own table
        return _base_two_witness(g, c1, c2, (1, 2) if k == 3 else (3 - k, 3))
    rest = [e for e, col in enumerate(c1._colors) if col != k]
    h = spanning_subgraph(g, rest)
    # both colorings give color k to the same edges, so rest misses it, and d takes k's name
    names = [*range(d), k]
    sub = [EdgeColoring._adopt(d - 1, [names[c._colors[e]] for e in rest]) for c in (c1, c2)]
    cover, switches = _witness(h, *sub, d - 1)
    # row f of the rest's cover is row rest[f // m]*m + f % m here, which ascends with f, so switches stay
    # sorted; a sub-switch on {a, k} switches {a, d} here, and a < d keeps the pair sorted
    m = cover.degree
    renamed = [BichromaticCycle((sum(s.colors) - k, d) if k in s.colors else s.colors,
                                tuple([rest[f // m] * m + f % m for f in s.edge_ids])) for s in switches]
    return extend_subgraph_cover(g, rest, cover), tuple(renamed)


def _misaligned_witness(
    g: Multigraph, c1: EdgeColoring, c2: EdgeColoring, moving: list[EdgeId]
) -> tuple[CoveringMap, SwitchSequence]:
    """Align the top color along the ``moving`` edges, then run the aligned recursion on both sides.

    :func:`_align_color` has replayed the alignment switches, so they lift through the two
    aligned covers with no second replay; the lift of ``s1`` is the only replay ``s1`` gets."""
    d = c1.degree
    ar = _align_color(g, c1, moving)
    p = ar.cover
    c1_up = pullback_coloring(p, c1)
    c2_up = pullback_coloring(p, c2)

    r1, s1 = _aligned_witness(p.source, c1_up, ar.start_coloring, d, d)
    aligned_up = pullback_coloring(r1, ar.aligned_coloring)
    c2_up_up = pullback_coloring(r1, c2_up)
    r2, s2 = _aligned_witness(r1.source, aligned_up, c2_up_up, d, d)

    r12 = compose(r1, r2)
    cover = compose(p, r12)
    switches = lift_sequence(r2, pullback_coloring(r1, c1_up), s1) + _lift(r12, ar.switches) + s2
    return cover, switches


def _induced_components(
    g: Multigraph, components: list[frozenset[VertexId]]
) -> list[tuple[tuple[VertexId, ...], tuple[VertexId, ...], tuple[EdgeId, ...], tuple[VertexId, ...]]]:
    """Each component relabelled densely: its two endpoint lists, plus edge and vertex ids back in ``g``.

    One pass over g's edges, in id order, hands each edge to the component of its ends.
    """
    ordered = [tuple(sorted(comp)) for comp in components]
    where = {v: (k, i) for k, vs in enumerate(ordered) for i, v in enumerate(vs)}
    parts: list[tuple[list, list, list]] = [([], [], []) for _ in components]
    for e, (u, w) in enumerate(zip(g._tails, g._heads)):
        k, i = where[u]
        tails, heads, edge_ids = parts[k]
        tails.append(i)
        heads.append(where[w][1])
        edge_ids.append(e)
    return [(*map(tuple, part), vs) for part, vs in zip(parts, ordered)]


def _per_component_witness(
    g: Multigraph,
    c1: EdgeColoring,
    c2: EdgeColoring,
    d: int,
    components: list[frozenset[VertexId]],
) -> tuple[CoveringMap, SwitchSequence]:
    """Witness each of the ``components`` of ``g`` on its own, take the union of copies at beta(d).

    Identical components are solved once per call: two components with the
    same relabelled edge pairs and the same colors on them get the same
    witness, so the first one's is reused for the rest. The key holds
    the edge ids (dense, in pair order), because the witness carries them.
    A reused pair is shared between parts and only read.
    """
    solved: dict[tuple, tuple[CoveringMap, SwitchSequence]] = {}
    parts = []
    for tails, heads, eback, vback in _induced_components(g, components):
        colors1 = tuple(map(c1._colors.__getitem__, eback))
        colors2 = tuple(map(c2._colors.__getitem__, eback))
        key = (len(vback), tails, heads, colors1, colors2)
        if key not in solved:
            # g's edges in id order, relabelled densely: in range, no loops
            sub = Multigraph._adopt(len(vback), list(tails), list(heads))
            # the colors of c1 and c2 on those edges
            sub_c1 = EdgeColoring._adopt(d, list(colors1))
            sub_c2 = EdgeColoring._adopt(d, list(colors2))
            solved[key] = _witness(sub, sub_c1, sub_c2, d)
        parts.append((*solved[key], vback, eback))
    return _union_witness(g, parts, beta(d))


def _union_witness(g: Multigraph, parts: list[tuple], degree: int) -> tuple[CoveringMap, SwitchSequence]:
    """The disjoint union of ``degree // m`` copies of each part's witness of degree m: a cover of ``g``.

    A part ``(cover, switches, vback, eback)`` is a witness whose vertex and
    edge ids map into ``g`` through ``vback`` and ``eback``. Copy c of the
    part's cover vertex v*m + k is sheet c*m + k over vback[v], with id
    vback[v]*degree + c*m + k, and the same for edges, each row written at
    its id. Each switch goes onto every copy of its part before the next.
    """
    size = g.edge_count * degree
    tails, heads = [0] * size, [0] * size
    all_switches: list[BichromaticCycle] = []
    for cover, switches, vback, eback in parts:
        m, source = cover.degree, cover.source
        firsts = range(0, degree, m)  # the first sheet of each copy: c*m for copy c
        # the rows of copy 0; copy c adds c*m to every vertex and edge id
        at = [vback[x // m] * degree + x % m for x in range(source.vertex_count)]
        ids = [eback[f // m] * degree + f % m for f in range(source.edge_count)]
        rows = list(zip(ids, map(at.__getitem__, source._tails), map(at.__getitem__, source._heads)))
        for s in firsts:
            for f, u, w in rows:
                tails[f + s], heads[f + s] = u + s, w + s
        # eback ascends, so a sorted switch stays sorted
        for cyc in switches:
            moved = [eback[f // m] * degree + f % m for f in cyc.edge_ids]
            for s in firsts:
                all_switches.append(BichromaticCycle(cyc.colors, tuple(map(s.__add__, moved))))
    # each copy joins the copies of two distinct vertices
    union = Multigraph._adopt(g.vertex_count * degree, tails, heads)
    return CoveringMap._sheeted(union, g, degree), tuple(all_switches)


def kempe_cover_witness(g: Multigraph, c1: EdgeColoring, c2: EdgeColoring) -> EquivalenceWitness:
    """A witness, accepted by :func:`verify_witness`, that the pull-backs are Kempe equivalent.

    The inputs are checked once, here; the result is not re-verified (the
    CLI ``witness`` command runs :func:`verify_witness` before it writes).
    The covering degree is exactly beta(d), except for literally identical
    inputs where the identity cover (degree 1) is returned. A cover beyond
    :data:`MAX_COVER_VERTICES` vertices raises CoveringError before any build.
    """
    d = common_degree(g, c1, c2)
    # beta(d) has about 2**d digits: stop the recurrence once the cover passes the bound
    if c1 != c2 and any(g.vertex_count * value > MAX_COVER_VERTICES for value in _betas(d)):
        raise CoveringError(
            f"a cover of {g.vertex_count} x beta({d}) vertices exceeds the bound of {MAX_COVER_VERTICES:,}"
        )
    cover, switches = _witness(g, c1, c2, d)
    return EquivalenceWitness(g, c1, c2, cover, switches)


def _witness(
    g: Multigraph, c1: EdgeColoring, c2: EdgeColoring, d: int
) -> tuple[CoveringMap, SwitchSequence]:
    """The recursion: ``g`` is d-regular and ``c1``, ``c2`` are legal; nothing is re-checked."""
    if c1 == c2:
        return CoveringMap.identity(g), ()
    # d = 1 forces c1 == c2 (the only color is 1), so d >= 2 from here on.
    if d == 2:
        return _base_two_witness(g, c1, c2, (1, 2))
    components = connected_components(g)
    if len(components) > 1:
        return _per_component_witness(g, c1, c2, d, components)
    colors1, colors2 = c1._colors, c2._colors
    # the edges on which the colorings differ: a color that none of them carries has equal
    # classes, and those that either coloring gives the top color are the moving edges
    differ = [e for e, (a, b) in enumerate(zip(colors1, colors2)) if a != b]
    agree = set(range(1, d + 1)).difference(map(colors1.__getitem__, differ), map(colors2.__getitem__, differ))
    if agree:  # drop the largest such color
        cover, switches = _aligned_witness(g, c1, c2, d, max(agree))
        return _union_witness(g, [(cover, switches, range(g.vertex_count), range(g.edge_count))], beta(d))
    return _misaligned_witness(g, c1, c2, [e for e in differ if d in (colors1[e], colors2[e])])
