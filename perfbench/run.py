"""End-to-end benchmark of kempe_covers on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload deep --seed 1 --seconds 15 --trace 0

``deep`` and ``wide`` build a cover witness per instance
(``kempe_cover_witness``), dump it canonically, then parse and verify every
valid document and reject every tampered one. ``census`` runs the
brute-force oracle: it partitions small bases into Kempe classes
(``kempe_class_partition``), then asks ``equivalent_without_cover`` about
pairs in one class (a path must come back and replay) and pairs in
different classes (``None`` must come back).

A run makes passes over three timed phases, build, verify and reject. Each
phase makes at least ``MIN_PASSES`` and goes on until it has measured its
third of ``--seconds``; a traced run makes one pass. An operation that
takes longer than ``LONG_OP_S`` runs in the first pass only, and every
operation of the first pass is checked. Each operation counts with its
median pass. Every time is scaled to a reference machine speed by
``clock.Clock``, which samples a calibration kernel on a timer while the
run measures; a traced run reports plain seconds.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics: end-to-end with ``--trace 0``,
per layer with ``--trace 1``. The line before it carries witness digests
and run details.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path

from clock import Clock
from tracer import Tracer

#: instance slots: (d, n, fixed seed, or None to draw one from --seed).
#: A slot whose cost varies severalfold between seeds keeps the reference
#: seed 1, since one such instance would swamp the cross-seed comparison of
#: its workload: the d=5 n=6 switch count ranges 2,304..8,160 (seed 1:
#: 5,088, the replay slow path) and the d=4 n=100..150 one 70..230.
WITNESS_SLOTS = {
    "full": {
        "deep": [(5, 6, 1)] + [(4, n, None) for n in (20, 24, 28, 32, 36, 40) * 4],
        "wide": [(3, 1000, None)] * 3 + [(4, 150, 1)],
    },
    "smoke": {
        "deep": [(4, 8, None), (4, 12, None), (3, 10, None)],
        "wide": [(3, 60, None), (4, 16, None)],
    },
}

#: census bases per degree: (d, n, colorings budget, colorings cap per base,
#: same-class budget and different-class budget, both in colorings the BFS
#: must expand). Bases are drawn from the seed until their legal colorings
#: reach the budget, so the oracle's work, which grows with the colorings, is
#: about the same for every seed; the query budgets do the same for the BFS.
CENSUS_CLASSES = {
    "full": [(3, 16, 4000, 500, 2700, 3000), (4, 8, 6000, 800, 3800, 6000), (5, 4, 9000, 1500, 3300, 0)],
    "smoke": [(3, 12, 150, 100, 40, 40), (4, 8, 300, 400, 60, 100)],
}

#: set-up is repeated this many times per run; setup_s takes the medians
SETUP_REPEATS = 3
#: untraced runs make at least this many passes
MIN_PASSES = 2
#: an operation this long runs once; the calibration samples taken during it scale it
LONG_OP_S = 1.0
#: queries kept per class; round-robin cycles through them
CLASS_QUERIES = 8

TAMPER_KINDS = ("stale_switch", "dropped_final", "edge_map")

END_TO_END = {
    "setup_s": "s",
    "build_s": "s",
    "verify_s": "s",
    "reject_s": "s",
    "switches": "count",
    "witness_bytes": "bytes",
    "peak_rss_mb": "MiB",
}

#: per-layer metrics: spans reported with call count and self time
LAYER_CALLS = (
    "covering.lift_switch",
    "covering.verify_covering",
    "covering.CoveringMap.vertex_fiber",
    "coloring.is_legal",
    "coloring.kempe_switch",
    "coloring.EdgeColoring.init",
    "coloring.bichromatic_cycles",
    "alignment.align_color",
    "equivalence.kempe_cover_witness",
    "graph.Multigraph.init",
    "serialize.switch_from_edges",
)
#: spans reported with self time only
LAYER_SELF = (
    "covering.lift_sequence",
    "covering.extend_subgraph_cover",
    "covering.compose",
    "covering.pullback_coloring",
    "covering.copies_cover",
    "oracle.enumerate_legal_colorings",
    "oracle.kempe_class_partition",
    "oracle.equivalent_without_cover",
    "alignment.build_alignment_cover",
    "equivalence.verify_witness",
    "graph.connected_components",
    "graph.spanning_subgraph",
    "graph.disjoint_union",
    "serialize.witness_to_json",
    "serialize.witness_from_json",
)
LAYER_COUNTERS = (
    "covering.lift_switch.lifted",
    "coloring.EdgeColoring.init.entries",
    "graph.Multigraph.init.edges",
    "oracle.enumerate_legal_colorings.colorings",
)
PHASES = ("build", "verify", "reject")


def canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class Run:
    """Timings, sizes and the correctness tally of one benchmark run."""

    def __init__(self, kc, clock: Clock, tracer: Tracer | None, size: str):
        self.kc = kc
        self.clock = clock
        self.tracer = tracer
        self.size = size
        self.attempted = 0
        self.failed = 0
        self.passes: dict[str, int] = {}
        #: per phase, per operation: the clock spans of its passes
        self.spans: dict[str, list[list]] = {p: [] for p in PHASES}
        self.generate: list = []
        self.prepare: list = []
        self.switches = 0
        self.witness_bytes = 0
        self.digests: list[str] = []

    def phase(self, name: str | None, instance: int = -1) -> None:
        if self.tracer is not None:
            self.tracer.phase = name
            self.tracer.instance = instance

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)

    def guarded(self, what: str, fn, *args):
        """``(fn(*args), None)``, or ``(None, message)`` with the traceback on stderr."""
        try:
            return fn(*args), None
        except Exception as exc:  # one failing operation must not stop the run
            traceback.print_exc(file=sys.stderr)
            return None, f"{what}: {exc!r}"

    def timed(self, phase: str, ops):
        """Time each ``(what, fn, args)`` call of a phase and keep its span.

        Returns the ``(result, error)`` pairs of the calls made for the first
        time; a repeated call's result is dropped.
        """
        spans = self.spans[phase]
        results = []
        # What is alive now stays alive through the phase; frozen, the
        # collector stops re-scanning it, so an operation pays only for
        # collecting its own garbage, wherever the phase starts.
        gc.collect()
        gc.freeze()
        for k, (what, fn, args) in enumerate(ops):
            if k < len(spans) and spans[k][0][2] > LONG_OP_S:
                continue
            self.phase(phase, k)
            result, span = self.clock.time(self.guarded, what, fn, *args)
            self.phase(None)
            if k < len(spans):
                spans[k].append(span)
            else:
                spans.append([span])
                results.append(result)
        return results

    def phase_s(self, phase: str, scaled: bool = True) -> float:
        """Sum over the phase's operations of each one's median pass."""
        time = self.clock.scaled if scaled else (lambda span: span[2])
        return sum(statistics.median(map(time, spans)) for spans in self.spans[phase])

    def repeat(self, seconds: float, phases) -> None:
        """Further passes over ``(phase, ops)`` after the first.

        A phase whose operations are all long is done. Any other phase is
        repeated until it has made ``MIN_PASSES`` passes and its repeatable
        operations have taken an equal share of ``seconds``, so a short phase
        gets more passes than a long one. Phases take turns, so each one's
        passes spread over the whole run.
        """
        self.passes = {phase: 1 for phase, _ in phases}
        share = seconds / len(phases)
        while self.tracer is None:
            pending = []
            for phase, ops in phases:
                repeated = [spans for spans in self.spans[phase] if spans[0][2] <= LONG_OP_S]
                measured = sum(span[2] for spans in repeated for span in spans)
                if repeated and (self.passes[phase] < MIN_PASSES or measured < share):
                    pending.append((phase, ops))
            if not pending:
                break
            for phase, ops in pending:
                self.timed(phase, ops)
                self.passes[phase] += 1

    def record(self, text: str, switches: int) -> None:
        data = text.encode()
        self.witness_bytes += len(data)
        self.switches += switches
        self.digests.append(hashlib.sha256(data).hexdigest())


# -- deep / wide -------------------------------------------------------------


def witness_instances(kc, workload: str, size: str, seed: int):
    """Instances for the workload's slots.

    A drawn instance is redrawn until its two colorings differ on the top
    color class: an aligned top color skips ``align_color`` and half the
    recursion, which would make the cost of a slot bimodal across seeds.
    """
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for d, n, fixed in WITNESS_SLOTS[size][workload]:
        sub = fixed
        while True:
            if fixed is None:
                sub = rng.randrange(1 << 30)
            g, c1, c2 = kc.random_colored_instance(sub, d, n)
            if fixed is not None or c1.color_class(d) != c2.color_class(d):
                break
        out.append((d, n, sub, g, c1, c2))
    return out


def tampered(doc: dict, kind: str, base_edges: int) -> dict:
    """A copy of a witness document that no verifier may accept.

    ``stale_switch`` gives the middle switch a color pair its edges do not
    carry; ``dropped_final`` removes the last switch, so the replay ends one
    switch short of the goal; ``edge_map`` sends one cover edge to another
    base edge, which breaks the covering's local bijection.
    """
    bad = json.loads(json.dumps(doc))
    if kind == "stale_switch":
        entry = bad["sequence"][len(bad["sequence"]) // 2]
        pair = set(entry["colors"])
        d = bad["start"]["degree"]
        entry["colors"] = next(
            [a, b] for a in range(1, d + 1) for b in range(a + 1, d + 1) if {a, b} != pair
        )
    elif kind == "dropped_final":
        bad["sequence"].pop()
    else:
        row = bad["edge_map"][len(bad["edge_map"]) // 2]
        row[1] = (row[1] + 1) % base_edges
    return bad


def prepare_documents(kc, witnesses):
    """Canonical valid documents, and (instance, kind, text) for the tampered ones."""
    valid, bad = [], []
    for k, w in enumerate(witnesses):
        if w is None:
            valid.append(None)
            continue
        doc = kc.witness_to_json(w)
        valid.append(canonical(doc))
        # One d=5 replay takes tens of seconds at baseline and verify_s
        # already times it, so a d=5 witness only gets the tamper that fails
        # before the replay. The other two tampers need a switch.
        kinds = TAMPER_KINDS if w.switches and w.start.degree < 5 else ("edge_map",)
        for kind in kinds:
            bad.append((k, kind, canonical(tampered(doc, kind, w.graph.edge_count))))
    return valid, bad


def parse_and_verify(kc, text: str):
    """The verifier's whole path: JSON text to witness to verdict."""
    w = kc.witness_from_json(json.loads(text))[0]
    return w, kc.verify_witness(w)


def rejects(kc, text: str) -> bool:
    try:
        return not parse_and_verify(kc, text)[1]
    except kc.KempeCoversError:
        return True


def witness_workload(run: Run, workload: str, seed: int, seconds: float) -> None:
    kc = run.kc
    for _ in range(SETUP_REPEATS):
        instances, span = run.clock.time(witness_instances, kc, workload, run.size, seed)
        run.generate.append(span)

    build = [(f"build d={d} n={n} seed={sub}", kc.kempe_cover_witness, (g, c1, c2))
             for d, n, sub, g, c1, c2 in instances]
    built = run.timed("build", build)
    witnesses = []
    for (d, n, sub, g, c1, c2), (w, err) in zip(instances, built):
        want = 1 if c1 == c2 else kc.beta(d)
        run.check(err is None and w.cover.degree == want,
                  err or f"d={d} n={n} seed={sub}: cover degree {w.cover.degree}, want {want}")
        witnesses.append(w)

    for rep in range(SETUP_REPEATS):
        run.phase("prepare" if rep == 0 else None)
        (valid, bad), span = run.clock.time(prepare_documents, kc, witnesses)
        run.prepare.append(span)
    run.phase(None)
    for text, w in zip(valid, witnesses):
        if text is not None:
            run.record(text, len(w.switches))

    verify = [(f"verify instance {k}", parse_and_verify, (kc, text))
              for k, text in enumerate(valid) if text is not None]
    verified = run.timed("verify", verify)
    for (k, w), (result, err) in zip([(k, w) for k, w in enumerate(witnesses) if w is not None], verified):
        parsed, verdict = result or (None, None)
        run.check(bool(verdict), err or f"instance {k}: valid witness rejected: {verdict}")
        run.check(parsed == w, f"instance {k}: witness changed in the JSON round trip")

    reject = [(f"reject instance {k} ({kind})", rejects, (kc, text)) for k, kind, text in bad]
    rejected = run.timed("reject", reject)
    for (k, kind, _), (ok, err) in zip(bad, rejected):
        run.check(ok is True, err or f"instance {k}: {kind} tampered witness accepted")
    run.repeat(seconds, [("build", build), ("verify", verify), ("reject", reject)])


# -- census ------------------------------------------------------------------


def class_queries(census):
    """Oracle queries on one partitioned base, as lists of (start, target, cost).

    Same-class queries go from a class representative to a member two
    switches away (one when the class is that shallow). The BFS finds the
    target while it expands the colorings one switch from the
    representative, so their number, plus one, is the query's ``cost``.
    Different-class queries start in the smallest class, whose ``cost``
    colorings the BFS must exhaust before answering None.
    """
    same = []
    for rep, members in zip(census.representatives, census.classes):
        depth = min(2, max(len(census.paths[i]) for i in members))
        targets = [i for i in members if depth and len(census.paths[i]) == depth][:CLASS_QUERIES]
        cost = sum(len(census.paths[i]) < depth for i in members)
        same.append([(census.colorings[rep], census.colorings[i], cost) for i in targets])
    different = []
    if len(census.classes) > 1:
        k = min(range(len(census.classes)), key=lambda j: (len(census.classes[j]), j))
        other = census.colorings[census.representatives[(k + 1) % len(census.classes)]]
        size = len(census.classes[k])
        different.append([(census.colorings[i], other, size) for i in census.classes[k][:CLASS_QUERIES]])
    return same, different


def round_robin(candidates, budget: int):
    """One query from each candidate list in turn until their costs reach ``budget``.

    Lists are cycled when exhausted, so a small pool still fills the budget.
    """
    candidates = [(g, options) for g, options in candidates if options]
    queries, spent, turn = [], 0, 0
    while candidates and spent < budget:
        for g, options in candidates:
            if spent >= budget:
                break
            start, target, cost = options[turn % len(options)]
            queries.append((g, start, target))
            spent += cost
        turn += 1
    return queries


def census_bases(kc, size: str, seed: int):
    """Bases per degree class, drawn from the seed until their colorings reach the budget.

    A base with more legal colorings than the class cap is passed over, so
    no single base dominates the total.
    """
    bases = []
    for d, n, budget, cap, *_ in CENSUS_CLASSES[size]:
        rng = random.Random(f"census:{seed}:{d}:{n}")
        total = 0
        while total < budget:
            sub = rng.randrange(1 << 30)
            g = kc.random_colored_instance(sub, d, n)[0]
            count = len(kc.enumerate_legal_colorings(g))
            if count <= cap:
                bases.append((d, n, sub, g))
                total += count
    return bases


def census_workload(run: Run, seed: int, seconds: float) -> None:
    kc = run.kc
    for _ in range(SETUP_REPEATS):
        bases, span = run.clock.time(census_bases, kc, run.size, seed)
        run.generate.append(span)

    build = [(f"census d={d} n={n} seed={sub}", kc.kempe_class_partition, (g,)) for d, n, sub, g in bases]
    same, different = [], []
    censuses = list(zip(bases, run.timed("build", build)))
    for d, n, _, _, same_budget, different_budget in CENSUS_CLASSES[run.size]:
        same_candidates, different_candidates = [], []
        for (bd, bn, sub, g), (census, err) in censuses:
            if (bd, bn) != (d, n):
                continue
            ok = err is None and sorted(i for c in census.classes for i in c) == list(range(len(census.colorings)))
            run.check(ok, err or f"census d={d} n={n} seed={sub}: classes do not partition the colorings")
            if ok:
                s, o = class_queries(census)
                same_candidates += [(g, c) for c in s]
                different_candidates += [(g, c) for c in o]
        same += round_robin(same_candidates, same_budget)
        different += round_robin(different_candidates, different_budget)
    del censuses

    verify = [(f"same-class query {k}", kc.equivalent_without_cover, (g, a, b))
              for k, (g, a, b) in enumerate(same)]
    for (g, a, b), (path, err) in zip(same, run.timed("verify", verify)):
        try:
            ok = path is not None and kc.apply_sequence(g, a, path) == b
        except kc.KempeCoversError:
            ok = False
        run.check(ok, err or "same-class query: no path, or the path does not reach its target")
        if ok:
            witness = kc.EquivalenceWitness(g, a, b, kc.CoveringMap.identity(g), path)
            run.record(canonical(kc.witness_to_json(witness)), len(path))

    reject = [(f"different-class query {k}", kc.equivalent_without_cover, (g, a, b))
              for k, (g, a, b) in enumerate(different)]
    for path, err in run.timed("reject", reject):
        run.check(err is None and path is None, err or "different-class query found a path")
    run.repeat(seconds, [("build", build), ("verify", verify), ("reject", reject)])


# -- metrics -----------------------------------------------------------------


def end_to_end(run: Run, imported) -> dict[str, float]:
    scaled = run.clock.scaled
    setup = scaled(imported) + statistics.median(map(scaled, run.generate))
    if run.prepare:
        setup += statistics.median(map(scaled, run.prepare))
    metrics = {"setup_s": setup}
    for phase in PHASES:
        metrics[f"{phase}_s"] = run.phase_s(phase)
    metrics["switches"] = run.switches
    metrics["witness_bytes"] = run.witness_bytes
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


def per_layer(run: Run) -> dict[str, float]:
    tr = run.tracer

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name in LAYER_CALLS:
        metrics[f"{name}.calls"] = tr.total(tr.calls, name)
        metrics[f"{name}.s"] = tr.total(tr.self_s, name)
    for name in LAYER_SELF:
        metrics[f"{name}.s"] = tr.total(tr.self_s, name)
    for name in LAYER_COUNTERS:
        metrics[name] = tr.total(tr.counters, name)
    replayed = tr.total(tr.calls, "coloring.kempe_switch", {"verify"})
    metrics["covering.verify_covering.per_node"] = ratio(
        tr.total(tr.calls, "covering.verify_covering", {"build"}),
        tr.total(tr.calls, "equivalence.kempe_cover_witness", {"build"}))
    metrics["coloring.is_legal.per_switch"] = ratio(tr.total(tr.calls, "coloring.is_legal", {"verify"}), replayed)
    metrics["coloring.EdgeColoring.entries.per_switch"] = ratio(
        tr.total(tr.counters, "coloring.EdgeColoring.init.entries", {"verify"}), replayed)
    for phase in PHASES:
        metrics[f"trace.{phase}_s"] = run.phase_s(phase, scaled=False)
    metrics["trace.spans"] = tr.span_count
    metrics["trace.overhead_s"] = tr.span_count * tr.span_cost()
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    return "ratio" if ".per_" in name else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("deep", "wide", "census"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny d<=4 instances that run in seconds")
    args = parser.parse_args(argv)

    package = Path.cwd() / "src" / "kempe_covers"
    if not (package / "__init__.py").is_file():
        print(f"error: no kempe_covers sources under {package.parent}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(package.parent))
    # Tracing adds spans to every call; a traced run keeps to plain seconds.
    clock = Clock(sampling=not args.trace)
    with clock:
        kc, imported = clock.time(importlib.import_module, "kempe_covers")
        if Path(kc.__file__).resolve().parent != package.resolve():
            print(f"error: imported kempe_covers from {kc.__file__}, not from {package}", file=sys.stderr)
            return 2
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install(kc)
        run = Run(kc, clock, tracer, args.size)
        if args.workload == "census":
            census_workload(run, args.seed, args.seconds)
        else:
            witness_workload(run, args.workload, args.seed, args.seconds)

    if tracer is None:
        values, units = end_to_end(run, imported), END_TO_END
    else:
        values = per_layer(run)
        units = {name: layer_unit(name) for name in values}
        out = Path.cwd() / ".perfbench_out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"{args.workload}.spans.tsv.gz")
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "passes": run.passes,
        "calibration_samples": len(clock.at),
        "operations": {phase: len(run.spans[phase]) for phase in PHASES},
        "unscaled_s": {phase: run.phase_s(phase, scaled=False) for phase in PHASES},
        "python": platform.python_version(),
        "cpus": len(os.sched_getaffinity(0)),
        "error_rate": run.failed / max(run.attempted, 1),
        "digests": run.digests,
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
