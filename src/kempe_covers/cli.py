"""Command-line surface.

Exit codes: 0 success, 1 I/O or parse error, 2 content violation (illegal
coloring, non-regular graph, failed verification, mismatched documents).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from .coloring import common_degree
from .equivalence import kempe_cover_witness, verify_witness
from .errors import ColoringError, FormatError, KempeCoversError
from .graph import is_regular
from .oracle import DEFAULT_MAX_EDGES, kempe_class_partition, random_colored_instance
from .serialize import (
    dump_json,
    instance_from_json,
    instance_to_json,
    load_json,
    witness_from_json,
    witness_to_json,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kempe-covers",
        description="Edge Kempe switches, covers, and equivalence witnesses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate a named coloring (legal + regular)")
    p_check.add_argument("--input", required=True)
    p_check.add_argument("--coloring", required=True)

    p_wit = sub.add_parser("witness", help="build a cover witness between two colorings")
    p_wit.add_argument("--input", required=True)
    p_wit.add_argument("--from", dest="from_name", required=True)
    p_wit.add_argument("--to", dest="to_name", required=True)
    p_wit.add_argument("--out")

    p_ver = sub.add_parser("verify", help="verify a witness against its instance")
    p_ver.add_argument("--input", required=True)
    p_ver.add_argument("--witness", required=True)

    p_cls = sub.add_parser("classes", help="enumerate colorings and Kempe classes")
    p_cls.add_argument("--input", required=True)
    p_cls.add_argument("--max-edges", dest="max_edges", type=int, default=DEFAULT_MAX_EDGES)

    p_gen = sub.add_parser("gen", help="generate a random colored instance")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--degree", type=int, required=True)
    p_gen.add_argument("--vertices", type=int, required=True)
    p_gen.add_argument("--out", required=True)
    return parser


def _load_instance(path):
    return instance_from_json(load_json(path))


def _named_coloring(colorings, name):
    if name not in colorings:
        raise KempeCoversError(f"instance has no coloring named {name!r}")
    return colorings[name]


def _cmd_check(args) -> int:
    g, colorings = _load_instance(args.input)
    c = _named_coloring(colorings, args.coloring)
    try:
        d = common_degree(g, c)
    except ColoringError as exc:
        print(f"error: coloring {args.coloring!r} is not a legal {is_regular(g)}-edge-coloring: {exc}",
              file=sys.stderr)
        return 2
    print(f"coloring {args.coloring!r} is legal on a {d}-regular graph "
          f"({g.vertex_count} vertices, {g.edge_count} edges)")
    return 0


def _cmd_witness(args) -> int:
    g, colorings = _load_instance(args.input)
    c1 = _named_coloring(colorings, args.from_name)
    c2 = _named_coloring(colorings, args.to_name)
    witness = kempe_cover_witness(g, c1, c2)
    verdict = verify_witness(witness)
    if not verdict:
        print(f"error: internal: witness failed self-verification: {verdict.reason}", file=sys.stderr)
        return 2
    print(f"covering degree {witness.cover.degree}, sequence length {len(witness.switches)}")
    if args.out:
        dump_json(witness_to_json(witness, (args.from_name, args.to_name)), args.out)
        print(f"witness written to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    g, colorings = _load_instance(args.input)
    witness, names = witness_from_json(load_json(args.witness))
    if witness.graph != g:
        print("error: witness base graph differs from the instance graph", file=sys.stderr)
        return 2
    if names:
        for key, coloring in (("from", witness.start), ("to", witness.goal)):
            name = names.get(key)
            if name not in colorings or colorings[name] != coloring:
                print(f"error: witness {key!r} coloring does not match instance coloring {name!r}",
                      file=sys.stderr)
                return 2
    verdict = verify_witness(witness)
    if not verdict:
        print(f"error: witness verification failed: {verdict.reason}", file=sys.stderr)
        return 2
    print(f"witness verified: degree {witness.cover.degree}, "
          f"{len(witness.switches)} switches")
    return 0


def _cmd_classes(args) -> int:
    g, _ = _load_instance(args.input)
    census = kempe_class_partition(g, max_edges=args.max_edges)
    print(f"{len(census.colorings)} colorings, {len(census.classes)} classes")
    for k, cls in enumerate(census.classes):
        print(f"class {k}: {len(cls)} colorings, representative index {census.representatives[k]}")
    return 0


def _cmd_gen(args) -> int:
    g, c1, c2 = random_colored_instance(args.seed, args.degree, args.vertices)
    doc = instance_to_json(
        g,
        {"c1": c1, "c2": c2},
        metadata={"seed": args.seed, "degree": args.degree, "vertices": args.vertices},
    )
    dump_json(doc, args.out)
    print(f"instance written to {args.out} "
          f"({g.vertex_count} vertices, {g.edge_count} edges)")
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "witness": _cmd_witness,
    "verify": _cmd_verify,
    "classes": _cmd_classes,
    "gen": _cmd_gen,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # A command's tables and parsed documents hold no reference cycles, and the cyclic
    # collector would walk them again at every collection, so it is paused while the
    # command runs and given back as it was, for an in-process caller.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _COMMANDS[args.command](args)
    except (OSError, json.JSONDecodeError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KempeCoversError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
