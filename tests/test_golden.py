"""Witnesses must stay byte-identical: same edge ids, cycle order and walks.

The files under ``tests/golden/`` are canonical witness dumps (one line,
sorted keys, no spaces, trailing newline). A refactor of the construction,
lifting or replay must reproduce them exactly. Regenerate a file only for a
deliberate, recorded change of the emitted witnesses.
"""

import hashlib
import json
from pathlib import Path

import pytest

from kempe_covers import (
    bundled_instance_path,
    kempe_cover_witness,
    random_colored_instance,
    verify_witness,
)
from kempe_covers.serialize import instance_from_json, load_json, witness_from_json, witness_to_json

GOLDEN = Path(__file__).parent / "golden"


def canonical(witness, names=None) -> str:
    return json.dumps(witness_to_json(witness, names), sort_keys=True, separators=(",", ":")) + "\n"


def bundled(name):
    g, colorings = instance_from_json(load_json(bundled_instance_path(name)))
    return kempe_cover_witness(g, colorings["c1"], colorings["c2"]), ("c1", "c2")


def random_d4():
    return kempe_cover_witness(*random_colored_instance(2, 4, 8)), None


def random_d3():
    # an aligned d=3 witness padded to two copies: its switches alternate
    # between the copies, each switch on both before the next
    return kempe_cover_witness(*random_colored_instance(5, 3, 4)), None


CASES = {
    "k33_c1_c2.json": lambda: bundled("k33"),
    "theta_c1_c2.json": lambda: bundled("theta"),
    "random_d4_n8_seed2.json": random_d4,
    "random_d3_n4_seed5.json": random_d3,
}


@pytest.mark.parametrize("filename", sorted(CASES))
def test_witness_matches_golden_file(filename):
    witness, names = CASES[filename]()
    assert canonical(witness, names) == (GOLDEN / filename).read_text(encoding="utf-8")


@pytest.mark.parametrize("filename", sorted(CASES))
def test_golden_file_verifies(filename):
    witness, _ = witness_from_json(load_json(GOLDEN / filename))
    verdict = verify_witness(witness)
    assert verdict, verdict.reason


def test_deep_reference_witness_digest():
    # the d=5 n=6 seed-1 witness is 307,474 canonical bytes, too large to keep as a file
    text = canonical(kempe_cover_witness(*random_colored_instance(1, 5, 6)))
    assert len(text) == 307_475  # with the trailing newline
    digest = hashlib.sha256(text[:-1].encode()).hexdigest()
    assert digest == "4eddd047c340cb1c4f1e763a0a59f2bf6d77ff279fff80461aac11df22d2afe6"


@pytest.mark.parametrize(
    "seed, d, n, size, expected",
    [
        # a d=3 witness at scale: 3,000 cover edges with ids up to 3,999
        (2, 3, 1000, 148_000, "19c66174bdb65d48ef04eb9fa77293ade7002cecfa6dd7507e7934d9dfa5eda2"),
        (1, 4, 150, 141_860, "b28b3fb5833da7d108e75fb1b2bbac280e0076e41cb578883bf9b9e589144fe3"),
    ],
)
def test_wide_reference_witness_digest(seed, d, n, size, expected):
    # the shapes of perfbench's wide workload, each too large to keep as a file
    text = canonical(kempe_cover_witness(*random_colored_instance(seed, d, n)))[:-1]
    assert len(text) == size
    assert hashlib.sha256(text.encode()).hexdigest() == expected


def test_deep_d4_slot_witness_digest():
    # the largest shape of perfbench's 24 random d=4 deep slots, whose n runs from 20 to 40
    text = canonical(kempe_cover_witness(*random_colored_instance(2, 4, 40)))[:-1]
    assert len(text) == 34_062
    assert hashlib.sha256(text.encode()).hexdigest() == "d9a9bb5a818cfbd7651b7234d88fca4e3ce26bfb64f2b3fe6fd4545bc8ef1c48"
