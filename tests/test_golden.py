"""Witnesses must stay byte-identical: same edge ids, cycle order and walks.

The files under ``tests/golden/`` are canonical witness dumps (one line,
sorted keys, no spaces, trailing newline), the form ``serialize.dump_json``
writes. A refactor of the construction,
lifting or replay must reproduce them exactly. Regenerate a file only for a
deliberate, recorded change of the emitted witnesses.
"""

import hashlib
from pathlib import Path

import pytest

from kempe_covers import (
    bundled_instance_path,
    kempe_cover_witness,
    random_colored_instance,
    verify_witness,
)
from kempe_covers.serialize import (
    canonical_json,
    instance_from_json,
    load_json,
    witness_from_json,
    witness_to_json,
)

GOLDEN = Path(__file__).parent / "golden"


def canonical(witness, names=None) -> str:
    """The witness document in the form the CLI writes it."""
    return canonical_json(witness_to_json(witness, names))


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
    # the d=5 n=6 seed-1 witness is 308,406 canonical bytes, too large to keep as a file
    text = canonical(kempe_cover_witness(*random_colored_instance(1, 5, 6)))
    assert len(text) == 308_407  # with the trailing newline
    digest = hashlib.sha256(text[:-1].encode()).hexdigest()
    assert digest == "cf7a98887326f5f499d729e8c275bc9c8b37b1624dd98606e54f4b4cee9093a4"


@pytest.mark.parametrize(
    "seed, d, n, size, expected",
    [
        # a d=3 witness at scale: 3,000 cover edges with the dense ids 0..2,999
        (2, 3, 1000, 147_251, "c52510a82f82e5eacd99b6db49c466c59c5828fbfe463bf07f703d244f29f444"),
        (1, 4, 150, 142_192, "4ccc9c3ba14a6ecebe771fba264ac1f599ec7dcf011ba6978fedbfd18bc3ad61"),
    ],
    ids=["d3-n1000-seed2", "d4-n150-seed1"],
)
def test_wide_reference_witness_digest(seed, d, n, size, expected):
    # the shapes of perfbench's wide workload, each too large to keep as a file
    text = canonical(kempe_cover_witness(*random_colored_instance(seed, d, n)))[:-1]
    assert len(text) == size
    assert hashlib.sha256(text.encode()).hexdigest() == expected


def test_deep_d4_slot_witness_digest():
    # the largest shape of perfbench's 24 random d=4 deep slots, whose n runs from 20 to 40
    text = canonical(kempe_cover_witness(*random_colored_instance(2, 4, 40)))[:-1]
    assert len(text) == 34_072
    assert hashlib.sha256(text.encode()).hexdigest() == "a35eda6ba5ab524001f9c75df1239d3067549e405787297671f046001978b755"
