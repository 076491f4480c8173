"""The recorded n = 8 ground truth, in the part tier-1 can afford.

``tests/n8_reference.json`` holds, for 32 slices of 4,096 labeled n = 8
masks spread over [0, 2^28) and including both ends, the
``payload_digest`` of ``perfbench/workloads.py`` (SHA-256 of the totals,
sorted tight lists and counterexamples) of each slice over all 15
theorems; and, under ``full``, the record of the whole labeled n = 8
sweep, which ``tests/n8_full_run.py`` checks outside tier-1. Tier-1 checks
n <= 7 exhaustively, so a kernel change that is wrong only at n = 8 fails
here. The record is only read: it is never re-recorded to make a change
pass.
"""

import json
from pathlib import Path

from spectool.verify import ALL_THEOREMS, _finalize, _vector_shard

from n8_full_run import payload_digest

REFERENCE = json.loads(
    (Path(__file__).resolve().parent / "n8_reference.json").read_text())
N = 8
SLICE = 4096
SLICES = 32


def slice_starts() -> list:
    """The first mask of each slice: 0, evenly spaced, and 2^28 - 4,096."""
    last = (1 << N * (N - 1) // 2) - SLICE
    return [i * last // (SLICES - 1) for i in range(SLICES)]


def slice_digest(start: int) -> str:
    """SHA-256 of one slice's totals, tight lists and counterexamples."""
    part = _vector_shard((N, range(start, start + SLICE), ALL_THEOREMS, False))
    return payload_digest(_finalize({}, part, 0.0).payload())


def test_slices_are_the_recorded_ones():
    slices = REFERENCE["slices"]
    assert (slices["n"], slices["size"]) == (N, SLICE)
    assert slices["starts"] == slice_starts()
    assert slices["starts"][0] == 0
    assert slices["starts"][-1] + SLICE == 1 << 28


def test_n8_slices_match_their_digests():
    slices = REFERENCE["slices"]
    got = [slice_digest(start) for start in slices["starts"]]
    assert got == slices["digests"]
