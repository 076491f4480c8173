"""The benchmark's recorded payload digests, recomputed: a kernel change that
alters a report's totals, tight lists or counterexamples fails here too.

``perfbench/reference.json`` is only read. The digest is SHA-256 over those
three fields of the ``--json`` report, as ``perfbench/workloads.py`` takes it.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from spectool.cli import main

REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json")
    .read_text())["full"]


def _digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv + ["--jobs", "1", "--json"]) == 0
    report = json.loads(out.getvalue())
    core = {key: report[key] for key in ("totals", "tight", "counterexamples")}
    text = json.dumps(core, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_labeled_sweep_up_to_six_matches_its_digest():
    assert _digest(["verify", "--theorem", "all", "--min-n", "1",
                    "--max-n", "6"]) == REFERENCE["sweep-labeled-n6"]


def test_batch_sweep_at_seven_matches_its_digest():
    # The ten theorems the benchmark's batch workload names.
    theorems = ("mantel,nosal,spectral-mantel,stanley,hong,hsf,thm11,lemma3,"
                "lemma1-spectrum-symmetry,lemma2-diameter-distinct")
    assert _digest(["verify", "--theorem", theorems, "--min-n", "7",
                    "--max-n", "7"]) == REFERENCE["sweep-batch-n7"]


@pytest.mark.parametrize("seed", [0, 3])
def test_fuzz_gnp30_matches_its_digest(seed):
    assert _digest(["fuzz", "--dist", "gnp:30,0.5", "--count", "1000",
                    "--seed", str(seed), "--theorem", "all"]) \
        == REFERENCE["fuzz-gnp30"][str(seed)]


# Digests recorded on the code before stacks read their structure off A^2:
# dense samples whose structure A^2 settles, sparse ones that grow balls,
# and bipartite ones, which never have a triangle.
STACK_DIGESTS = {
    ("gnp:64,0.5", 128):
        "d11f9d450220699b9228399de0c9cd51b1b0feb4bf74a27f557fb91f64fd5229",
    ("gnp:100,0.5", 52):
        "c980f2797d040ef1fbcb49fda6cb6ec77990ce99781878dbe4c086d27e5ffc1e",
    ("gnp:30,0.1", 200):
        "849ab30fd4b83b8681c612d8206adce230a2cb945f7daf6b70581453285ee284",
    ("bipartite:15,15,0.5", 200):
        "4fce54400e14c8f3adb436b4b4fb3418820ab4901b88093225c20e549b2cada0",
}


@pytest.mark.parametrize("dist, count", sorted(STACK_DIGESTS))
def test_fuzz_stacks_match_their_digests(dist, count):
    assert _digest(["fuzz", "--dist", dist, "--count", str(count),
                    "--seed", "0", "--theorem", "all"]) \
        == STACK_DIGESTS[dist, count]
