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
