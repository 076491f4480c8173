#!/usr/bin/env python3
"""The labeled n = 8 all-theorem sweep against its recorded result.

    python3 tests/n8_full_run.py

Runs ``spectool verify --theorem all --min-n 8 --max-n 8 --long-run
--jobs 2 --json`` on the ``src/`` of this checkout (about 430 s on 2 cores)
and reduces its report to the 15 x 4 totals, the size of each bound's tight
list and the report's ``payload_digest`` from ``perfbench/workloads.py``
(SHA-256 of its totals, tight lists and counterexamples). The tight lists
themselves (4.5 MB of graph6) are not kept.

The record is ``full`` in ``tests/n8_reference.json``. It is a reference
like ``perfbench/reference.json``: a change is checked against it, never
the other way round. The script prints the run's record and exits 0 when
it matches and 1 otherwise. It stays out of tier-1 for its run time;
tier-1 recomputes the record's slice digests instead
(``tests/test_n8_reference.py``).
"""

import json
import os
from pathlib import Path
import subprocess
import sys

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = Path(__file__).resolve().parent / "n8_reference.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import payload_digest  # noqa: E402

ARGV = ["verify", "--theorem", "all", "--min-n", "8", "--max-n", "8",
        "--long-run", "--jobs", "2", "--json"]


def record(report: dict) -> dict:
    """The kept part of a ``--json`` sweep report."""
    return {
        "argv": ARGV,
        "totals": report["totals"],
        "tight_counts": {bound: len(graphs)
                         for bound, graphs in report["tight"].items()},
        "counterexamples": len(report["counterexamples"]),
        "payload_digest": payload_digest(report),
    }


def run() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "spectool.cli", *ARGV], env=env,
        stdout=subprocess.PIPE, check=True)
    return record(json.loads(done.stdout))


def main() -> int:
    got = run()
    print(json.dumps(got, indent=2, sort_keys=True))
    expected = json.loads(REFERENCE.read_text())["full"]
    if got != expected:
        print("n = 8 record differs from tests/n8_reference.json",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
