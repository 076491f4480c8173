#!/usr/bin/env python3
"""Record the payload digests that the benchmark's correctness gate expects.

    python3 perfbench/record_reference.py

Run from the root of a checkout whose verdicts are trusted. It writes
``perfbench/reference.json``: for each scale, the digest of each sweep
workload's report and of the fuzz report for every seed in the fuzz pool.
"""

import json
import sys

import run

run.import_program()  # spectool from this checkout's src/
import workloads  # noqa: E402


def digest(argv: list) -> str:
    code, text, _ = workloads.run_cli(argv + ["--jobs", str(run.JOBS),
                                              "--json"])
    if code != 0:
        sys.exit(f"spectool {' '.join(argv)} exited with {code}")
    return workloads.payload_digest(json.loads(text))


def record(scale: dict) -> dict:
    out = {}
    for cls in (workloads.SweepLabeled, workloads.SweepBatch):
        wl = cls()
        wl.setup(0, 0, scale, None, False)
        out[wl.name] = digest(wl.args)
    out[workloads.FuzzGnp.name] = {
        str(seed): digest(["fuzz", "--dist", workloads.FUZZ_DIST,
                           "--count", str(scale["fuzz_count"]),
                           "--seed", str(seed), "--theorem", "all"])
        for seed in range(scale["fuzz_pool"])
    }
    return out


if __name__ == "__main__":
    reference = {name: record(scale)
                 for name, scale in workloads.SCALES.items()}
    with open(run.BENCH / "reference.json", "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
