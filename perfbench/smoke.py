#!/usr/bin/env python3
"""Self-check of the benchmark on tiny inputs, in about a minute.

    python3 perfbench/smoke.py

From the root of a checkout, it checks that:
- every workload, untraced and traced, passes its gate and prints every
  metric that ``BENCHMARK.json`` names, with its unit;
- each digest gate fails (exit 1, ``"correct": false``) against a wrong
  reference digest;
- the benchmark exits non-zero without a result line in a directory that
  holds only ``BENCHMARK.json`` and the benchmark's own files.
Exits 1 when any check fails.
"""

import json
from pathlib import Path
import shutil
import subprocess
import sys

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
failures = []


def run(workload: str, trace: int, cwd=ROOT, extra=()):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace),
            "--scale", "smoke", *extra]
    done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        result = None
    return done.returncode, result, done.stderr


def check(ok: bool, what: str, detail: str = "") -> None:
    print(f"ok   {what}" if ok else f"FAIL {what} {detail}")
    if not ok:
        failures.append(what)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [w["name"] for w in spec["workloads"]]
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in listed + ["even-cycles-56-200"]:
        for trace in (0, 1):
            code, result, err = run(workload, trace)
            label = f"{workload} --trace {trace}"
            check(code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{label}: passes its gate", err.strip()[-300:])
            if result is None or workload not in listed:
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            missing = {k for k, unit in wanted[trace].items()
                       if got.get(k) != unit}
            check(not missing, f"{label}: prints every metric",
                  f"missing or wrong unit: {sorted(missing)}")

    reference = json.loads((BENCH / "reference.json").read_text())
    for scale in reference.values():
        for workload, digest in scale.items():
            scale[workload] = ({seed: "0" * 64 for seed in digest}
                               if isinstance(digest, dict) else "0" * 64)
    OUT.mkdir(exist_ok=True)
    bad = OUT / "bad-reference.json"
    bad.write_text(json.dumps(reference))
    for workload in reference["smoke"]:
        code, result, _ = run(workload, 0, extra=("--reference", str(bad)))
        check(code == 1 and result is not None and not result["correct"],
              f"{workload}: gate fails on a wrong digest")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = run(listed[0], 0, cwd=bare)
    check(code != 0 and result is None,
          f"without the program: exit {code}, no result line")
    shutil.rmtree(bare)

    print(f"{len(failures)} check(s) failed" if failures else "all checks pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
