#!/usr/bin/env python3
"""Benchmark for spectool: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload sweep-labeled-n6 --seed 1 \\
        --seconds 30 --trace 0

Run it from the root of a checkout; it imports spectool from ``src/`` there
and fails (exit 2, no result line) when that is missing.

``even-cycles-56-200`` runs here but is not listed in ``BENCHMARK.json``; see
its class in ``workloads.py``.

``--trace 0`` repeats the workload's step (a whole CLI job, or one graph for
``even-cycles-56-200``) until ``--seconds`` have passed and reports the
end-to-end metrics. ``--trace 1`` runs a fixed amount of work in one worker
twice, untraced and then traced, and reports the per-layer metrics of the
traced pass plus the tracing overhead; its spans go to ``.bench_out/``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it records the environment. ``attempted`` counts verdicts
(graphs x theorems), or graphs for even-cycles; ``failed`` counts violated,
inconclusive and crashed verdicts, or graphs with a failed certificate or a
missing or invalid cycle. A failed correctness gate exits with 1.

BLAS and OpenMP are pinned to one thread before numpy loads; forked workers
inherit the setting. Sweep and fuzz jobs use ``JOBS`` workers.
"""

import os
import time

PROCESS_START = time.perf_counter()
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
JOBS = 2
IMPORT_PROBES = 4  # extra interpreters timing the program's import


def import_program() -> float:
    """Import numpy and spectool from this checkout; seconds taken."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import spectool
    import spectool.cli  # noqa: F401

    if not Path(spectool.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"spectool imported from {spectool.__file__}")
    return time.perf_counter() - start


def probe_imports(count: int) -> list[float]:
    """Import time measured in ``count`` fresh interpreters, one at a time."""
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-import"],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy has no dict form
        blas_text = "unknown"
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas_text,
            "threads": {var: os.environ[var] for var in THREAD_VARS},
            "jobs": JOBS}


def run_steps(workload, count: int | None, seconds: float, jobs: int):
    """``count`` steps, or steps until ``seconds`` pass; (steps, wall)."""
    steps = []
    start = time.perf_counter()
    while True:
        cpu_before = cpu_seconds()
        step = workload.step(len(steps), jobs)
        step.cpu_s = cpu_seconds() - cpu_before
        steps.append(step)
        wall = time.perf_counter() - start
        if (len(steps) >= count) if count is not None else (wall >= seconds):
            break
    return steps, wall


def end_to_end(steps, wall: float, setup_s: float, per_graph: bool) -> dict:
    graphs = sum(s.graphs for s in steps)
    if per_graph:  # a step is one graph: whole-run rate, latency percentiles
        latencies = [s.wall_s * 1e3 for s in steps]
        return {
            "setup_s": (setup_s, "s"),
            "graphs_per_s": (graphs / wall, "1/s"),
            "cpu_ms_per_graph": (sum(s.cpu_s for s in steps) * 1e3 / graphs,
                                 "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "graph_ms_p50": (statistics.median(latencies), "ms"),
            "graph_ms_p99": (statistics.quantiles(
                latencies, n=100, method="inclusive")[98], "ms"),
        }
    # A step is a whole job: medians over jobs damp job-to-job changes in
    # machine speed.
    return {
        "setup_s": (setup_s, "s"),
        "graphs_per_s": (statistics.median(s.graphs / s.wall_s for s in steps),
                         "1/s"),
        "cpu_ms_per_graph": (statistics.median(s.cpu_s * 1e3 / s.graphs
                                               for s in steps), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(workload, trace_stem: Path):
    """Untraced then traced pass over the same work, both in one worker."""
    import tracer

    count = workload.trace_steps
    untraced, untraced_wall = run_steps(workload, count, 0, 1)
    spans = tracer.Tracer()
    spans.install()
    try:
        traced, traced_wall = run_steps(workload, count, 0, 1)
    finally:
        spans.uninstall()
    OUT.mkdir(exist_ok=True)
    spans.write(trace_stem)
    metrics = spans.metrics()
    metrics["trace.untraced_s"] = (untraced_wall, "s")
    metrics["trace.traced_s"] = (traced_wall, "s")
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1, "ratio")
    return untraced + traced, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for checking the benchmark")
    parser.add_argument("--reference", default=str(BENCH / "reference.json"),
                        help="recorded payload digests")
    parser.add_argument("--probe-import", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    try:
        import_s = import_program()
    except ImportError as exc:
        print(f"error: cannot import spectool from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    if args.probe_import:
        print(import_s)
        return 0

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: --workload must be one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    with open(args.reference) as handle:
        reference = json.load(handle)[args.scale].get(args.workload)
    workload = workloads.WORKLOADS[args.workload]()
    gen_start = time.perf_counter()
    workload.setup(args.seed, args.seconds, workloads.SCALES[args.scale],
                   reference, bool(args.trace))
    ready = time.perf_counter()

    if args.trace:
        stem = OUT / f"trace-{args.workload}-seed{args.seed}"
        steps, metrics = per_layer(workload, stem)
    else:
        # Set-up is imports plus input generation; the import part is the
        # median of this process and a few fresh interpreters.
        imports = [import_s] + probe_imports(IMPORT_PROBES)
        setup_s = (ready - PROCESS_START) - import_s \
            + statistics.median(imports)
        steps, wall = run_steps(workload, None, args.seconds, JOBS)
        metrics = end_to_end(steps, wall, setup_s, workload.per_graph)

    problems = [p for s in steps for p in s.problems]
    for problem in problems[:20]:
        print(f"gate: {problem}", file=sys.stderr)
    print(json.dumps({"env": environment(), "workload": args.workload,
                      "seed": args.seed, "scale": args.scale,
                      "setup_gen_s": ready - gen_start}))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(s.verdicts for s in steps),
        "failed": sum(s.failed for s in steps),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
