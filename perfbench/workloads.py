"""The benchmark's four workloads: their inputs, one step, and its gate.

A step is the unit the benchmark times: one whole CLI job for the sweep and
fuzz workloads, one graph for ``even-cycles-56-200``. Every step checks its
own output, so a wrong answer fails the run rather than only showing up in a
metric.
"""

from contextlib import redirect_stdout
from dataclasses import dataclass, field
import hashlib
import io
import json
import math
import random
import time

import numpy as np

import spectool.cli
import spectool.cycles
import spectool.graph
import spectool.spectrum

ALL_THEOREMS = (
    "mantel", "nosal", "spectral-mantel", "stanley", "hong", "hsf", "thm11",
    "lemma3", "walk-inequality", "decomposition-identity", "lemma5-peel",
    "lemma6-bondy", "thm7-even-cycles", "lemma1-spectrum-symmetry",
    "lemma2-diameter-distinct",
)
# The theorems the batch engine covered when this benchmark was defined.
# Fixed here, so the workload stays the same if the engine grows.
BATCH_THEOREMS = (
    "mantel", "nosal", "spectral-mantel", "stanley", "hong", "hsf", "thm11",
    "lemma3", "lemma1-spectrum-symmetry", "lemma2-diameter-distinct",
)
FUZZ_DIST = "gnp:30,0.5"

SCALES = {
    # fuzz_pool: fuzz seeds 0..pool-1, each with a recorded reference digest.
    # corpus_per_s: even-cycle graphs generated per second of --seconds,
    # about twice what one process checks at the defining commit.
    "full": {"labeled_max_n": 6, "batch_n": 7, "fuzz_count": 1000,
             "fuzz_pool": 32, "corpus_per_s": 120, "trace_graphs": 300},
    "smoke": {"labeled_max_n": 4, "batch_n": 6, "fuzz_count": 20,
              "fuzz_pool": 2, "corpus_per_s": 8, "trace_graphs": 4},
}


@dataclass
class Step:
    graphs: int
    verdicts: int  # verdicts attempted (graphs for even-cycles)
    failed: int  # violated + inconclusive + raised; failed certificates
    wall_s: float
    problems: list = field(default_factory=list)
    cpu_s: float = 0.0  # this process and its reaped children


def payload_digest(report: dict) -> str:
    """SHA-256 over only the totals, tight and counterexamples fields."""
    core = {key: report[key] for key in ("totals", "tight", "counterexamples")}
    text = json.dumps(core, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(argv: list) -> tuple[int, str, float]:
    """``spectool <argv>`` in this process: exit code, stdout, wall seconds."""
    out = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out):
        code = spectool.cli.main(argv)
    return code, out.getvalue(), time.perf_counter() - start


def gated_cli_step(argv: list, graphs: int, theorems, reference) -> Step:
    """Run one CLI job and check exit code, totals and payload digest."""
    verdicts = graphs * len(theorems)
    try:
        code, text, wall = run_cli(argv)
        report = json.loads(text)
    except Exception as exc:  # a crash fails every verdict of the job
        return Step(graphs, verdicts, verdicts, 0.0, [f"raised {exc!r}"])
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    totals = report["totals"]
    if sorted(totals) != sorted(theorems):
        problems.append(f"theorems {sorted(totals)}")
    for tid, counts in sorted(totals.items()):
        if sum(counts.values()) != graphs:
            problems.append(f"{tid}: {sum(counts.values())} of {graphs}")
    failed = sum(c["violated"] + c["inconclusive"] for c in totals.values())
    digest = payload_digest(report)
    if digest != reference:
        problems.append(f"digest {digest} != reference {reference}")
    return Step(graphs, verdicts, failed, wall, problems)


class SweepLabeled:
    """All 15 theorems over every labeled graph up to n = 6, per graph."""

    name = "sweep-labeled-n6"
    per_graph = False
    trace_steps = 1

    def setup(self, seed: int, seconds: float, scale: dict, reference: dict,
              trace: bool):
        max_n = scale["labeled_max_n"]
        self.graphs = sum(1 << (n * (n - 1) // 2) for n in range(1, max_n + 1))
        self.theorems = ALL_THEOREMS
        self.args = ["verify", "--theorem", "all", "--min-n", "1",
                     "--max-n", str(max_n)]
        self.reference = reference

    def step(self, index: int, jobs: int) -> Step:
        argv = self.args + ["--jobs", str(jobs), "--json"]
        return gated_cli_step(argv, self.graphs, self.theorems,
                              self.reference)


class SweepBatch(SweepLabeled):
    """The batch-engine theorems over every labeled graph at n = 7."""

    name = "sweep-batch-n7"

    def setup(self, seed: int, seconds: float, scale: dict, reference: dict,
              trace: bool):
        n = scale["batch_n"]
        self.graphs = 1 << (n * (n - 1) // 2)
        self.theorems = BATCH_THEOREMS
        self.args = ["verify", "--theorem", ",".join(BATCH_THEOREMS),
                     "--min-n", str(n), "--max-n", str(n)]
        self.reference = reference


class FuzzGnp:
    """All 15 theorems on seeded G(30, 1/2) samples.

    Step i fuzzes with a seed from a fixed pool, in an order drawn from the
    workload seed; each pool seed has a reference digest recorded.
    """

    name = "fuzz-gnp30"
    per_graph = False
    trace_steps = 1

    def setup(self, seed: int, seconds: float, scale: dict, reference: dict,
              trace: bool):
        self.count = scale["fuzz_count"]
        self.order = random.Random(seed).sample(
            range(scale["fuzz_pool"]), scale["fuzz_pool"])
        self.reference = reference

    def step(self, index: int, jobs: int) -> Step:
        fuzz_seed = self.order[index % len(self.order)]
        argv = ["fuzz", "--dist", FUZZ_DIST, "--count", str(self.count),
                "--seed", str(fuzz_seed), "--theorem", "all",
                "--jobs", str(jobs), "--json"]
        return gated_cli_step(argv, self.count, ALL_THEOREMS,
                              self.reference[str(fuzz_seed)])


def even_cycle_graph(seed: int, index: int) -> tuple[int, np.ndarray]:
    """Graph ``index`` of the Theorem 7 corpus as (n, packed edge bits).

    Even indices: complete bipartite K_{n//2, n-n//2} plus 1-8 edges inside
    the first part; odd indices: G(n, p) with p in [0.55, 0.85]; n in
    [56, 200]. Draws at or below the spectral threshold are redrawn. Bit k
    of the ``np.packbits`` array is pair k of ``np.triu_indices(n, 1)``.
    """
    rng = np.random.default_rng([seed % 2 ** 63, index])
    while True:
        n = int(rng.integers(56, 201))
        rows, cols = np.triu_indices(n, 1)
        if index % 2 == 0:
            half = n // 2
            upper = (rows < half) & (cols >= half)
            inside = np.flatnonzero(cols < half)
            extra = int(rng.integers(1, 9))
            upper[rng.choice(inside, extra, replace=False)] = True
        else:
            p = rng.uniform(0.55, 0.85)
            upper = rng.random(len(rows)) < p
        # lambda_1 >= average degree, so most draws need no eigensolve.
        threshold = math.sqrt(n * n // 4) + 1e-6
        if 2 * int(upper.sum()) / n > threshold:
            return n, np.packbits(upper)
        a = np.zeros((n, n))
        a[rows[upper], cols[upper]] = 1.0
        if np.linalg.eigvalsh(a + a.T)[-1] > threshold:
            return n, np.packbits(upper)


def edge_list(n: int, packed: np.ndarray) -> list:
    rows, cols = np.triu_indices(n, 1)
    keep = np.unpackbits(packed, count=len(rows)).astype(bool)
    return np.column_stack((rows[keep], cols[keep])).tolist()


class EvenCycles:
    """The Theorem 7 certificate chain and even-cycle search, n in [56, 200].

    Not listed in ``BENCHMARK.json``: when a near-bipartite graph's single
    intra-part edge touches vertex 0, ``has_cycle_of_length`` first searches
    a subtree that holds no cycle, of about n^(l-2) nodes. That takes 8-18 s
    for l = 6 (about one graph in 1,600) and, for l = 8 (n >= 197, about one
    in 25,000), runs into the 10^8-node budget after tens of minutes, so a
    run's time and outcome cannot be bounded.
    """

    name = "even-cycles-56-200"
    per_graph = True
    CERTIFIED_STEPS = ("threshold", "edge-density", "peel")

    def setup(self, seed: int, seconds: float, scale: dict, reference,
              trace: bool):
        self.trace_steps = scale["trace_graphs"]
        size = self.trace_steps if trace \
            else math.ceil(seconds * scale["corpus_per_s"])
        self.corpus = [even_cycle_graph(seed, i) for i in range(size)]

    def step(self, index: int, jobs: int) -> Step:
        n, packed = self.corpus[index % len(self.corpus)]
        edges = edge_list(n, packed)
        graph, spectrum = spectool.graph, spectool.spectrum
        cycles = spectool.cycles
        lengths = range(4, math.ceil(n / 28) + 1, 2)
        try:
            start = time.perf_counter()
            g = graph.from_edges(n, edges)
            spec = spectrum.eigendecompose(g)
            pipeline = cycles.theorem7_pipeline(g, spec)
            found = {l: cycles.has_cycle_of_length(g, l) for l in lengths}
            wall = time.perf_counter() - start
        except Exception as exc:
            return Step(1, 1, 1, 0.0, [f"graph {index}: raised {exc!r}"])
        problems = []
        ok = {s.name: s.ok for s in pipeline.steps}
        for name in self.CERTIFIED_STEPS:
            if not ok.get(name, False):
                problems.append(f"graph {index}: step {name} failed")
        for l, cycle in found.items():
            if cycle is None or len(cycle) != l \
                    or not cycles.validate_cycle(g, cycle):
                problems.append(f"graph {index}: no valid C_{l} ({cycle})")
        return Step(1, 1, int(bool(problems)), wall, problems)


WORKLOADS = {w.name: w for w in (SweepLabeled, SweepBatch, FuzzGnp, EvenCycles)}
