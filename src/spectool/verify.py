"""Exhaustive enumeration and fuzzing harness over all theorem checkers.

Labeled enumeration in edge-bitmask order is the trusted ground truth;
canonical dedup (lexicographically minimal adjacency bitstring over vertex
permutations) only selects which masks a sweep visits, one per isomorphism
class, and sends them to the same batch engine and resolver as labeled
masks. Fuzz runs draw seeded samples and send stacks of them, of any
order, to the same engine and resolver. The per-graph checkers are the
reference and the resolver: they decide only the graphs the engine hands
back. Sweeps, fuzz runs and the audit partition their work into fixed
shards, so reports are identical for any worker count; merging is
commutative (counters plus sorted lists).

With more than one job, ``_run_shards`` forks one worker per job (and per
shard at most). Each worker claims the next unclaimed shard from a shared
counter until none is left, then sends its parts back over its own pipe;
the parent merges them in shard order. A worker's exception is raised in
the caller, caused by one that holds the worker's traceback, and a worker
that dies without sending, say killed by the OOM killer, is a
``WorkerExitError`` naming its exit code, not a hang.
"""

from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
import itertools
import json
import math
import multiprocessing
import time

import numpy as np

from . import _exhaustive
from ._exhaustive import MAX_EXHAUSTIVE_N, WALK_DEPTH
from .bounds import BoundKind, bound_value, mantel_check, spectral_mantel_classify
from .cycles import (
    DEFAULT_BUDGET,
    bondy_pancyclicity_check,
    consecutive_even_cycles_check,
    erdos_peel,
)
from .errors import (ConfigurationError, OrderTooLargeError,
                     PreconditionViolatedError, WorkerExitError)
from .families import (bernoulli_rows, bipartite_slots, gnp_slots,
                       graph_of_rows, random_regular)
from .graph import (
    Bipartition,
    Connectivity,
    Graph,
    NeighborhoodDegreeSums,
    bipartition,
    connectivity,
    first_triangle,
    from_edge_mask,
    neighborhood_degree_sums,
)
from .graph6 import from_edge_list, from_graph6, graph_text, masks_to_graph6
from .spectrum import (
    EQ_EPS,
    Spectrum,
    distinct_eigenvalue_count,
    eigendecompose,
    is_spectrum_symmetric,
)
from .verdicts import CounterexampleReport, Verdict
from .walks import (
    WalkTable,
    decomposition_identity_check,
    walk_counts,
    walk_inequality_holds,
)

MAX_CANONICAL_N = 7


class TheoremId(Enum):
    MANTEL = "mantel"
    NOSAL = "nosal"
    SPECTRAL_MANTEL = "spectral-mantel"
    STANLEY = "stanley"
    HONG = "hong"
    HSF = "hsf"
    THM11 = "thm11"
    LEMMA3_BOUND = "lemma3"
    WALK_INEQUALITY = "walk-inequality"
    DECOMPOSITION_IDENTITY = "decomposition-identity"
    LEMMA5_PEEL = "lemma5-peel"
    LEMMA6_BONDY = "lemma6-bondy"
    THM7_EVEN_CYCLES = "thm7-even-cycles"
    LEMMA1_SPECTRUM_SYMMETRY = "lemma1-spectrum-symmetry"
    LEMMA2_DIAMETER_DISTINCT = "lemma2-diameter-distinct"


ALL_THEOREMS = tuple(TheoremId)

BOUND_THEOREMS = {
    TheoremId.STANLEY: BoundKind.STANLEY,
    TheoremId.HONG: BoundKind.HONG,
    TheoremId.HSF: BoundKind.HONG_SHU_FANG_NIKIFOROV,
    TheoremId.THM11: BoundKind.CLOSED_NEIGHBORHOOD,
    TheoremId.LEMMA3_BOUND: BoundKind.OPEN_NEIGHBORHOOD,
}

def coerce_theorems(values) -> tuple[TheoremId, ...]:
    """The ids of ``values``, in order. An unknown id raises
    ``ConfigurationError`` (a ``ValueError``; the command line exits 3)
    naming the valid ids, and so do an empty list, since the run would check
    nothing, and a repeated id, since each one would count every graph
    again."""
    try:
        ids = tuple(TheoremId(v) for v in values)
        if not ids:
            raise ValueError("no theorem ids given")
        repeated = sorted({t.value for t in ids if ids.count(t) > 1})
        if repeated:
            raise ValueError(f"theorem ids listed more than once: "
                             f"{', '.join(repeated)}")
    except ValueError as exc:
        raise ConfigurationError(
            f"{exc}; valid ids: "
            + ", ".join(t.value for t in ALL_THEOREMS)) from None
    return ids


class GraphFacts:
    """One graph's shared quantities, each computed on first use.

    Every checker a battery runs on the graph reads the same object, so the
    spectrum, the walk table and the neighborhood sums are built once per
    graph. ``tight_bounds`` collects the bound theorems whose value met
    lambda_1 within ``EQ_EPS``, recorded when the bound is checked.
    """

    def __init__(self, g: Graph):
        self.g = g
        self.tight_bounds: set[TheoremId] = set()

    @cached_property
    def spec(self) -> Spectrum:
        return eigendecompose(self.g)

    @cached_property
    def sums(self) -> NeighborhoodDegreeSums:
        return neighborhood_degree_sums(self.g)

    @cached_property
    def walks(self) -> WalkTable:
        """Walk table of depth ``WALK_DEPTH``, for both walk checkers."""
        return walk_counts(self.g, WALK_DEPTH)

    @cached_property
    def connectivity(self) -> Connectivity:
        return connectivity(self.g)

    @cached_property
    def bipartition(self) -> Bipartition | None:
        return bipartition(self.g)


def _check_bound(facts: GraphFacts, theorem: TheoremId) -> Verdict:
    g = facts.g
    try:
        value = bound_value(g, BOUND_THEOREMS[theorem], facts.sums)
    except PreconditionViolatedError as exc:
        return Verdict.vacuous(str(exc))
    lambda1 = facts.spec.lambda1
    slack = value - lambda1
    if abs(slack) <= EQ_EPS:
        facts.tight_bounds.add(theorem)
    if slack >= -EQ_EPS:
        return Verdict.holds()
    return Verdict.violated(CounterexampleReport.of_graph(
        g, theorem.value,
        {"lambda1": lambda1, "bound": value, "slack": slack, "m": g.m}))


def _check_mantel(facts: GraphFacts) -> Verdict:
    return mantel_check(facts.g)


def _check_nosal(facts: GraphFacts) -> Verdict:
    g = facts.g
    lam1 = facts.spec.lambda1
    sqrt_m = math.sqrt(g.m)
    if lam1 <= sqrt_m + EQ_EPS:
        return Verdict.vacuous(f"lambda1 {lam1:.6f} <= sqrt(m) {sqrt_m:.6f}")
    if first_triangle(g) is not None:
        return Verdict.holds()
    return Verdict.violated(CounterexampleReport.of_graph(
        g, TheoremId.NOSAL.value,
        {"lambda1": lam1, "m": g.m, "sqrt_m": sqrt_m}))


def _check_spectral_mantel(facts: GraphFacts) -> Verdict:
    g = facts.g
    result = spectral_mantel_classify(g, facts.spec)
    if result.kind == "below_threshold":
        return Verdict.vacuous("lambda1 below sqrt(m)")
    if result.kind in ("has_triangle", "extremal_complete_bipartite"):
        return Verdict.holds(result.kind)
    return Verdict.violated(CounterexampleReport.of_graph(
        g, TheoremId.SPECTRAL_MANTEL.value,
        {"lambda1": result.lambda1, "sqrt_m": result.sqrt_m, "m": g.m},
        {"kind": result.kind}))


def _check_walk_inequality(facts: GraphFacts) -> Verdict:
    g = facts.g
    if g.m == 0:
        return Verdict.vacuous("edgeless graph: no evaluable index")
    table = facts.walks
    if walk_inequality_holds(g, WALK_DEPTH, table, facts.sums):
        return Verdict.holds()
    return Verdict.violated(CounterexampleReport.of_graph(
        g, TheoremId.WALK_INEQUALITY.value,
        {"m": g.m, "K": WALK_DEPTH},
        {"totals": [str(w) for w in table.totals]}))


def _check_decomposition(facts: GraphFacts) -> Verdict:
    g = facts.g
    if decomposition_identity_check(g, WALK_DEPTH, facts.walks, facts.sums):
        return Verdict.holds()
    return Verdict.violated(CounterexampleReport.of_graph(
        g, TheoremId.DECOMPOSITION_IDENTITY.value,
        {"m": g.m, "K": WALK_DEPTH}))


def _check_lemma5_peel(facts: GraphFacts) -> Verdict:
    g = facts.g
    m = g.m
    applicable = [k for k in (1, 2, 3) if m >= k * g.n]
    if not applicable:
        return Verdict.vacuous("m < kn for k in {1,2,3}")
    for k in applicable:
        peel = erdos_peel(g, k)
        if peel.n_prime == 0 or peel.min_degree < k + 1:
            return Verdict.violated(CounterexampleReport.of_graph(
                g, TheoremId.LEMMA5_PEEL.value,
                {"k": k, "m": m, "n": g.n, "surviving": peel.n_prime,
                 "min_degree": peel.min_degree if peel.min_degree is not None else -1}))
    return Verdict.holds()


def _check_lemma6_bondy(facts: GraphFacts) -> Verdict:
    return bondy_pancyclicity_check(facts.g)


def _check_thm7(facts: GraphFacts) -> Verdict:
    return consecutive_even_cycles_check(facts.g, spec=facts.spec)


def _check_lemma1(facts: GraphFacts) -> Verdict:
    symmetric = is_spectrum_symmetric(facts.spec)
    bip = facts.bipartition is not None
    if symmetric == bip:
        return Verdict.holds()
    return Verdict.violated(CounterexampleReport.of_graph(
        facts.g, TheoremId.LEMMA1_SPECTRUM_SYMMETRY.value,
        {"m": facts.g.m},
        {"spectrum_symmetric": symmetric, "bipartite": bip}))


def _check_lemma2(facts: GraphFacts) -> Verdict:
    conn = facts.connectivity
    if not conn.is_connected:
        return Verdict.vacuous("disconnected")
    distinct = distinct_eigenvalue_count(facts.spec)
    if distinct >= conn.diameter + 1:
        return Verdict.holds()
    return Verdict.violated(CounterexampleReport.of_graph(
        facts.g, TheoremId.LEMMA2_DIAMETER_DISTINCT.value,
        {"diameter": conn.diameter, "distinct_eigenvalues": distinct}))


_CHECKERS = {
    TheoremId.MANTEL: _check_mantel,
    TheoremId.NOSAL: _check_nosal,
    TheoremId.SPECTRAL_MANTEL: _check_spectral_mantel,
    TheoremId.WALK_INEQUALITY: _check_walk_inequality,
    TheoremId.DECOMPOSITION_IDENTITY: _check_decomposition,
    TheoremId.LEMMA5_PEEL: _check_lemma5_peel,
    TheoremId.LEMMA6_BONDY: _check_lemma6_bondy,
    TheoremId.THM7_EVEN_CYCLES: _check_thm7,
    TheoremId.LEMMA1_SPECTRUM_SYMMETRY: _check_lemma1,
    TheoremId.LEMMA2_DIAMETER_DISTINCT: _check_lemma2,
}


def check_theorem(g: Graph, theorem, *,
                  facts: GraphFacts | None = None) -> Verdict:
    """Deterministic verdict of one theorem on one graph.

    ``facts`` shares g's computed quantities across calls.
    """
    theorem = TheoremId(theorem)
    if facts is None:
        facts = GraphFacts(g)
    if theorem in BOUND_THEOREMS:
        return _check_bound(facts, theorem)
    return _CHECKERS[theorem](facts)


def replay(report: CounterexampleReport) -> Verdict:
    """Re-run the reported checker on the embedded graph."""
    if report.graph_format == "graph6":
        g = from_graph6(report.graph)
    else:
        g = from_edge_list(report.graph)
    return check_theorem(g, report.theorem)


# ---------------------------------------------------------------------------
# Enumeration


def labeled_graph_count(n: int) -> int:
    return 1 << (n * (n - 1) // 2)


def _perm_edge_table(n: int) -> np.ndarray:
    """table[p, e] = edge index of the image of edge e under permutation p."""
    pairs = [(u, v) for v in range(n) for u in range(v)]
    index = {}
    for e, (u, v) in enumerate(pairs):
        index[(u, v)] = e
        index[(v, u)] = e
    perms = list(itertools.permutations(range(n)))
    table = np.empty((len(perms), len(pairs)), dtype=np.int64)
    for p, perm in enumerate(perms):
        for e, (u, v) in enumerate(pairs):
            table[p, e] = index[(perm[u], perm[v])]
    return table


def _bit_reversal(nbits: int) -> np.ndarray:
    """rev[x] flips bit significance so that edge 0 becomes the top bit.

    Minimizing rev over an orbit is exactly lexicographic minimization of the
    adjacency bitstring x(0,1), x(0,2), ... (the graph6 body ordering).
    """
    size = 1 << nbits
    ar = np.arange(size, dtype=np.int64)
    rev = np.zeros(size, dtype=np.int64)
    for e in range(nbits):
        rev |= ((ar >> e) & 1) << (nbits - 1 - e)
    return rev


def _orbit_masks(mask: int, table: np.ndarray) -> np.ndarray:
    images = np.zeros(table.shape[0], dtype=np.int64)
    e = 0
    rest = mask
    while rest:
        if rest & 1:
            images |= np.left_shift(np.int64(1), table[:, e])
        rest >>= 1
        e += 1
    return images


def canonical_masks(n: int) -> list[int]:
    """Edge masks of the isomorphism-class representatives on n vertices.

    A representative is the graph whose adjacency bitstring is
    lexicographically minimal over all vertex permutations; scanning masks in
    bitstring order and marking each new orbit visits exactly those.
    """
    if n > MAX_CANONICAL_N:
        raise OrderTooLargeError(f"canonical enumeration capped at n = "
                                 f"{MAX_CANONICAL_N}")
    nbits = n * (n - 1) // 2
    if nbits == 0:
        return [0]
    table = _perm_edge_table(n)
    rev = _bit_reversal(nbits)
    visited = np.zeros(1 << nbits, dtype=bool)
    reps = []
    for key in range(1 << nbits):
        mask = int(rev[key])
        if visited[mask]:
            continue
        reps.append(mask)
        visited[_orbit_masks(mask, table)] = True
    return reps


# ---------------------------------------------------------------------------
# Sweeping


@dataclass(frozen=True)
class SweepConfig:
    n_min: int = 1
    n_max: int = 6
    connected_only: bool = False
    dedup: str = "labeled"
    theorems: tuple = ALL_THEOREMS
    jobs: int = 1
    long_run: bool = False

    def validate(self) -> None:
        if not 1 <= self.n_min <= self.n_max:
            raise ConfigurationError("need 1 <= n_min <= n_max")
        if self.n_max > MAX_EXHAUSTIVE_N:
            raise OrderTooLargeError(
                f"exhaustive sweeps capped at n = {MAX_EXHAUSTIVE_N}")
        if self.dedup == "labeled" and self.n_max >= 8 and not self.long_run:
            raise OrderTooLargeError(
                "labeled n = 8 (268M graphs) requires the long-run flag")
        if self.dedup == "canonical" and self.n_max > MAX_CANONICAL_N:
            raise OrderTooLargeError(
                f"canonical dedup capped at n = {MAX_CANONICAL_N}")
        if self.dedup not in ("labeled", "canonical"):
            raise ConfigurationError(f"unknown dedup mode {self.dedup!r}")
        if self.jobs < 1:
            raise ConfigurationError("jobs must be positive")
        self.theorem_ids()  # raises on an unknown or repeated id

    def theorem_ids(self) -> tuple[TheoremId, ...]:
        return coerce_theorems(self.theorems)

    def to_dict(self) -> dict:
        return {
            "n_min": self.n_min, "n_max": self.n_max,
            "connected_only": self.connected_only, "dedup": self.dedup,
            "theorems": [TheoremId(t).value for t in self.theorems],
            "budget": DEFAULT_BUDGET, "walk_depth": WALK_DEPTH,
        }


@dataclass
class SweepReport:
    config: dict
    totals: dict  # theorem id -> {"holds": int, ...}
    tight: dict  # bound id -> sorted graph6 list
    counterexamples: list
    runtime_ms: float | None = None

    def violated_count(self) -> int:
        return sum(t["violated"] for t in self.totals.values())

    def inconclusive_count(self) -> int:
        return sum(t["inconclusive"] for t in self.totals.values())

    def payload(self) -> dict:
        """Semantic content: everything except the wall-clock diagnostic."""
        return {
            "config": self.config,
            "totals": self.totals,
            "tight": self.tight,
            "counterexamples": [c.to_dict() for c in self.counterexamples],
        }

    def to_dict(self, include_runtime: bool = False) -> dict:
        out = self.payload()
        if include_runtime:
            out["runtime_ms"] = self.runtime_ms
        return out

    def to_json(self, include_runtime: bool = False) -> str:
        return json.dumps(self.to_dict(include_runtime), indent=2,
                          sort_keys=True)


def _empty_partial(theorems) -> dict:
    return {
        "totals": {
            t.value: {"holds": 0, "vacuous": 0, "violated": 0, "inconclusive": 0}
            for t in theorems
        },
        "tight": {BOUND_THEOREMS[t].value: [] for t in theorems
                  if t in BOUND_THEOREMS},
        "counterexamples": [],
    }


def _merge(acc: dict, part: dict) -> dict:
    """Fold one shard's result into ``acc``: ints add, lists extend and
    dicts merge key by key."""
    for key, value in part.items():
        if key not in acc:
            acc[key] = value
        elif isinstance(value, dict):
            _merge(acc[key], value)
        else:
            acc[key] += value
    return acc


def _battery(g: Graph, theorems, partial: dict) -> None:
    facts = GraphFacts(g)
    text = None
    for t in theorems:
        verdict = check_theorem(g, t, facts=facts)
        partial["totals"][t.value][verdict.status] += 1
        if verdict.counterexample is not None:
            partial["counterexamples"].append(verdict.counterexample)
        if t in facts.tight_bounds:
            if text is None:
                text = graph_text(g)[1]
            partial["tight"][BOUND_THEOREMS[t].value].append(text)


def _resolved(result: dict, texts, graph) -> dict:
    """A shard's partial result from the batch engine's ``result``, whose
    graphs are names: ``texts`` turns a list of them into their report
    texts and ``graph`` one into a ``Graph``.

    The graphs the engine hands back get the per-graph reference checkers
    for the theorems it left open: per theorem, the graphs
    ``_exhaustive.verdict_table`` marks undecided (a failed trace
    certificate, or outside a batch kernel's exact range) and its apparent
    violations.
    """
    partial = {"totals": result["counts"], "counterexamples": [],
               "tight": {bound: texts(names)
                         for bound, names in result["tight"].items()}}
    open_theorems: dict[int, list] = {}
    for tid_value, names in result["resolve"].items():
        for name in names:
            open_theorems.setdefault(name, []).append(TheoremId(tid_value))
    for name, ids in open_theorems.items():
        _battery(graph(name), ids, partial)
    return partial


def _vector_shard(args) -> dict:
    """Batch engine over a shard's masks, a range of labeled ones or a list
    of canonical ones, with the per-graph battery for the graphs it hands
    back."""
    n, masks, theorems, connected_only = args
    values = {t.value for t in theorems}
    if isinstance(masks, range):
        result = _exhaustive.sweep_range(n, masks.start, masks.stop, values,
                                         connected_only)
    else:
        result = _exhaustive.sweep_masks(
            n, np.array(masks, dtype=np.int64), values, connected_only)
    return _resolved(result, lambda names: masks_to_graph6(n, names),
                     lambda mask: from_edge_mask(n, mask))


def _claim_shards(worker, shard_args, counter, sender) -> None:
    """A forked worker's body: run ``worker`` on each shard whose index it
    claims from ``counter``, until none is left, then send the parent its
    ``(index, part)`` pairs and None, or the exception a shard raised and
    its formatted traceback."""
    try:
        parts = []
        while True:
            with counter.get_lock():
                index = counter.value
                counter.value += 1
            if index >= len(shard_args):
                break
            parts.append((index, worker(shard_args[index])))
        sent = (parts, None)
    except Exception as exc:
        import traceback  # only a failing worker pays for the import

        sent = (exc, traceback.format_exc())
    try:
        sender.send(sent)
    except Exception as exc:  # parts or an exception that do not pickle
        sender.send((RuntimeError(repr(sent[0])), sent[1] or repr(exc)))


def _fork_join(worker, shard_args, workers: int) -> list:
    """Each shard's part, in shard order, from ``workers`` forked processes
    that claim shards from one shared counter and send back what they did
    over a pipe each, read as they arrive. A worker's exception is raised
    here, caused by a ``RemoteTraceback`` that holds the worker's
    traceback, as ``multiprocessing.pool`` raises it; a worker that exits
    without sending raises ``WorkerExitError`` with its exit code, without
    waiting for the others. Every child is terminated and joined on the
    way out."""
    # Imported here: at module level it would add about 5 ms to every
    # start-up, forking or not.
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    counter = ctx.Value("i", 0)
    children = {}
    try:
        for _ in range(workers):
            receiver, sender = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_claim_shards,
                                args=(worker, shard_args, counter, sender))
            child.start()
            sender.close()  # so the child's exit reads as EOF here
            children[receiver] = child
        parts, pending = [], dict(children)
        while pending:
            receiver = wait(list(pending))[0]
            child = pending.pop(receiver)
            try:
                sent, trace = receiver.recv()
            except EOFError:
                child.join()
                raise WorkerExitError(
                    f"a shard worker exited with code {child.exitcode} "
                    "before sending its results") from None
            if trace is not None:
                from multiprocessing.pool import RemoteTraceback

                raise sent from RemoteTraceback(trace)
            parts += sent
    finally:
        for receiver, child in children.items():
            child.terminate()
            child.join()
            receiver.close()
    return [part for _, part in sorted(parts, key=lambda pair: pair[0])]


def _run_shards(worker, shard_args, jobs: int, merged: dict) -> dict:
    """``merged`` with the worker's result for each shard merged in, in shard
    order, so the result is the same for any ``jobs``: computed lazily in
    this process for one job or one shard, otherwise by ``_fork_join`` with
    one forked worker per job, and per shard at most. A worker that raises
    or dies fails the call."""
    if jobs <= 1 or len(shard_args) <= 1:
        parts = map(worker, shard_args)
    else:
        parts = _fork_join(worker, shard_args, min(jobs, len(shard_args)))
    for part in parts:
        _merge(merged, part)
    return merged


def _finalize(config_dict: dict, merged: dict, started: float) -> SweepReport:
    tight = {bid: sorted(graphs) for bid, graphs in merged["tight"].items()}
    counterexamples = sorted(
        merged["counterexamples"], key=lambda c: (c.theorem, c.graph))
    return SweepReport(
        config=config_dict,
        totals=merged["totals"],
        tight=tight,
        counterexamples=counterexamples,
        runtime_ms=(time.perf_counter() - started) * 1e3,
    )


SHARDS_PER_ORDER = 64


def _shard_step(count: int, unit: int) -> int:
    """Graphs per shard of ``count``: whole ``unit``s (a ``BLOCK`` of masks,
    a stack of samples), as few as cut the graphs into at most
    ``SHARDS_PER_ORDER`` shards, so small runs do not split into many tiny
    batch calls and every shard but the last ends on a whole unit."""
    return unit * max(1, math.ceil(count / (SHARDS_PER_ORDER * unit)))


def _shards(n_min: int, n_max: int, dedup: str = "labeled") -> list:
    """``(n, masks)`` per shard: each order's masks, a range of labeled ones
    or a list of canonical ones, cut by ``_shard_step``."""
    shards = []
    for n in range(n_min, n_max + 1):
        if dedup == "labeled":
            masks = range(labeled_graph_count(n))
        else:
            masks = canonical_masks(n)
        step = _shard_step(len(masks), _exhaustive.BLOCK)
        shards += [(n, masks[i:i + step]) for i in range(0, len(masks), step)]
    return shards


def sweep(config: SweepConfig) -> SweepReport:
    """Run every requested theorem over the configured graph space."""
    config.validate()
    started = time.perf_counter()
    theorems = config.theorem_ids()
    shard_args = [(n, masks, theorems, config.connected_only)
                  for n, masks in _shards(config.n_min, config.n_max,
                                          config.dedup)]
    merged = _run_shards(_vector_shard, shard_args, config.jobs,
                         _empty_partial(theorems))
    return _finalize(config.to_dict(), merged, started)


# ---------------------------------------------------------------------------
# Fuzzing


def parse_distribution(spec_text: str) -> tuple:
    """Parse "gnp:30,0.5" / "bipartite:8,8,0.7" / "regular:20,3", checking
    every parameter; raises ``ConfigurationError`` (a ``ValueError``; the
    command line exits 3) naming a bad spec."""
    name, _, params_text = spec_text.partition(":")
    params = [p for p in params_text.split(",") if p]
    try:
        if name == "gnp":
            n, p = int(params[0]), float(params[1])
            if len(params) != 2 or n < 1 or not 0 <= p <= 1:
                raise ValueError
            return ("gnp", n, p)
        if name == "bipartite":
            a, b, p = int(params[0]), int(params[1]), float(params[2])
            if (len(params) != 3 or a < 0 or b < 0 or a + b < 1
                    or not 0 <= p <= 1):
                raise ValueError
            return ("bipartite", a, b, p)
        if name == "regular":
            n, k = int(params[0]), int(params[1])
            if len(params) != 2 or not 0 <= k < n or (n * k) % 2:
                raise ValueError
            return ("regular", n, k)
    except (ValueError, IndexError):
        raise ConfigurationError(
            f"bad distribution spec {spec_text!r}") from None
    raise ConfigurationError(f"unknown distribution {name!r}")


def _distribution_text(dist: tuple) -> str:
    """The text form of a distribution tuple: ("gnp", 30, 0.5) -> "gnp:30,0.5"."""
    return f"{dist[0]}:{','.join(str(x) for x in dist[1:])}"


def _sample_seed(seed: int, index: int) -> int:
    # Stable per-sample derivation, independent of worker layout.
    return (seed * 0x9E3779B1 + index * 0x85EBCA77) & 0x7FFFFFFF


def _stack_rows(dist: tuple, seeds: list) -> np.ndarray:
    """(len(seeds), n, ceil(n / 64)) ``uint64`` rows of the samples drawn
    from ``seeds``, straight from the draws for ``gnp`` and ``bipartite``."""
    if dist[0] == "regular":
        width = 8 * -(-dist[1] // 64)
        packed = np.frombuffer(b"".join(
            row.to_bytes(width, "little") for s in seeds
            for row in random_regular(dist[1], dist[2], s).adj),
            dtype=np.uint8).reshape(len(seeds), dist[1], width)
    else:
        packed = bernoulli_rows(gnp_slots(dist[1]) if dist[0] == "gnp"
                                else bipartite_slots(dist[1], dist[2]),
                                dist[-1], seeds)
    return np.pad(packed, ((0, 0), (0, 0), (0, -packed.shape[2] % 8))
                  ).view("<u8")


def _stack_size(dist: tuple) -> int:
    """``_exhaustive.stack_size`` at the order of ``dist``'s samples."""
    return _exhaustive.stack_size(
        dist[1] + dist[2] if dist[0] == "bipartite" else dist[1])


def _fuzz_shard(args) -> dict:
    """The samples lo..hi-1, drawn ``_stack_size(dist)`` at a time and sent
    through the batch engine as rows. A row becomes a ``Graph``, and a
    ``Graph`` its report text, only when the per-graph battery or the tight
    census needs it, and at most once per stack, however many bounds it is
    tight for."""
    dist, lo, hi, seed, theorems = args
    values = {t.value for t in theorems}
    partial = _empty_partial(theorems)
    size = _stack_size(dist)
    for start in range(lo, hi, size):
        rows = _stack_rows(dist, [_sample_seed(seed, index) for index
                                  in range(start, min(start + size, hi))])

        @cache
        def graph(i: int) -> Graph:
            return graph_of_rows(rows[i])

        @cache
        def text(i: int) -> str:
            return graph_text(graph(i))[1]

        _merge(partial, _resolved(
            _exhaustive.sweep_stack(rows, values),
            lambda names: [text(i) for i in names], graph))
    return partial


def fuzz(distribution, count: int, seed: int,
         theorems=ALL_THEOREMS, jobs: int = 1) -> SweepReport:
    """Randomized sweep: ``count`` seeded samples from one distribution,
    given as text or as the tuple ``parse_distribution`` returns; both are
    checked the same way before any sample is drawn."""
    dist = parse_distribution(distribution if isinstance(distribution, str)
                              else _distribution_text(distribution))
    if count < 0:
        raise ConfigurationError("count must be nonnegative")
    if jobs < 1:
        raise ConfigurationError("jobs must be positive")
    theorem_ids = coerce_theorems(theorems)
    started = time.perf_counter()
    step = _shard_step(count, _stack_size(dist))
    shard_args = [(dist, lo, min(lo + step, count), seed, theorem_ids)
                  for lo in range(0, count, step)]
    merged = _run_shards(_fuzz_shard, shard_args, jobs,
                         _empty_partial(theorem_ids))
    config = {
        "distribution": _distribution_text(dist),
        "count": count, "seed": seed,
        "theorems": [t.value for t in theorem_ids],
    }
    return _finalize(config, merged, started)


# ---------------------------------------------------------------------------
# Exhaustive spectral audit (identities, tightness classes, thresholds)


@dataclass
class SpectralAudit:
    """Aggregated exhaustive-audit outcome; every list should stay empty.

    Graphs are reported as graph6 strings. ``uncertified`` lists the graphs
    whose batch eigenvalues fail the trace certificate (sum lambda = 0,
    sum lambda^2 = 2m, sum lambda^3 = 6 triangles); only the triangle trace
    identity checks them, and ``ok`` fails while any are listed.
    ``spectral_mantel_failures`` is the spectral Mantel theorem left open by
    the batch engine; ``tight_threshold_not_complete_bipartite`` is its
    connected part with lambda_1 = sqrt(m) within ``EQ_EPS``.
    ``tight_counts`` is diagnostic (census sizes per bound), not a
    pass/fail signal.
    """

    graphs: int
    uncertified: list
    triangle_mismatches: list
    spectral_mantel_failures: list
    tight_threshold_not_complete_bipartite: list
    bound_violations: dict
    hsf_tight_not_class: list
    hsf_class_not_tight: list
    thm11_above_stanley: list
    lemma1_mismatches: list
    lemma2_violations: list
    tight_counts: dict

    def ok(self) -> bool:
        return not (
            self.uncertified
            or self.triangle_mismatches or self.spectral_mantel_failures
            or self.tight_threshold_not_complete_bipartite
            or any(self.bound_violations.values())
            or self.hsf_tight_not_class or self.hsf_class_not_tight
            or self.thm11_above_stanley or self.lemma1_mismatches
            or self.lemma2_violations
        )


def _as_graph6(n: int, value):
    """``value`` with every list of masks in it, in nested dicts too,
    decoded to graph6."""
    if isinstance(value, dict):
        return {key: _as_graph6(n, item) for key, item in value.items()}
    if isinstance(value, list):
        return masks_to_graph6(n, value)
    return value


def _audit_shard(args) -> dict:
    """One shard's ``SpectralAudit`` fields, with graphs as graph6."""
    n, masks = args
    return _as_graph6(n, _exhaustive.audit_range(n, masks.start, masks.stop))


def exhaustive_spectral_audit(n_min: int = 1, n_max: int = 7,
                              jobs: int = 1) -> SpectralAudit:
    """Audit all labeled graphs with n_min <= n <= n_max in one pass.

    Covers the trace certificate of the batch eigenvalues, the triangle
    trace identity, the spectral Mantel trichotomy with its extremal case,
    every bound's slack, the tightness degree-class
    equivalence for the minimum-degree bound, the closed-neighborhood vs
    edge-count bound dominance, spectrum symmetry vs bipartiteness, and the
    diameter vs distinct-eigenvalue inequality. The verdicts are the batch
    sweep's, from ``_exhaustive.verdict_table``; graphs that fail the trace
    certificate are listed in ``uncertified`` and get no other check.
    """
    if not 1 <= n_min <= n_max:
        raise ConfigurationError("need 1 <= n_min <= n_max")
    if n_max > MAX_EXHAUSTIVE_N:
        raise OrderTooLargeError(f"audit capped at n = {MAX_EXHAUSTIVE_N}")
    if jobs < 1:
        raise ConfigurationError("jobs must be positive")
    return SpectralAudit(**_run_shards(
        _audit_shard, _shards(n_min, n_max), jobs, {}))
