"""Cycle-length detection, degree peeling, and the even-cycle pipeline.

Cycle search is exhaustive backtracking: every cycle is found from its
lowest-index vertex (the anchor), walking only through higher-index
vertices, with a BFS-distance bound back to the anchor as the pruning
rule. Absence is asserted only when the search space is exhausted; hitting
the node-expansion budget raises instead, so a timeout is never silently
conflated with nonexistence.
"""

from dataclasses import dataclass, field
import math

from .errors import HypothesisNotMetError, SearchBudgetExceededError
from .graph import Graph, bipartition, bits, induced_subgraph
from .spectrum import EQ_EPS, Spectrum, eigendecompose
from .verdicts import CounterexampleReport, Verdict

DEFAULT_BUDGET = 10 ** 8
ASYMPTOTIC_SAFE_N = 1000
EVEN_CYCLE_CAP = 16


def _bfs_distances(g: Graph, start: int, allowed: int) -> list[float]:
    dist = [math.inf] * g.n
    dist[start] = 0
    seen = 1 << start
    frontier = seen
    d = 0
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= g.adj[v]
        frontier = nxt & allowed & ~seen
        seen |= frontier
        d += 1
        for v in bits(frontier):
            dist[v] = d
    return dist


def has_cycle_of_length(g: Graph, l: int,
                        budget: int = DEFAULT_BUDGET) -> tuple[int, ...] | None:
    """A simple cycle on exactly l vertices, or None when none exists.

    Raises SearchBudgetExceededError when the node-expansion budget runs out
    before the search completes.
    """
    if not 3 <= l <= g.n:
        raise ValueError(f"cycle length {l} outside 3..{g.n}")
    bipartite = bipartition(g) is not None
    if bipartite and l % 2:
        return None
    remaining_budget = [budget]
    path = []

    def extend(v: int, visited: int, edges_used: int, anchor: int,
               dist: list[float], allowed: int) -> bool:
        remaining_budget[0] -= 1
        if remaining_budget[0] < 0:
            raise SearchBudgetExceededError(f"budget {budget} exhausted at l={l}")
        path.append(v)
        if edges_used == l - 1:
            if g.adj[v] >> anchor & 1:
                return True
            path.pop()
            return False
        budget_left = l - edges_used - 1
        for u in bits(g.adj[v] & allowed & ~visited):
            if dist[u] > budget_left:
                continue
            # In a bipartite graph every anchor-to-u walk length has the
            # parity of the BFS distance, so an off-parity budget is dead.
            if bipartite and (budget_left - dist[u]) % 2:
                continue
            if extend(u, visited | (1 << u), edges_used + 1, anchor, dist, allowed):
                return True
        path.pop()
        return False

    full = (1 << g.n) - 1
    for anchor in range(g.n - l + 1):
        allowed = full & ~((1 << (anchor + 1)) - 1)  # strictly above the anchor
        dist = _bfs_distances(g, anchor, allowed)
        if sum(1 for v in range(anchor, g.n) if dist[v] < l) < l:
            continue
        path.clear()
        if extend(anchor, 1 << anchor, 0, anchor, dist, allowed):
            return tuple(path)
    return None


def validate_cycle(g: Graph, cycle) -> bool:
    """Distinct vertices, consecutive pairs adjacent, closing edge present."""
    if len(cycle) < 3 or len(set(cycle)) != len(cycle):
        return False
    return all(
        g.has_edge(cycle[i], cycle[(i + 1) % len(cycle)])
        for i in range(len(cycle))
    )


@dataclass(frozen=True)
class CycleSpectrum:
    """Bit l of ``present`` is set iff the graph contains a cycle on l vertices."""

    l_max: int
    present: int
    witnesses: dict = field(default_factory=dict)

    def lengths(self) -> list[int]:
        return [l for l in range(3, self.l_max + 1) if self.present >> l & 1]


def cycle_spectrum(g: Graph, l_max: int,
                   budget: int = DEFAULT_BUDGET) -> CycleSpectrum:
    """Presence of every cycle length 3..l_max, with retained witnesses."""
    if l_max > g.n:
        raise ValueError(f"l_max {l_max} exceeds the order {g.n}")
    present = 0
    witnesses = {}
    for l in range(3, l_max + 1):
        witness = has_cycle_of_length(g, l, budget)
        if witness is not None:
            present |= 1 << l
            witnesses[l] = witness
    return CycleSpectrum(l_max, present, witnesses)


@dataclass(frozen=True)
class PeelingResult:
    surviving: tuple[int, ...]
    min_degree: int | None  # of the induced survivor graph; None when empty
    trace: tuple[tuple[int, int], ...]  # (vertex, degree at removal)

    @property
    def n_prime(self) -> int:
        return len(self.surviving)


def erdos_peel(g: Graph, k: int) -> PeelingResult:
    """Repeatedly delete the lowest-index vertex of current degree <= k.

    When the average degree is at least 2k (m >= kn), the survivor set is
    nonempty and induces minimum degree >= k + 1: each removal deletes at
    most k edges, so removals cannot exhaust all m >= kn edges.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    degs = g.degrees()
    alive = (1 << g.n) - 1
    candidates = 0
    for v in range(g.n):
        if degs[v] <= k:
            candidates |= 1 << v
    trace = []
    while candidates:
        v = (candidates & -candidates).bit_length() - 1
        candidates ^= 1 << v
        alive ^= 1 << v
        trace.append((v, degs[v]))
        for u in bits(g.adj[v] & alive):
            degs[u] -= 1
            if degs[u] <= k:
                candidates |= 1 << u
    surviving = tuple(bits(alive))
    min_degree = min((degs[v] for v in surviving), default=None)
    return PeelingResult(surviving, min_degree, tuple(trace))


@dataclass(frozen=True)
class PipelineStep:
    name: str
    ok: bool
    details: dict

    def to_dict(self) -> dict:
        return {"step": self.name, "ok": self.ok,
                "details": dict(sorted(self.details.items()))}


@dataclass(frozen=True)
class Theorem7Pipeline:
    ok: bool
    steps: tuple[PipelineStep, ...]

    def to_dict(self) -> dict:
        return {"ok": self.ok, "steps": [s.to_dict() for s in self.steps]}


def theorem7_pipeline(g: Graph, spec: Spectrum | None = None,
                      budget: int = DEFAULT_BUDGET) -> Theorem7Pipeline:
    """Certificate chain for the even-cycle theorem's proof steps.

    Steps: (1) the threshold lambda_1 > sqrt(floor(n^2/4)); (2) the edge
    count forced through the quadratic bound, hence average degree > n/4;
    (3) peeling at k = max(1, floor(n/8)) leaves minimum degree >= k + 1;
    (4) if the survivor core is small (n' <= n/4) its minimum degree
    exceeds n'/2, so cycles of every length 3..n' are verified explicitly;
    otherwise the dense-core lemma is flagged asymptotic-unverifiable and
    even cycles are searched up to min(ceil(n/28), EVEN_CYCLE_CAP), plus the
    full range 3..min(n', EVEN_CYCLE_CAP) whenever the n'/2 degree condition
    happens to hold anyway.
    """
    if g.n < 4:
        raise ValueError("pipeline needs at least 4 vertices")
    if spec is None:
        spec = eigendecompose(g)
    lam1 = spec.lambda1
    threshold = math.sqrt(g.n * g.n // 4)
    if lam1 <= threshold + EQ_EPS:
        raise HypothesisNotMetError(
            f"lambda1 {lam1:.6f} not above sqrt(floor(n^2/4)) = {threshold:.6f}")
    steps = [PipelineStep("threshold", True,
                          {"lambda1": lam1, "threshold": threshold})]

    m = g.m
    quadratic_ok = 2 * m >= lam1 * lam1 + lam1 - EQ_EPS
    density_ok = 8 * m > g.n * g.n  # d = 2m/n > n/4, exact in integers
    paper_lower = g.n * g.n / 4 + threshold - 1
    steps.append(PipelineStep(
        "edge-density", quadratic_ok and density_ok and 2 * m >= paper_lower - EQ_EPS,
        {"m": m, "average_degree": 2 * m / g.n, "quarter_n": g.n / 4,
         "edge_lower_bound": paper_lower}))

    k = max(1, g.n // 8)
    peel = erdos_peel(g, k)
    peel_ok = peel.n_prime > 0 and peel.min_degree is not None \
        and peel.min_degree >= k + 1
    steps.append(PipelineStep(
        "peel", peel_ok,
        {"k": k, "surviving": peel.n_prime, "min_degree": peel.min_degree}))
    if not peel_ok:
        return Theorem7Pipeline(False, tuple(steps))

    core, labels = induced_subgraph(g, peel.surviving)
    n_prime = core.n
    core_min_degree = min(core.degrees())
    if n_prime <= g.n / 4:
        found = missing_lengths(core, range(3, n_prime + 1), budget)
        steps.append(PipelineStep(
            "small-core-pancyclic",
            core_min_degree * 2 > n_prime and found == [],
            {"n_prime": n_prime, "core_min_degree": core_min_degree,
             "missing": found, "range": [3, n_prime]}))
    else:
        l_even = min(math.ceil(g.n / 28), EVEN_CYCLE_CAP)
        missing = missing_lengths(g, range(4, l_even + 1, 2), budget)
        steps.append(PipelineStep(
            "even-cycles", missing == [],
            {"note": "dense-core lemma is asymptotic; replaced by explicit search",
             "range": [4, l_even], "missing": missing}))
        if core_min_degree * 2 > n_prime:
            upper = min(n_prime, EVEN_CYCLE_CAP)
            found = missing_lengths(core, range(3, upper + 1), budget)
            steps.append(PipelineStep(
                "core-pancyclic-bonus", found == [],
                {"n_prime": n_prime, "core_min_degree": core_min_degree,
                 "missing": found, "range": [3, upper]}))
    return Theorem7Pipeline(all(s.ok for s in steps), tuple(steps))


def missing_lengths(g: Graph, lengths, budget: int) -> list[int]:
    """The lengths, in the order given, on which g has no cycle: one
    exhaustive search per length, and every length above g.n.

    Raises SearchBudgetExceededError as ``has_cycle_of_length`` does.
    """
    return [l for l in lengths
            if l > g.n or has_cycle_of_length(g, l, budget) is None]


def consecutive_even_cycles_check(g: Graph, l_max: int | None = None,
                                  spec: Spectrum | None = None,
                                  budget: int = DEFAULT_BUDGET) -> Verdict:
    """Presence of every even cycle length in [4, l_max] above the threshold.

    l_max defaults to ceil(n/28). Vacuous below the spectral threshold or
    when l_max < 4. A violation below ``ASYMPTOTIC_SAFE_N`` vertices is still
    a violated verdict but its report carries the asymptotic caveat.
    """
    if l_max is None:
        l_max = math.ceil(g.n / 28)
    if g.n == 0:
        return Verdict.vacuous("empty graph")
    if spec is None:
        spec = eigendecompose(g)
    threshold = math.sqrt(g.n * g.n // 4)
    if spec.lambda1 <= threshold + EQ_EPS:
        return Verdict.vacuous(
            f"lambda1 {spec.lambda1:.6f} not above threshold {threshold:.6f}")
    if l_max < 4:
        return Verdict.vacuous(f"no even lengths in [4, {l_max}]")
    try:
        missing = missing_lengths(g, range(4, l_max + 1, 2), budget)
    except SearchBudgetExceededError as exc:
        return Verdict.inconclusive(str(exc))
    if not missing:
        return Verdict.holds()
    caveat = ("asymptotic theorem -- report, do not assert"
              if g.n < ASYMPTOTIC_SAFE_N else "")
    return Verdict.violated(CounterexampleReport.of_graph(
        g, "thm7-even-cycles",
        {"n": g.n, "m": g.m, "lambda1": spec.lambda1, "threshold": threshold},
        {"missing_even_lengths": missing, "caveat": caveat}))


def bondy_pancyclicity_check(g: Graph, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Minimum degree above n/2 forces cycles of every length 3..n."""
    if g.n == 0:
        return Verdict.vacuous("empty graph")
    delta = min(g.degrees())
    if 2 * delta <= g.n:
        return Verdict.vacuous(f"min degree {delta} <= n/2")
    try:
        missing = missing_lengths(g, range(3, g.n + 1), budget)
    except SearchBudgetExceededError as exc:
        return Verdict.inconclusive(str(exc))
    if not missing:
        return Verdict.holds()
    return Verdict.violated(CounterexampleReport.of_graph(
        g, "lemma6-bondy", {"n": g.n, "m": g.m, "min_degree": delta},
        {"missing_lengths": missing}))
