"""Spectral-radius upper bounds with tightness and extremal-class checks.

The numeric bounds, with m edges, n vertices, minimum degree delta:

  stanley   lambda_1 <= -1/2 + sqrt(2m + 1/4)
  hong      lambda_1 <= sqrt(2m - n + 1)            (needs delta >= 1)
  hsf       lambda_1 <= (delta-1)/2 + sqrt(2m - n*delta + (delta+1)^2/4)
  lemma3    lambda_1 <= sqrt(max_v sum_{u in N(v)} d(u))
  thm11     lambda_1 <= (-1 + sqrt(1 + 4 max_v sum_{u in N[v]} d(u))) / 2

"nosal" is an implication (lambda_1 > sqrt(m) forces a triangle), not an
inequality on lambda_1; it is realized by ``spectral_mantel_classify``.
"""

from dataclasses import dataclass
from enum import Enum
import math

from .errors import EmptyGraphError, NotTightError, PreconditionViolatedError
from .graph import (
    CompleteBipartiteWitness,
    Graph,
    NeighborhoodDegreeSums,
    bipartite_semiregular_degrees,
    count_triangles_brute,
    first_triangle,
    is_bidegreed_min_and_full,
    is_complete_bipartite_plus_isolated,
    is_connected,
    is_regular,
    neighborhood_degree_sums,
)
from .spectrum import EQ_EPS, Spectrum, eigendecompose
from .verdicts import CounterexampleReport, TheoremId, Verdict


class BoundKind(Enum):
    """The bound formulas, each valued by the id of its theorem, so
    ``BoundKind(theorem)`` is a bound theorem's formula."""

    NOSAL_THRESHOLD = TheoremId.NOSAL
    STANLEY = TheoremId.STANLEY
    HONG = TheoremId.HONG
    HONG_SHU_FANG_NIKIFOROV = TheoremId.HSF
    OPEN_NEIGHBORHOOD = TheoremId.LEMMA3_BOUND
    CLOSED_NEIGHBORHOOD = TheoremId.THM11


def bound_value(g: Graph, kind: BoundKind,
                sums: NeighborhoodDegreeSums | None = None) -> float:
    """Evaluate one bound formula on a graph.

    ``sums`` are g's neighborhood degree sums when the caller already has
    them; the lemma3 and thm11 formulas read them.
    """
    if g.n == 0:
        raise EmptyGraphError("bounds need at least one vertex")
    degs = g.degrees()
    m = sum(degs) // 2
    n = g.n
    delta = min(degs)
    if kind is BoundKind.STANLEY:
        return -0.5 + math.sqrt(2 * m + 0.25)
    if kind is BoundKind.HONG:
        if delta < 1:
            raise PreconditionViolatedError("Hong's bound excludes isolated vertices")
        return math.sqrt(2 * m - n + 1)
    if kind is BoundKind.HONG_SHU_FANG_NIKIFOROV:
        return (delta - 1) / 2 + math.sqrt(2 * m - n * delta + (delta + 1) ** 2 / 4)
    if kind is BoundKind.OPEN_NEIGHBORHOOD:
        return math.sqrt((sums or neighborhood_degree_sums(g)).max_open)
    if kind is BoundKind.CLOSED_NEIGHBORHOOD:
        max_closed = (sums or neighborhood_degree_sums(g)).max_closed
        return (-1 + math.sqrt(1 + 4 * max_closed)) / 2
    raise ValueError(f"{kind.value} carries no numeric bound")


@dataclass(frozen=True)
class BoundReport:
    kind: BoundKind
    lambda1: float
    bound_value: float | None
    slack: float | None
    holds: bool | None
    tight: bool | None
    extremal_class_consistent: bool | None
    skipped: str | None = None

    def to_dict(self) -> dict:
        return {
            "bound": self.kind.value,
            "lambda1": self.lambda1,
            "value": self.bound_value,
            "slack": self.slack,
            "holds": self.holds,
            "tight": self.tight,
            "extremal_class_consistent": self.extremal_class_consistent,
            "skipped": self.skipped,
        }


def evaluate_all(g: Graph, spec: Spectrum | None = None) -> list[BoundReport]:
    """One report per bound kind; inapplicable kinds carry a skip marker."""
    if spec is None:
        spec = eigendecompose(g)
    lam1 = spec.lambda1
    reports = []
    for kind in BoundKind:
        if kind is BoundKind.NOSAL_THRESHOLD:
            reports.append(BoundReport(
                kind, lam1, None, None, None, None, None,
                skipped="implication, not a bound; see spectral_mantel_classify",
            ))
            continue
        try:
            value = bound_value(g, kind)
        except PreconditionViolatedError as exc:
            reports.append(BoundReport(
                kind, lam1, None, None, None, None, None, skipped=str(exc)))
            continue
        slack = value - lam1
        tight = abs(slack) <= EQ_EPS
        consistent = _extremal_class_consistent(g, kind) if tight else None
        reports.append(BoundReport(
            kind, lam1, value, slack, slack >= -EQ_EPS, tight, consistent))
    return reports


def _extremal_class_consistent(g: Graph, kind: BoundKind) -> bool | None:
    """Whether a tight graph sits in the paper-characterized extremal class.

    Characterizations exist only for connected graphs and only for the hsf
    and lemma3 bounds; everywhere else the answer is absent (None).
    """
    if not is_connected(g):
        return None
    if kind is BoundKind.HONG_SHU_FANG_NIKIFOROV:
        return is_regular(g) or is_bidegreed_min_and_full(g)
    if kind is BoundKind.OPEN_NEIGHBORHOOD:
        return is_regular(g) or bipartite_semiregular_degrees(g) is not None
    return None


def tightness_check(g: Graph, kind: BoundKind,
                    spec: Spectrum | None = None) -> bool | None:
    """Extremal-class verdict for a tight bound (NotTightError otherwise)."""
    if spec is None:
        spec = eigendecompose(g)
    value = bound_value(g, kind)
    if abs(value - spec.lambda1) > EQ_EPS:
        raise NotTightError(
            f"{kind.value} is not tight: bound {value}, lambda1 {spec.lambda1}")
    return _extremal_class_consistent(g, kind)


@dataclass(frozen=True)
class SpectralMantelResult:
    """Trichotomy of the spectral Mantel threshold lambda_1 vs sqrt(m)."""

    kind: str  # below_threshold | has_triangle | extremal_complete_bipartite
    #         | counterexample
    lambda1: float
    sqrt_m: float
    triangle: tuple[int, int, int] | None = None
    witness: CompleteBipartiteWitness | None = None

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "lambda1": self.lambda1, "sqrt_m": self.sqrt_m}
        if self.triangle is not None:
            out["triangle"] = list(self.triangle)
        if self.witness is not None:
            out["witness"] = {
                "a": self.witness.a,
                "b": self.witness.b,
                "isolated": self.witness.isolated,
            }
        return out


def spectral_mantel_classify(g: Graph, spec: Spectrum | None = None
                             ) -> SpectralMantelResult:
    """Classify a graph against the triangle threshold lambda_1 >= sqrt(m).

    Above (or at) the threshold the graph must contain a triangle or be a
    complete bipartite graph plus isolated vertices; the fourth outcome
    ("counterexample") must never occur.
    """
    if g.n == 0:
        raise EmptyGraphError("classification needs at least one vertex")
    if spec is None:
        spec = eigendecompose(g)
    lam1 = spec.lambda1
    sqrt_m = math.sqrt(g.m)
    if lam1 < sqrt_m - EQ_EPS:
        return SpectralMantelResult("below_threshold", lam1, sqrt_m)
    triangle = first_triangle(g)
    if triangle is not None:
        return SpectralMantelResult("has_triangle", lam1, sqrt_m, triangle=triangle)
    witness = is_complete_bipartite_plus_isolated(g)
    if witness is not None:
        return SpectralMantelResult(
            "extremal_complete_bipartite", lam1, sqrt_m, witness=witness)
    return SpectralMantelResult("counterexample", lam1, sqrt_m)


def mantel_check(g: Graph) -> Verdict:
    """Edge-count Mantel threshold: m > n^2/4 forces a triangle."""
    if g.n == 0:
        raise EmptyGraphError("Mantel check needs at least one vertex")
    m = g.m
    if 4 * m <= g.n * g.n:
        return Verdict.vacuous(f"m = {m} <= n^2/4")
    triangle = first_triangle(g)
    if triangle is not None:
        return Verdict.holds()
    return Verdict.violated(CounterexampleReport.of_graph(
        g, TheoremId.MANTEL,
        {"n": g.n, "m": m, "triangles": count_triangles_brute(g)}))
