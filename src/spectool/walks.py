"""Walk counts in exact integer arithmetic and their spectral expansion.

w_k is the number of walks of length k (k+1 vertices, consecutive pairs
adjacent) and w_k(i) counts those starting at vertex i. Totals satisfy
w_k = ones^T A^k ones, which the expansion w_k = sum_i c_i lambda_i^k
reproduces with c_i = (sum of the entries of eigenvector u_i)^2 >= 0.
Counts grow like lambda_1^k, so walk tables are built in int64 only where
the maximum degree proves that exact and in Python ints otherwise; every
count handed out is a Python int, and ratios are reduced fractions until the
final float rounding.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DisconnectedInputError,
    EmptyGraphError,
    ExpansionMismatchError,
    InvalidWalkTableError,
)
from .graph import (
    Graph,
    NeighborhoodDegreeSums,
    is_connected,
    neighborhood_degree_sums,
)
from .spectrum import (
    CLUSTER_EPS,
    EXPANSION_EPS,
    RATIO_EPS,
    TOL,
    Spectrum,
    adjacency_matrix,
    eigendecompose,
    eigenvalue_clusters,
)


@dataclass(frozen=True)
class WalkTable:
    """Exact walk totals w_0..w_K and per-vertex counts."""

    K: int
    totals: tuple[int, ...]
    per_vertex: tuple[tuple[int, ...], ...]  # per_vertex[k][i] = w_k(i)

    def validate(self) -> None:
        """Raise InvalidWalkTableError unless the table meets the identities
        every exact walk table does: w_0 = n, totals are the sums of the
        per-vertex counts, counts are nonnegative, w_1 = sum d(i),
        w_2 = sum d(i)^2 and w_1 <= w_2 <= ... <= w_K."""
        n = len(self.per_vertex[0])
        degrees = self.per_vertex[1] if self.K >= 1 else ()
        _require(self.totals[0] == n, f"w_0 = {self.totals[0]} != n = {n}")
        for k in range(self.K + 1):
            _require(self.totals[k] == sum(self.per_vertex[k]),
                     f"w_{k} differs from the sum of its per-vertex counts")
            _require(all(w >= 0 for w in self.per_vertex[k]),
                     f"negative per-vertex count at length {k}")
        if self.K >= 1:
            _require(self.totals[1] == sum(degrees),
                     "w_1 differs from the degree sum")
        if self.K >= 2:
            _require(self.totals[2] == sum(d * d for d in degrees),
                     "w_2 differs from the sum of squared degrees")
        for k in range(1, self.K):
            _require(self.totals[k + 1] >= self.totals[k],
                     f"w_{k + 1} < w_{k}")


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise InvalidWalkTableError(message)


def _walk_dtype(max_degree: int, K: int):
    """int64 when it holds every count exactly, else exact Python ints.

    w_k(i) <= max_degree**k, and every partial sum of the product that
    yields w_k(i) is at most w_k(i), so max_degree**K < 2**63 rules out
    overflow. Totals can exceed that (n * max_degree**K), so they are summed
    in Python ints.
    """
    return np.int64 if max_degree ** K < 2 ** 63 else object


def walk_counts(g: Graph, K: int) -> WalkTable:
    """Walk table up to length K by K exact matrix-vector products."""
    if g.n == 0:
        raise EmptyGraphError("walks need at least one vertex")
    if K < 0:
        raise ValueError("K must be nonnegative")
    dtype = _walk_dtype(max(g.degrees()), K)
    a = adjacency_matrix(g, dtype)
    current = np.ones(g.n, dtype=dtype)
    per_vertex = [tuple(current.tolist())]
    for _ in range(K):
        current = a.dot(current)
        per_vertex.append(tuple(current.tolist()))
    totals = tuple(sum(level) for level in per_vertex)
    return WalkTable(K, totals, tuple(per_vertex))


def decomposition_identity_check(
        g: Graph, K: int, table: WalkTable | None = None,
        sums: NeighborhoodDegreeSums | None = None) -> bool:
    """Exact check of w_k = sum_i w_{k-2}(i) w_2(i) for 2 <= k <= K,
    plus w_2(i) = sum_{j in N(i)} d(j)."""
    if K < 2:
        raise ValueError("K must be at least 2")
    if table is None:
        table = walk_counts(g, K)
    if sums is None:
        sums = neighborhood_degree_sums(g)
    w2 = table.per_vertex[2]
    if w2 != sums.open_sums:
        return False
    for k in range(2, K + 1):
        lhs = table.totals[k]
        rhs = sum(wk2 * s for wk2, s in zip(table.per_vertex[k - 2], w2))
        if lhs != rhs:
            return False
    return True


def nikiforov_walk_inequality(g: Graph, K: int,
                              table: WalkTable | None = None
                              ) -> dict[int, Fraction]:
    """Residuals w_k/w_{k-2} + w_{k-1}/w_{k-2} - max closed-neighborhood sum.

    Exact rationals, keyed by k; indices with w_{k-2} = 0 are skipped, so an
    edgeless graph yields no evaluable k at all.
    """
    if K < 2:
        raise ValueError("K must be at least 2")
    if table is None:
        table = walk_counts(g, K)
    if g.m == 0:
        return {}
    max_closed = neighborhood_degree_sums(g).max_closed
    residuals = {}
    for k in range(2, K + 1):
        denom = table.totals[k - 2]
        if denom == 0:
            continue
        residuals[k] = Fraction(table.totals[k] + table.totals[k - 1], denom) \
            - max_closed
    return residuals


def walk_inequality_holds(
        g: Graph, K: int, table: WalkTable | None = None,
        sums: NeighborhoodDegreeSums | None = None) -> bool:
    """Integer-only form of the residual check: w_k + w_{k-1} <= M w_{k-2}."""
    if table is None:
        table = walk_counts(g, K)
    if g.m == 0:
        return True
    if sums is None:
        sums = neighborhood_degree_sums(g)
    max_closed = sums.max_closed
    return all(
        table.totals[k] + table.totals[k - 1] <= max_closed * table.totals[k - 2]
        for k in range(2, K + 1)
        if table.totals[k - 2] > 0
    )


@dataclass(frozen=True, eq=False)
class SpectralWalkExpansion:
    """Nonnegative coefficients of w_k = sum_i c_i lambda_i^k.

    a sums the coefficients over the lambda_1 cluster, b over the -lambda_1
    cluster (0 when no eigenvalue reaches -lambda_1).
    """

    coefficients: np.ndarray
    a: float
    b: float
    has_negative_extreme: bool


def walk_expansion(g: Graph, spec: Spectrum | None = None,
                   K: int = 20) -> SpectralWalkExpansion:
    """Expansion coefficients, validated against the exact walk table
    within relative ``EXPANSION_EPS``."""
    if spec is None:
        spec = eigendecompose(g)
    coeffs = np.square(spec.eigenvectors.sum(axis=0))
    table = walk_counts(g, K)
    for k in range(K + 1):
        recon = float(coeffs @ np.power(spec.eigenvalues, k))
        exact = table.totals[k]
        if abs(recon - exact) > EXPANSION_EPS * max(1, exact):
            raise ExpansionMismatchError(
                f"w_{k}: expansion {recon} vs exact {exact}")
    clusters = eigenvalue_clusters(spec)
    lo, hi = clusters[0]
    a = float(coeffs[lo:hi].sum())
    lam1 = spec.lambda1
    lo, hi = clusters[-1]
    has_negative_extreme = (
        len(clusters) > 1
        and abs(float(spec.eigenvalues[-1]) + lam1) <= CLUSTER_EPS
    )
    b = float(coeffs[lo:hi].sum()) if has_negative_extreme else 0.0
    return SpectralWalkExpansion(coeffs, a, b, has_negative_extreme)


@dataclass(frozen=True)
class AGreaterBReport:
    ok: bool
    a: float
    b: float
    bipartite_case: bool  # lambda_n = -lambda_1 actually present
    ratio: float | None = None  # w_{2K} / w_{2K-1}
    expected_ratio: float | None = None  # lambda_1 (a + b) / (a - b)


def a_greater_b_check(g: Graph, spec: Spectrum | None = None,
                      K: int = 30) -> AGreaterBReport:
    """Check a > b for the Perron coefficient sums.

    Only the bipartite Perron case (lambda_n = -lambda_1) carries content;
    there the finite ratio w_{2K}/w_{2K-1} must also match
    lambda_1 (a+b)/(a-b) within relative ``RATIO_EPS``. Otherwise b = 0 and the
    check is vacuously true.
    """
    if g.n == 0 or g.m == 0:
        raise EmptyGraphError("check needs a graph with at least one edge")
    if not is_connected(g):
        raise DisconnectedInputError("check requires a connected graph")
    if spec is None:
        spec = eigendecompose(g)
    expansion = walk_expansion(g, spec, K=min(K, 20))
    a, b = expansion.a, expansion.b
    if not expansion.has_negative_extreme:
        return AGreaterBReport(True, a, b, False)
    ok = a > b + 10 * TOL
    table = walk_counts(g, 2 * K)
    ratio = float(Fraction(table.totals[2 * K], table.totals[2 * K - 1]))
    expected = spec.lambda1 * (a + b) / (a - b) if a > b else float("inf")
    ok = ok and abs(ratio - expected) <= RATIO_EPS * abs(expected)
    return AGreaterBReport(ok, a, b, True, ratio, expected)


def ratio_convergence(g: Graph, K: int = 40,
                      spec: Spectrum | None = None) -> tuple[float, float]:
    """(w_K / w_{K-2}, absolute gap to lambda_1^2) at finite K."""
    if g.n == 0 or g.m == 0:
        raise EmptyGraphError("ratio needs a graph with at least one edge")
    if not is_connected(g):
        raise DisconnectedInputError("ratio requires a connected graph")
    if K < 10:
        raise ValueError("K must be at least 10")
    if spec is None:
        spec = eigendecompose(g)
    table = walk_counts(g, K)
    ratio = float(Fraction(table.totals[K], table.totals[K - 2]))
    return ratio, abs(ratio - spec.lambda1 ** 2)
