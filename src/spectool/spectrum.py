"""Eigendecomposition of adjacency matrices and spectral identities.

``eigendecompose`` uses LAPACK's symmetric solver via numpy; a cyclic Jacobi
rotation solver is kept as the reference implementation, and its results
meet the same residual certificate. The theorem checkers, per-graph and
batch, decide at four fixed tolerances:

  TOL          1e-12  solver residual, Jacobi convergence, Perron dominance
  CLUSTER_EPS  1e-8   grouping of nearby eigenvalues (Lemmas 1 and 2)
  EQ_EPS       1e-9   equality-style threshold decisions ("tight", "holds")
  TRACE_EPS    1e-6   integrality of sum lambda^k against trace(A^k)

and the spectral walk expansion in ``walks`` at two more, both relative:

  EXPANSION_EPS  1e-6  sum_i c_i lambda_i^k against the exact w_k
  RATIO_EPS      1e-3  w_{2K}/w_{2K-1} against lambda_1 (a+b)/(a-b)
"""

from dataclasses import dataclass, field
from functools import cached_property
import math

import numpy as np

from .errors import (
    DisconnectedInputError,
    EmptyGraphError,
    NonConvergenceError,
    NonIntegralError,
)
from .graph import Graph, is_connected

TOL = 1e-12
CLUSTER_EPS = 1e-8
EQ_EPS = 1e-9
TRACE_EPS = 1e-6
EXPANSION_EPS = 1e-6
RATIO_EPS = 1e-3

JACOBI_MAX_SWEEPS = 100
POWER_MAX_ITERS = 500_000


def adjacency_matrix(g: Graph, dtype=np.float64) -> np.ndarray:
    """Dense 0/1 adjacency matrix, set from the graph's arcs."""
    a = np.zeros((g.n, g.n), dtype=dtype)
    a[g._arcs] = 1
    return a


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues sorted descending with aligned orthonormal eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column i pairs with eigenvalues[i]
    matrix: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @property
    def lambda1(self) -> float:
        return float(self.eigenvalues[0])

    @cached_property
    def residual(self) -> float:
        """max_i || A v_i - lambda_i v_i ||_2."""
        defect = self.matrix @ self.eigenvectors - self.eigenvectors * self.eigenvalues
        return float(np.max(np.linalg.norm(defect, axis=0)))

    def validate(self, m: int) -> None:
        """Raise NonConvergenceError unless all certificate bounds hold."""
        n = self.n
        slack = 10 * TOL * max(1, n)
        if self.residual > TOL * max(1, n):
            raise NonConvergenceError(f"residual {self.residual:.3e}")
        if abs(float(self.eigenvalues.sum())) > slack:
            raise NonConvergenceError("nonzero trace")
        if abs(float(np.square(self.eigenvalues).sum()) - 2 * m) > slack:
            raise NonConvergenceError("sum of squares differs from 2m")
        gram = self.eigenvectors.T @ self.eigenvectors
        if np.max(np.abs(gram - np.eye(n))) > 10 * TOL:
            raise NonConvergenceError("eigenvector basis not orthonormal")


def jacobi_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi diagonalization of a symmetric matrix.

    Sweeps rotate every upper-triangle pair until the off-diagonal Frobenius
    norm drops to ``TOL``; raises NonConvergenceError after
    ``JACOBI_MAX_SWEEPS``.
    """
    a = a.astype(float).copy()
    n = a.shape[0]
    v = np.eye(n)
    if n < 2:
        return np.diagonal(a).copy(), v
    upper = np.triu_indices(n, 1)
    for _ in range(JACOBI_MAX_SWEEPS):
        # Summing the off-diagonal squares directly; the subtract-the-diagonal
        # shortcut cancels catastrophically near convergence.
        off = math.sqrt(2.0 * float(np.square(a[upper]).sum()))
        if off <= TOL:
            return np.diagonal(a).copy(), v
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                s = t * c
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                a[p, q] = a[q, p] = 0.0
                rot_p = c * v[:, p] - s * v[:, q]
                rot_q = s * v[:, p] + c * v[:, q]
                v[:, p], v[:, q] = rot_p, rot_q
    raise NonConvergenceError(
        f"Jacobi did not converge in {JACOBI_MAX_SWEEPS} sweeps")


def eigendecompose(g: Graph) -> Spectrum:
    """Full LAPACK eigendecomposition meeting the residual certificate."""
    if g.n == 0:
        raise EmptyGraphError("no spectrum for the empty graph")
    a = adjacency_matrix(g)
    try:
        evals, evecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(str(exc)) from exc
    order = np.argsort(evals)[::-1]
    spec = Spectrum(evals[order], evecs[:, order], a)
    spec.validate(g.m)
    return spec


def power_iteration_radius(g: Graph) -> float:
    """Spectral radius via power iteration on A + I.

    The shift makes lambda_1 + 1 the unique dominant eigenvalue in modulus
    (lambda_1 >= |lambda_n| for adjacency matrices), so the iteration
    converges from the all-ones start vector.
    """
    if g.n == 0:
        raise EmptyGraphError("no spectrum for the empty graph")
    b = adjacency_matrix(g) + np.eye(g.n)
    x = np.full(g.n, 1.0 / math.sqrt(g.n))
    for _ in range(POWER_MAX_ITERS):
        y = b @ x
        theta = float(x @ y)
        if np.linalg.norm(y - theta * x) <= 10 * TOL * max(1.0, theta):
            return theta - 1.0
        x = y / np.linalg.norm(y)
    raise NonConvergenceError(
        f"power iteration stalled after {POWER_MAX_ITERS} iterations")


def spectral_radius(g: Graph) -> float:
    """Largest eigenvalue, cross-checked against power iteration."""
    lam = eigendecompose(g).lambda1
    lam_power = power_iteration_radius(g)
    if abs(lam - lam_power) > 100 * TOL * max(1.0, abs(lam)):
        raise NonConvergenceError(
            f"eigensolver {lam!r} and power iteration {lam_power!r} disagree"
        )
    return lam


def triangle_count_spectral(spec: Spectrum) -> float:
    """Triangle count as (sum of eigenvalue cubes) / 6, unrounded."""
    return float(np.power(spec.eigenvalues, 3).sum()) / 6.0


def triangle_count_spectral_int(spec: Spectrum) -> int:
    """Rounded triangle count; a non-integral value signals solver failure."""
    value = triangle_count_spectral(spec)
    nearest = round(value)
    if abs(value - nearest) > TRACE_EPS:
        raise NonIntegralError(f"triangle value {value} is not integral")
    return nearest


def eigenvalue_clusters(spec: Spectrum) -> list[tuple[int, int]]:
    """Half-open index ranges grouping eigenvalues separated by <= CLUSTER_EPS."""
    clusters = []
    start = 0
    ev = spec.eigenvalues
    for i in range(1, len(ev)):
        if ev[i - 1] - ev[i] > CLUSTER_EPS:
            clusters.append((start, i))
            start = i
    clusters.append((start, len(ev)))
    return clusters


def distinct_eigenvalue_count(spec: Spectrum) -> int:
    """Number of eigenvalue clusters under gap-based grouping."""
    return len(eigenvalue_clusters(spec))


def is_spectrum_symmetric(spec: Spectrum) -> bool:
    """Whether the eigenvalue multiset equals its negation."""
    ev = spec.eigenvalues
    return bool(np.all(np.abs(ev + ev[::-1]) <= CLUSTER_EPS))


@dataclass(frozen=True)
class PerronReport:
    lambda1: float
    dominant: bool  # lambda_1 >= |lambda_i| - TOL for every i
    negative_extreme: bool  # lambda_n = -lambda_1 within CLUSTER_EPS


def perron_check(g: Graph, spec: Spectrum) -> PerronReport:
    """Dominance of lambda_1 and the lambda_n = -lambda_1 flag (connected input)."""
    if not is_connected(g):
        raise DisconnectedInputError("Perron check requires a connected graph")
    lam1 = spec.lambda1
    dominant = bool(np.all(lam1 >= np.abs(spec.eigenvalues) - TOL))
    if not dominant:
        raise NonConvergenceError("lambda_1 fails Perron dominance; solver defect")
    negative_extreme = abs(float(spec.eigenvalues[-1]) + lam1) <= CLUSTER_EPS
    return PerronReport(lam1, dominant, negative_extreme)
