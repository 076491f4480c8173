"""Eigendecomposition of adjacency matrices and spectral identities.

The default engine is LAPACK's symmetric solver via numpy; a cyclic Jacobi
rotation solver is kept as the reference implementation and both must meet
the same residual certificate. Two comparison tiers are used throughout:
``tol`` (solver residual, default 1e-12) and ``cluster_eps`` (grouping of
nearby eigenvalues, default 1e-8); equality-style threshold decisions use
``EQ_EPS`` = 1e-9.
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

JACOBI_MAX_SWEEPS = 100


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
    tol: float
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

    def validate(self, m: int | None = None) -> None:
        """Raise NonConvergenceError unless all certificate bounds hold."""
        n = self.n
        slack = 10 * self.tol * max(1, n)
        if self.residual > self.tol * max(1, n):
            raise NonConvergenceError(f"residual {self.residual:.3e}")
        if abs(float(self.eigenvalues.sum())) > slack:
            raise NonConvergenceError("nonzero trace")
        if m is None:
            m = int(round(self.matrix.sum())) // 2
        if abs(float(np.square(self.eigenvalues).sum()) - 2 * m) > slack:
            raise NonConvergenceError("sum of squares differs from 2m")
        gram = self.eigenvectors.T @ self.eigenvectors
        if np.max(np.abs(gram - np.eye(n))) > 10 * self.tol:
            raise NonConvergenceError("eigenvector basis not orthonormal")


def jacobi_eigh(a: np.ndarray, tol: float = TOL,
                max_sweeps: int = JACOBI_MAX_SWEEPS) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi diagonalization of a symmetric matrix.

    Sweeps rotate every upper-triangle pair until the off-diagonal Frobenius
    norm drops to ``tol``; raises NonConvergenceError after ``max_sweeps``.
    """
    a = a.astype(float).copy()
    n = a.shape[0]
    v = np.eye(n)
    if n < 2:
        return np.diagonal(a).copy(), v
    upper = np.triu_indices(n, 1)
    for _ in range(max_sweeps):
        # Summing the off-diagonal squares directly; the subtract-the-diagonal
        # shortcut cancels catastrophically near convergence.
        off = math.sqrt(2.0 * float(np.square(a[upper]).sum()))
        if off <= tol:
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
    raise NonConvergenceError(f"Jacobi did not converge in {max_sweeps} sweeps")


def eigendecompose(g: Graph, tol: float = TOL, method: str = "lapack") -> Spectrum:
    """Full eigendecomposition meeting the residual certificate."""
    if g.n == 0:
        raise EmptyGraphError("no spectrum for the empty graph")
    a = adjacency_matrix(g)
    if method == "lapack":
        try:
            evals, evecs = np.linalg.eigh(a)
        except np.linalg.LinAlgError as exc:
            raise NonConvergenceError(str(exc)) from exc
        order = np.argsort(evals)[::-1]
    elif method == "jacobi":
        evals, evecs = jacobi_eigh(a, tol)
        order = np.argsort(evals, kind="stable")[::-1]
    else:
        raise ValueError(f"unknown method {method!r}")
    spec = Spectrum(evals[order], evecs[:, order], tol, a)
    spec.validate(g.m)
    return spec


def power_iteration_radius(g: Graph, tol: float = TOL,
                           max_iters: int = 500_000) -> float:
    """Spectral radius via power iteration on A + I.

    The shift makes lambda_1 + 1 the unique dominant eigenvalue in modulus
    (lambda_1 >= |lambda_n| for adjacency matrices), so the iteration
    converges from the all-ones start vector.
    """
    if g.n == 0:
        raise EmptyGraphError("no spectrum for the empty graph")
    b = adjacency_matrix(g) + np.eye(g.n)
    x = np.full(g.n, 1.0 / math.sqrt(g.n))
    target = max(10 * tol, 1e-11)
    for _ in range(max_iters):
        y = b @ x
        theta = float(x @ y)
        if np.linalg.norm(y - theta * x) <= target * max(1.0, theta):
            return theta - 1.0
        x = y / np.linalg.norm(y)
    raise NonConvergenceError(f"power iteration stalled after {max_iters} iterations")


def spectral_radius(g: Graph, tol: float = TOL, cross_check: bool = True) -> float:
    """Largest eigenvalue; optionally cross-checked against power iteration."""
    lam = eigendecompose(g, tol).lambda1
    if cross_check:
        lam_power = power_iteration_radius(g, tol)
        if abs(lam - lam_power) > 100 * tol * max(1.0, abs(lam)):
            raise NonConvergenceError(
                f"eigensolver {lam!r} and power iteration {lam_power!r} disagree"
            )
    return lam


def triangle_count_spectral(spec: Spectrum) -> float:
    """Triangle count as (sum of eigenvalue cubes) / 6, unrounded."""
    return float(np.power(spec.eigenvalues, 3).sum()) / 6.0


def triangle_count_spectral_int(spec: Spectrum, tol: float = 1e-6) -> int:
    """Rounded triangle count; a non-integral value signals solver failure."""
    value = triangle_count_spectral(spec)
    nearest = round(value)
    if abs(value - nearest) > tol:
        raise NonIntegralError(f"triangle value {value} is not integral")
    return nearest


def eigenvalue_clusters(spec: Spectrum,
                        cluster_eps: float = CLUSTER_EPS) -> list[tuple[int, int]]:
    """Half-open index ranges grouping eigenvalues separated by <= cluster_eps."""
    clusters = []
    start = 0
    ev = spec.eigenvalues
    for i in range(1, len(ev)):
        if ev[i - 1] - ev[i] > cluster_eps:
            clusters.append((start, i))
            start = i
    clusters.append((start, len(ev)))
    return clusters


def distinct_eigenvalue_count(spec: Spectrum,
                              cluster_eps: float = CLUSTER_EPS) -> int:
    """Number of eigenvalue clusters under gap-based grouping."""
    return len(eigenvalue_clusters(spec, cluster_eps))


def is_spectrum_symmetric(spec: Spectrum,
                          cluster_eps: float = CLUSTER_EPS) -> bool:
    """Whether the eigenvalue multiset equals its negation."""
    ev = spec.eigenvalues
    return bool(np.all(np.abs(ev + ev[::-1]) <= cluster_eps))


@dataclass(frozen=True)
class PerronReport:
    lambda1: float
    dominant: bool  # lambda_1 >= |lambda_i| - tol for every i
    negative_extreme: bool  # lambda_n = -lambda_1 within cluster_eps


def perron_check(g: Graph, spec: Spectrum,
                 cluster_eps: float = CLUSTER_EPS) -> PerronReport:
    """Dominance of lambda_1 and the lambda_n = -lambda_1 flag (connected input)."""
    if not is_connected(g):
        raise DisconnectedInputError("Perron check requires a connected graph")
    lam1 = spec.lambda1
    dominant = bool(np.all(lam1 >= np.abs(spec.eigenvalues) - spec.tol))
    if not dominant:
        raise NonConvergenceError("lambda_1 fails Perron dominance; solver defect")
    negative_extreme = abs(float(spec.eigenvalues[-1]) + lam1) <= cluster_eps
    return PerronReport(lam1, dominant, negative_extreme)
