"""Eigendecomposition contract, closed-form spectra, spectral identities."""

import math

import numpy as np
import pytest

from spectool.errors import (
    DisconnectedInputError,
    EmptyGraphError,
    NonIntegralError,
)
from spectool.families import complete, complete_bipartite, cycle, path, star
from spectool.graph import Graph, from_edge_mask, from_edges
from spectool.spectrum import (
    TOL,
    Spectrum,
    adjacency_matrix,
    distinct_eigenvalue_count,
    eigendecompose,
    is_spectrum_symmetric,
    jacobi_eigh,
    perron_check,
    power_iteration_radius,
    spectral_radius,
    triangle_count_spectral,
    triangle_count_spectral_int,
)

from oracles import triangles_by_triples


def test_complete_graph_spectrum():
    spec = eigendecompose(complete(4))
    assert np.allclose(spec.eigenvalues, [3, -1, -1, -1], atol=1e-9)


def test_complete_bipartite_spectrum():
    spec = eigendecompose(complete_bipartite(2, 3))
    expected = [math.sqrt(6), 0, 0, 0, -math.sqrt(6)]
    assert np.allclose(spec.eigenvalues, expected, atol=1e-9)


def test_cycle_spectrum_closed_form():
    for n in (3, 4, 5, 6, 8):
        spec = eigendecompose(cycle(n))
        expected = sorted((2 * math.cos(2 * math.pi * j / n) for j in range(n)),
                          reverse=True)
        assert np.allclose(spec.eigenvalues, expected, atol=1e-9)


def test_empty_graph_rejected():
    with pytest.raises(EmptyGraphError):
        eigendecompose(Graph(0, ()))


def test_residual_and_validation_small_exhaustive():
    for n in range(1, 5):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = from_edge_mask(n, mask)
            spec = eigendecompose(g)
            assert spec.residual <= TOL * max(1, n)
            assert abs(spec.eigenvalues.sum()) <= 10 * TOL * n
            assert abs(np.square(spec.eigenvalues).sum() - 2 * g.m) \
                <= 10 * TOL * n


def test_jacobi_matches_lapack():
    # The reference solver's spectrum, sorted descending, meets the same
    # certificate as the LAPACK one.
    for g in (complete(5), cycle(7), star(6), complete_bipartite(3, 4)):
        lap = eigendecompose(g)
        a = adjacency_matrix(g)
        evals, evecs = jacobi_eigh(a)
        order = np.argsort(evals, kind="stable")[::-1]
        jac = Spectrum(evals[order], evecs[:, order], a)
        jac.validate(g.m)
        assert np.allclose(lap.eigenvalues, jac.eigenvalues, atol=1e-10)
        assert jac.residual <= TOL * max(1, g.n)
        # Jacobi lambda_1, LAPACK lambda_1, and power iteration all agree
        # within the 100*TOL cross-check budget.
        lam_power = power_iteration_radius(g)
        assert abs(jac.lambda1 - lam_power) \
            <= 100 * TOL * max(1, jac.lambda1)


def test_jacobi_on_plain_matrix():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(8, 8))
    a = a + a.T
    evals, evecs = jacobi_eigh(a)
    assert np.allclose(a @ evecs, evecs * evals, atol=1e-9)
    assert np.allclose(sorted(evals), np.linalg.eigvalsh(a), atol=1e-9)


def test_spectral_radius_closed_forms():
    for n in range(2, 8):
        assert spectral_radius(complete(n)) == pytest.approx(n - 1, abs=1e-9)
    assert spectral_radius(star(5)) == pytest.approx(2.0, abs=1e-9)
    assert spectral_radius(cycle(5)) == pytest.approx(2.0, abs=1e-9)


def test_power_iteration_agrees_with_eigh():
    for g in (complete(6), path(9), petersen_like(), cycle(12),
              complete_bipartite(4, 5)):
        lam_eigh = eigendecompose(g).lambda1
        lam_power = power_iteration_radius(g)
        assert abs(lam_eigh - lam_power) <= 1e-10 * max(1, lam_eigh)


def petersen_like():
    from spectool.families import petersen

    return petersen()


def test_power_iteration_edgeless():
    assert power_iteration_radius(Graph(3, (0, 0, 0))) == pytest.approx(0.0)


def test_triangle_count_spectral_examples():
    assert triangle_count_spectral_int(eigendecompose(complete(4))) == 4
    assert triangle_count_spectral_int(eigendecompose(cycle(5))) == 0
    assert triangle_count_spectral_int(eigendecompose(complete(3))) == 1
    value = triangle_count_spectral(eigendecompose(complete(4)))
    assert value == pytest.approx(4.0, abs=1e-9)


def test_triangle_count_nonintegral_raises():
    spec = eigendecompose(complete(4))
    object.__setattr__(spec, "eigenvalues", spec.eigenvalues + 0.001)
    with pytest.raises(NonIntegralError):
        triangle_count_spectral_int(spec)


def test_triangle_identity_exhaustive_n5():
    for mask in range(1 << 10):
        g = from_edge_mask(5, mask)
        spec = eigendecompose(g)
        assert triangle_count_spectral_int(spec) == triangles_by_triples(g)


def test_distinct_eigenvalue_count():
    assert distinct_eigenvalue_count(eigendecompose(complete_bipartite(2, 3))) == 3
    assert distinct_eigenvalue_count(eigendecompose(complete(4))) == 2
    assert distinct_eigenvalue_count(eigendecompose(path(4))) == 4


def test_spectrum_symmetry():
    assert is_spectrum_symmetric(eigendecompose(cycle(6)))
    assert not is_spectrum_symmetric(eigendecompose(cycle(5)))
    assert is_spectrum_symmetric(eigendecompose(complete_bipartite(2, 3)))


def test_perron_check():
    report = perron_check(cycle(6), eigendecompose(cycle(6)))
    assert report.dominant and report.negative_extreme
    report = perron_check(complete(4), eigendecompose(complete(4)))
    assert report.dominant and not report.negative_extreme
    report = perron_check(complete_bipartite(2, 3),
                          eigendecompose(complete_bipartite(2, 3)))
    assert report.negative_extreme


def test_perron_check_requires_connected():
    g = from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedInputError):
        perron_check(g, eigendecompose(g))


def test_symmetry_matches_bipartiteness_n5():
    from spectool.graph import bipartition

    for mask in range(1 << 10):
        g = from_edge_mask(5, mask)
        assert is_spectrum_symmetric(eigendecompose(g)) \
            == (bipartition(g) is not None)


def test_adjacency_matrix_is_symmetric_01():
    a = adjacency_matrix(complete_bipartite(3, 4))
    assert np.array_equal(a, a.T)
    assert a.sum() == 2 * 12
