"""Walk tables, the decomposition identity, and the spectral expansion."""

from fractions import Fraction
import os
import subprocess
import sys

import numpy as np
import pytest

import spectool.walks
from spectool.errors import (
    DisconnectedInputError,
    EmptyGraphError,
    InvalidWalkTableError,
)
from spectool.families import complete, complete_bipartite, cycle, gnp, path, star
from spectool.graph import Graph, bipartition, from_edge_mask, from_edges, is_connected
from spectool.spectrum import eigendecompose
from spectool.walks import (
    WalkTable,
    _walk_dtype,
    a_greater_b_check,
    decomposition_identity_check,
    nikiforov_walk_inequality,
    ratio_convergence,
    walk_counts,
    walk_expansion,
    walk_inequality_holds,
)

from oracles import walk_levels_by_bitsets, walks_by_enumeration


def test_walk_counts_examples():
    assert walk_counts(complete(3), 3).totals == (3, 6, 12, 24)
    assert walk_counts(path(3), 3).totals == (3, 4, 6, 8)
    assert walk_counts(Graph(1, (0,)), 4).totals == (1, 0, 0, 0, 0)


def test_walk_counts_match_brute_enumeration():
    for n in range(1, 6):
        for mask in range(0, 1 << (n * (n - 1) // 2), 7):
            g = from_edge_mask(n, mask)
            table = walk_counts(g, 6)
            for k in range(7):
                assert table.totals[k] == walks_by_enumeration(g, k)


def test_walk_dtype_switch_at_int64_boundary():
    # K_30 has max degree 29, and 29**12 < 2**63 <= 29**13.
    assert 29 ** 12 < 2 ** 63 <= 29 ** 13
    assert _walk_dtype(29, 12) is np.int64
    assert _walk_dtype(29, 13) is object
    assert _walk_dtype(0, 0) is np.int64


@pytest.mark.parametrize("K", [12, 13])
def test_walk_counts_k30_on_both_sides_of_the_boundary(K):
    g = complete(30)
    table = walk_counts(g, K)
    assert list(table.per_vertex) == walk_levels_by_bitsets(g, K)
    for k in range(K + 1):
        assert table.per_vertex[k] == (29 ** k,) * 30
        assert table.totals[k] == 30 * 29 ** k
        assert type(table.totals[k]) is int
    # Totals outgrow int64 before the per-vertex counts do.
    assert table.totals[12] >= 2 ** 63
    table.validate()


def test_walk_kernel_object_dtype_matches_enumeration(monkeypatch):
    # Small graphs take the int64 path on their own, which
    # test_walk_counts_match_brute_enumeration covers;
    # forcing the exact-int fallback checks it against the same oracles.
    monkeypatch.setattr(spectool.walks, "_walk_dtype", lambda d, K: object)
    for n in range(1, 5):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = from_edge_mask(n, mask)
            table = walk_counts(g, 5)
            assert list(table.per_vertex) == walk_levels_by_bitsets(g, 5)
            for k in range(6):
                assert table.totals[k] == walks_by_enumeration(g, k)
                assert all(type(w) is int for w in table.per_vertex[k])


def test_walk_kernel_matches_python_reference_gnp30():
    for seed in range(3):
        g = gnp(30, 0.5, seed)
        for K in (12, 40):  # int64 at K = 12, Python ints at K = 40
            assert list(walk_counts(g, K).per_vertex) \
                == walk_levels_by_bitsets(g, K)


@pytest.mark.parametrize("table,match", [
    (WalkTable(1, (5, 0), ((1, 1), (0, 0))), "w_0"),
    (WalkTable(1, (2, 3), ((1, 1), (1, 1))), "per-vertex"),
    (WalkTable(1, (2, 0), ((1, 1), (1, -1))), "negative"),
    (WalkTable(2, (2, 2, 3), ((1, 1), (1, 1), (2, 1))), "squared degrees"),
    (WalkTable(3, (2, 2, 2, 1), ((1, 1), (1, 1), (1, 1), (1, 0))), "w_3 < w_2"),
])
def test_walk_table_validate_rejects_bad_tables(table, match):
    with pytest.raises(InvalidWalkTableError, match=match):
        table.validate()


def test_walk_table_validate_under_python_O():
    code = ("from spectool.walks import WalkTable\n"
            "WalkTable(1, (5, 0), ((1, 1), (0, 0))).validate()\n")
    src = os.path.dirname(os.path.dirname(spectool.walks.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-O", "-c", code],
                            capture_output=True, text=True, env=env)
    assert result.returncode != 0
    assert "InvalidWalkTableError" in result.stderr


def test_walk_table_validate_small_exhaustive():
    for mask in range(1 << 6):
        table = walk_counts(from_edge_mask(4, mask), 8)
        table.validate()


def test_decomposition_identity():
    assert decomposition_identity_check(complete(3), 10)
    assert decomposition_identity_check(path(3), 12)
    # k = 2 case reduces to w_2 = sum_i w_2(i), forced for any graph.
    for mask in range(64):
        assert decomposition_identity_check(from_edge_mask(4, mask), 2)


def test_nikiforov_residuals_k3_tight():
    residuals = nikiforov_walk_inequality(complete(3), 10)
    assert set(residuals) == set(range(2, 11))
    assert all(r == 0 for r in residuals.values())


def test_nikiforov_residuals_path3():
    residuals = nikiforov_walk_inequality(path(3), 3)
    assert residuals[3] == Fraction(-1, 2)


def test_nikiforov_edgeless_all_skipped():
    assert nikiforov_walk_inequality(Graph(3, (0, 0, 0)), 8) == {}


def test_walk_inequality_exhaustive_n5():
    for mask in range(1 << 10):
        g = from_edge_mask(5, mask)
        assert walk_inequality_holds(g, 12)


def test_expansion_k3_perron_only():
    e = walk_expansion(complete(3))
    assert e.a == pytest.approx(3.0, abs=1e-9)
    assert e.b == 0.0 and not e.has_negative_extreme
    assert sorted(e.coefficients)[2] == pytest.approx(3.0, abs=1e-9)
    assert sorted(e.coefficients)[0] >= -1e-10


def test_expansion_path3():
    e = walk_expansion(path(3))
    assert e.a == pytest.approx(2.914213562373094, abs=1e-9)
    assert e.b == pytest.approx(0.08578643762690492, abs=1e-9)
    assert e.has_negative_extreme


def test_expansion_edgeless_pair():
    e = walk_expansion(Graph(2, (0, 0)))
    assert e.a == pytest.approx(2.0, abs=1e-9)  # single zero cluster
    assert not e.has_negative_extreme


def test_expansion_coefficients_nonnegative_exhaustive_n4():
    for mask in range(64):
        e = walk_expansion(from_edge_mask(4, mask), K=12)
        assert all(c >= -1e-10 for c in e.coefficients)


def test_a_greater_b_path3():
    report = a_greater_b_check(path(3))
    assert report.ok and report.bipartite_case
    assert report.a > report.b
    assert report.ratio == pytest.approx(report.expected_ratio, rel=1e-3)


def test_a_greater_b_k23():
    report = a_greater_b_check(complete_bipartite(2, 3))
    assert report.ok and report.bipartite_case and report.a > report.b


def test_a_greater_b_nonbipartite_vacuous():
    report = a_greater_b_check(complete(3))
    assert report.ok and not report.bipartite_case and report.b == 0.0


def test_a_greater_b_preconditions():
    with pytest.raises(EmptyGraphError):
        a_greater_b_check(Graph(2, (0, 0)))
    with pytest.raises(DisconnectedInputError):
        a_greater_b_check(from_edges(4, [(0, 1), (2, 3)]))


def test_a_greater_b_connected_bipartite_n6():
    for mask in range(1 << 15):
        g = from_edge_mask(6, mask)
        if g.m == 0 or not is_connected(g) or bipartition(g) is None:
            continue
        report = a_greater_b_check(g)
        assert report.ok and report.a > report.b, mask


def test_ratio_convergence_k3():
    ratio, gap = ratio_convergence(complete(3), 10)
    assert ratio == 4.0 and gap == pytest.approx(0.0, abs=1e-12)


def test_ratio_convergence_path3_both_parities():
    even_ratio, even_gap = ratio_convergence(path(3), 40)
    odd_ratio, odd_gap = ratio_convergence(path(3), 39)
    assert even_ratio == pytest.approx(2.0, abs=1e-9)
    assert odd_ratio == pytest.approx(2.0, abs=1e-9)


def test_ratio_convergence_star5_exact():
    ratio, gap = ratio_convergence(star(5), 40)
    assert gap <= 1e-9


def test_ratio_convergence_gap_heuristic():
    for g in (complete(5), star(7), cycle(5), complete_bipartite(3, 4)):
        ratio, gap = ratio_convergence(g, 40)
        assert gap <= 1e-3


def test_a_greater_b_random_bipartite_fuzz():
    import random

    from spectool.families import random_bipartite

    rng = random.Random(99)
    checked = 0
    for _ in range(1000):
        g = random_bipartite(8, 8, 0.7, rng.randrange(1 << 30))
        if g.m == 0 or not is_connected(g):
            continue
        assert a_greater_b_check(g).ok
        checked += 1
    assert checked > 900
