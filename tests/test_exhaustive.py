"""The batch engine's structure kernel and trace certificate against the
per-graph reference."""

import numpy as np
import pytest

from spectool._exhaustive import block_stats, sweep_range
from spectool.errors import OrderTooLargeError
from spectool.graph import bipartition, connectivity, edge_order, from_edge_mask
from spectool.verify import VECTORIZABLE, SweepConfig, labeled_graph_count, sweep


def _assert_structure_matches_reference(n, masks):
    stats = block_stats(n, masks, want_bip=True, want_diam=True)
    for i, mask in enumerate(masks):
        g = from_edge_mask(n, int(mask))
        conn = connectivity(g)
        expected_diameter = conn.diameter if conn.is_connected else n
        got = (bool(stats["connected"][i]), bool(stats["bipartite"][i]),
               int(stats["diameter"][i]))
        assert got == (conn.is_connected, bipartition(g) is not None,
                       expected_diameter), (n, int(mask))
    return stats


@pytest.mark.parametrize("n", range(1, 7))
def test_structure_kernel_every_labeled_graph(n):
    _assert_structure_matches_reference(
        n, np.arange(labeled_graph_count(n), dtype=np.int64))


def _random_masks(n, count, seed):
    """Edge masks of mixed density; every other one keeps only the edges
    across a random vertex 2-colouring, so it is bipartite."""
    rng = np.random.default_rng(seed)
    pairs = edge_order(n)
    density = rng.choice([0.1, 0.2, 0.3, 0.5, 0.8], size=(count, 1))
    edges = rng.random((count, len(pairs))) < density
    side = rng.integers(0, 2, size=(count, n))
    cross = np.array([[row[u] != row[v] for u, v in pairs] for row in side])
    edges[::2] &= cross[::2]
    return (edges.astype(np.int64) << np.arange(len(pairs))).sum(axis=1)


@pytest.mark.parametrize("n,seed", [(7, 11), (8, 12)])
def test_structure_kernel_random_masks(n, seed):
    # At n = 8 a vertex's row fills its byte, so a full ball reads 255.
    stats = _assert_structure_matches_reference(
        n, _random_masks(n, 3000, seed))
    connected = stats["connected"]
    assert connected.any() and not connected.all()
    assert stats["bipartite"].any() and not stats["bipartite"].all()
    assert len(set(stats["diameter"][connected].tolist())) >= 3


def test_block_stats_rejects_orders_above_eight():
    with pytest.raises(OrderTooLargeError):
        block_stats(9, np.zeros(1, dtype=np.int64))


def test_failed_trace_certificate_goes_to_the_reference(monkeypatch):
    # K5 meets every bound with equality and has lambda_1 = 4 > sqrt(10).
    # Lowering lambda_1 to 3 would make the vectorised tallies call it
    # vacuous for (spectral) Mantel-Nosal and drop it from the tight census.
    n, k5 = 5, labeled_graph_count(5) - 1
    theorems = tuple(sorted(VECTORIZABLE, key=lambda t: t.value))
    config = SweepConfig(n_min=n, n_max=n, theorems=theorems)
    expected = sweep(config).payload()
    target = np.ones((n, n)) - np.eye(n)
    eigvalsh = np.linalg.eigvalsh

    def perturbed(a):
        ev = eigvalsh(a)
        if a.shape[1:] == target.shape:
            ev[(a == target).all(axis=(1, 2)), -1] -= 1.0
        return ev

    monkeypatch.setattr(np.linalg, "eigvalsh", perturbed)
    stats = block_stats(n, np.array([0, k5], dtype=np.int64))
    assert stats["certified"].tolist() == [True, False]
    values = {t.value for t in theorems}
    resolve = sweep_range(n, 0, k5 + 1, values, False)["resolve"]
    for value in values:
        assert k5 in resolve[value], value
    assert sweep(config).payload() == expected
