"""The batch engine's kernels (structure, walk counts, peeling cores), its
trace certificate and its shards against the per-graph reference."""

import dataclasses
import json

import numpy as np
import pytest

from spectool import _exhaustive
from spectool._exhaustive import (
    BLOCK,
    MAX_EXHAUSTIVE_N,
    WALK_DEPTH,
    WALK_THEOREMS,
    SpectrumTable,
    _bound_arrays,
    _key_layout,
    adjacency,
    block_stats,
    complete_bipartite_cores,
    cycle_lengths,
    mask_rows,
    packed_keys,
    peel_survivors,
    power_sums,
    stack_stats,
    sweep_range,
    sweep_stack,
    verdict_table,
    walk_degree_limit,
    walk_levels,
)
from spectool.bounds import BoundKind, bound_value
from spectool.cycles import cycle_spectrum, erdos_peel
from spectool.errors import OrderTooLargeError, PreconditionViolatedError
from spectool.families import (
    complete,
    complete_bipartite,
    cycle,
    gnp,
    petersen,
    random_bipartite,
    star,
)
from spectool.spectrum import CLUSTER_EPS, EQ_EPS, eigendecompose
from spectool.graph import (
    bipartition,
    connectivity,
    edge_order,
    count_triangles_brute,
    first_triangle,
    from_edge_mask,
    from_edges,
    is_complete_bipartite_plus_isolated,
    to_edge_mask,
)
from spectool.graph6 import to_graph6
from spectool.verify import (
    ALL_THEOREMS,
    BOUND_THEOREMS,
    SweepConfig,
    _sample_seed,
    _stack_rows,
    _stack_size,
    _vector_shard,
    exhaustive_spectral_audit,
    fuzz,
    labeled_graph_count,
    parse_distribution,
    sweep,
)
from spectool.walks import (
    decomposition_identity_check,
    walk_counts,
    walk_inequality_holds,
)

from oracles import (
    adjacency_by_edge_bits,
    cycle_lengths_by_subsets,
    gnp_by_edge_list,
    graph_shard,
    ints_of_words,
    power_sums_by_int_powers,
    triangles_by_triple_masks,
    word_rows,
)


def _assert_structure_matches_reference(n, masks):
    stats = block_stats(n, masks)
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


def _cycle_edges(k, offset=0):
    return [(offset + v, offset + (v + 1) % k) for v in range(k)]


def _named_structures(n):
    """Edge masks of named graphs padded with isolated vertices to order n,
    with whether each is bipartite: odd cycles (with an even one beside
    them when n allows) are not; even cycles, K_{a,b}, paths, stars, a
    matching and the edgeless graph are."""
    odd = [_cycle_edges(k) for k in (3, 5, 7) if k <= n]
    if n >= 7:
        odd.append(_cycle_edges(3) + _cycle_edges(4, 3))
    even = [_cycle_edges(k) for k in (4, 6, 8) if k <= n]
    even += [[(u, a + v) for u in range(a) for v in range(b)]
             for a, b in ((1, 1), (2, 3), (3, 3), (3, 5), (4, 4), (1, n - 1))
             if 1 <= b and a + b <= n]
    even += [[(v, v + 1) for v in range(n - 1)],
             [(v, v + 1) for v in range(0, n - 1, 2)], []]
    if n >= 6:
        even.append([(0, 1), (1, 2), (3, 4), (3, 5)])
    graphs = [(edges, False) for edges in odd] \
        + [(edges, True) for edges in even]
    return (np.array([to_edge_mask(from_edges(n, edges))
                      for edges, _ in graphs], dtype=np.int64),
            [bipartite for _, bipartite in graphs])


@pytest.mark.parametrize("n", range(1, 9))
def test_bipartiteness_from_odd_power_sums_on_named_graphs(n):
    # block_stats reads bipartiteness off the odd power sums p_3, p_5, ...
    # up to p_n. A padded odd cycle has no shorter odd closed walk than
    # itself, so C_7 at n = 7 is seen by p_7, the last column, alone. In a
    # block of one graph the ball rounds stop as soon as its own balls do,
    # which a disconnected graph's diameter n must not depend on.
    masks, bipartite = _named_structures(n)
    stats = _assert_structure_matches_reference(n, masks)
    assert stats["bipartite"].tolist() == bipartite
    if n >= 3:
        assert not all(bipartite)
    for mask in masks:
        _assert_structure_matches_reference(n, mask[None])


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


def _kernel_masks(n):
    """Every labeled graph for n <= 6, seeded mixed-density masks above."""
    if n <= 6:
        return np.arange(labeled_graph_count(n), dtype=np.int64)
    return _random_masks(n, 1500, 20 + n)


@pytest.mark.parametrize("n", range(1, 9))
def test_walk_levels_match_walk_counts(n):
    masks = _kernel_masks(n)
    levels = walk_levels(adjacency(mask_rows(n, masks)), WALK_DEPTH)
    for i, mask in enumerate(masks):
        table = walk_counts(from_edge_mask(n, int(mask)), WALK_DEPTH)
        got = [tuple(level[:, i].tolist()) for level in levels]
        assert got == list(table.per_vertex), (n, int(mask))
        assert [sum(level) for level in got] == list(table.totals)


def test_sweep_walk_depth_is_exact_at_every_order():
    # Every graph a sweep meets is within the int64 walk rule at WALK_DEPTH,
    # so a sweep never hands a walk theorem back to the resolver.
    for n in range(1, MAX_EXHAUSTIVE_N + 1):
        assert walk_degree_limit(n, WALK_DEPTH) == n - 1, n


def test_walk_levels_at_the_int64_limit():
    # n (D+1) D^(K-1) < 2^63 holds for D = 7 up to K = 21 at n = 8; K_8
    # attains the bound on every count.
    assert walk_degree_limit(8, 21) == 7 and walk_degree_limit(8, 22) == 6
    masks = np.concatenate([[labeled_graph_count(8) - 1],
                            _random_masks(8, 50, 23)]).astype(np.int64)
    levels = walk_levels(adjacency(mask_rows(8, masks)), 21)
    for i, mask in enumerate(masks):
        table = walk_counts(from_edge_mask(8, int(mask)), 21)
        assert [int(level[:, i].sum()) for level in levels] \
            == list(table.totals)
    assert int(levels[21][:, 0].sum()) == 8 * 7 ** 21


@pytest.mark.parametrize("n", range(1, 9))
def test_walk_verdicts_match_the_per_graph_checkers(n):
    # The batch verdicts take w_{K-1} and w_K as dot products of the
    # middle levels; the per-graph checkers read all K + 1 levels.
    masks = _kernel_masks(n)
    stats = block_stats(n, masks, walks=True)
    for i, mask in enumerate(masks.tolist()):
        g = from_edge_mask(n, mask)
        table = walk_counts(g, WALK_DEPTH)
        assert bool(stats["walk_inequality"][i]) \
            == walk_inequality_holds(g, WALK_DEPTH, table), (n, mask)
        assert bool(stats["decomposition"][i]) \
            == decomposition_identity_check(g, WALK_DEPTH, table), (n, mask)


def _spectrum_masks(n):
    """Every labeled graph for n <= 6, 3,000 seeded masks above."""
    if n <= 6:
        return np.arange(labeled_graph_count(n), dtype=np.int64)
    return _random_masks(n, 3000, 30 + n)


@pytest.mark.parametrize("n", range(2, 9))
def test_power_sums_match_int64_matrix_powers(n):
    adj = adjacency(mask_rows(n, _spectrum_masks(n)))
    keys = power_sums(adj.astype(np.float64))
    expected = power_sums_by_int_powers(adj)
    assert (keys == expected).all()
    assert (keys.astype(np.int64) == expected).all()


def test_power_sums_exact_at_k8():
    # K_8 has the largest entries: trace(A^8) = 7^8 + 7 * 1 = 5,764,808.
    adj = adjacency(mask_rows(
        8, np.array([labeled_graph_count(8) - 1], dtype=np.int64)))
    keys = power_sums(adj.astype(np.float64))
    assert keys[0].tolist() == [7 ** k + 7 * (-1) ** k for k in range(2, 9)]


@pytest.mark.parametrize("n", range(1, 9))
def test_grouped_spectra_match_eigvalsh(n):
    a = adjacency(mask_rows(n, _spectrum_masks(n))).astype(np.float64)
    table = SpectrumTable(n)
    grouped = table.facts(a, power_sums(a))["ev"]
    assert grouped.shape == a.shape[:2]
    assert (np.diff(grouped, axis=1) >= 0).all()
    assert np.abs(grouped - np.linalg.eigvalsh(a)).max() <= 1e-12
    assert table.facts(a[:0], power_sums(a[:0]))["ev"].shape == (0, n)


def _row_major_degree_facts(adj):
    """m, min_deg, max_open and max_closed of a (b, n, n) 0/1 block from
    int64 degrees and neighbour sums, reduced along each graph's row."""
    a = adj.astype(np.int64)
    degrees = a.sum(axis=2)
    open_sums = (a @ degrees[:, :, None])[:, :, 0]
    return {"m": degrees.sum(axis=1) // 2, "min_deg": degrees.min(axis=1),
            "max_open": open_sums.max(axis=1),
            "max_closed": (open_sums + degrees).max(axis=1)}


def _oracle_blocks(n):
    """Every labeled graph for n <= 7, block by block; at n = 8, K_8 and
    3,000 seeded masks."""
    if n == 8:
        return [np.concatenate([[labeled_graph_count(8) - 1],
                                _spectrum_masks(8)]).astype(np.int64)]
    total = labeled_graph_count(n)
    return [np.arange(lo, min(lo + BLOCK, total), dtype=np.int64)
            for lo in range(0, total, BLOCK)]


@pytest.mark.parametrize("n", range(1, 9))
def test_block_facts_match_triple_masks_and_row_reductions(n):
    # The triangles p_3 / 6 against one mask per vertex triple, and the
    # vertex-major reductions against row-major ones on a bit-by-bit
    # adjacency, which the adjacency unpacked from the byte-table rows must
    # equal too.
    table = SpectrumTable(n)
    for masks in _oracle_blocks(n):
        stats = block_stats(n, masks, table=table)
        adj = adjacency_by_edge_bits(n, masks)
        assert (adjacency(mask_rows(n, masks)) == adj).all()
        assert (stats["tri"] == triangles_by_triple_masks(n, masks)).all()
        for key, value in _row_major_degree_facts(adj).items():
            assert (stats[key] == value).all(), (n, key)
    if n == 8:
        assert stats["tri"][0] == 56 and stats["max_closed"][0] == 56


@pytest.mark.parametrize("n,p", [(30, 0.5), (64, 0.05)])
def test_stack_degree_facts_match_row_reductions(n, p):
    rows = word_rows([gnp_by_edge_list(n, p, seed) for seed in range(128)])
    stats = stack_stats(rows)
    adj = (rows >> np.arange(n, dtype=np.uint64)) & 1
    for key, value in _row_major_degree_facts(adj).items():
        assert (stats[key] == value).all(), key


def _cospectral_pair():
    """K_{1,4} and C_4 plus an isolated vertex: both have spectrum
    {2, 0, 0, 0, -2}, and only the first is connected."""
    c4_k1 = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0)])
    return to_edge_mask(star(5)), to_edge_mask(c4_k1)


def test_one_solve_per_distinct_power_sum_key(monkeypatch):
    n = 5
    masks = np.arange(labeled_graph_count(n), dtype=np.int64)
    a = adjacency(mask_rows(n, masks)).astype(np.float64)
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def spy(x):
        solved.append(x.copy())
        return eigvalsh(x)

    keys = power_sums(a)
    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    ev = SpectrumTable(n).facts(a, keys)["ev"]
    assert len(solved) == 1
    solved_keys = power_sums(solved[0])
    assert len(solved_keys) == len(np.unique(keys, axis=0)) \
        == len(np.unique(solved_keys, axis=0))
    s, c = _cospectral_pair()
    assert (keys[s] == keys[c]).all()
    assert (ev[s] == ev[c]).all()
    assert np.abs(ev[s] - [-2, 0, 0, 0, 2]).max() <= 1e-12
    group = (keys == keys[s]).all(axis=1)
    # 5 labeled stars and 5 * 3 labeled C_4 plus a vertex.
    assert group.sum() == 20
    assert sum((x == a[group][:, None]).all(axis=(2, 3)).any()
               for x in solved[0]) == 1


def _partition(inverse):
    """The groups of equal entries of ``inverse``, as a set of frozensets."""
    groups: dict = {}
    for i, label in enumerate(inverse.tolist()):
        groups.setdefault(label, []).append(i)
    return {frozenset(group) for group in groups.values()}


@pytest.mark.parametrize("n", range(2, 9))
def test_packed_keys_group_like_power_sums(n):
    a = adjacency(mask_rows(n, _spectrum_masks(n))).astype(np.float64)
    packed = np.unique(packed_keys(power_sums(a), n), axis=0,
                       return_inverse=True)[1]
    exact = np.unique(power_sums(a), axis=0, return_inverse=True)[1]
    assert _partition(packed) == _partition(exact)


@pytest.mark.parametrize("n", range(2, 9))
def test_packed_keys_unpack_to_power_sums(n):
    # Each field holds p_k exactly, K_n (every p_k at its bound) included,
    # so no field spills into its neighbour or past bit 62.
    masks = np.concatenate([[labeled_graph_count(n) - 1],
                            _spectrum_masks(n)]).astype(np.int64)
    a = adjacency(mask_rows(n, masks)).astype(np.float64)
    words = packed_keys(power_sums(a), n)
    assert (words >= 0).all()
    layout = _key_layout(n)
    unpacked = np.stack([
        (words[:, word] >> shift) & ((1 << (n * (n - 1) ** k).bit_length()) - 1)
        for k, (word, shift) in zip(range(2, n + 1), layout)], axis=1)
    assert (unpacked == power_sums(a)).all()
    for k, (word, shift) in zip(range(2, n + 1), layout):
        assert shift + (n * (n - 1) ** k).bit_length() <= 63
    assert words.shape[1] == {7: 2, 8: 3}.get(n, 1)


def _packed_keys_of_masks(n, masks):
    a = adjacency(mask_rows(n, masks)).astype(np.float64)
    return packed_keys(power_sums(a), n)


def test_packed_keys_at_one_vertex():
    sums = power_sums(np.zeros((3, 1, 1)))
    assert sums.shape == (3, 0)
    assert packed_keys(sums, 1).tolist() == [[0], [0], [0]]


@pytest.mark.parametrize("n", range(1, 9))
def test_table_rows_match_a_fresh_eigensolve(n):
    # Two blocks through one table: every graph's row holds its own
    # spectrum's certificate sums, symmetry flag and distinct count.
    masks = _spectrum_masks(n)
    half = len(masks) // 2
    table = SpectrumTable(n)
    parts = [block_stats(n, part, table=table)
             for part in (masks[:half], masks[half:])]
    ev = np.linalg.eigvalsh(
        adjacency(mask_rows(n, masks)).astype(np.float64))
    got = {key: np.concatenate([part[key] for part in parts])
           for key in ("lam1", "sum_cubes", "symmetric", "distinct")}
    assert np.abs(got["lam1"] - ev[:, -1]).max() <= 1e-12
    assert np.abs(got["sum_cubes"] - (ev ** 3).sum(axis=1)).max() <= 1e-9
    assert (got["symmetric"]
            == (np.abs(ev + ev[:, ::-1]).max(axis=1) <= CLUSTER_EPS)).all()
    assert (got["distinct"]
            == (np.diff(ev, axis=1) > CLUSTER_EPS).sum(axis=1) + 1).all()
    assert len(table.index) == len(table.ev) == len(table.sums) \
        == len(np.unique(_packed_keys_of_masks(n, masks), axis=0))


def _spying_eigvalsh(monkeypatch):
    """The matrices each ``eigvalsh`` call solves, one list entry per call."""
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def spy(x):
        solved.append(x.copy())
        return eigvalsh(x)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return solved


def test_a_block_of_known_keys_makes_no_solve(monkeypatch):
    n = 6
    masks = np.arange(BLOCK, dtype=np.int64)
    table = SpectrumTable(n)
    solved = _spying_eigvalsh(monkeypatch)
    first = block_stats(n, masks, table=table)
    assert len(solved) == 1 and len(solved[0]) == len(table.index)
    again = block_stats(n, masks[::-1].copy(), table=table)
    assert len(solved) == 1
    assert (again["lam1"] == first["lam1"][::-1]).all()


def test_a_shard_solves_each_key_once(monkeypatch):
    # Four n = 7 blocks: one solve call per block at most, and one solved
    # matrix per distinct key of the whole range, not of each block.
    n, lo, hi = 7, 1 << 20, (1 << 20) + 4 * BLOCK
    values = {"stanley", "lemma1-spectrum-symmetry"}
    solved = _spying_eigvalsh(monkeypatch)
    sweep_range(n, lo, hi, values, False)
    keys = _packed_keys_of_masks(n, np.arange(lo, hi, dtype=np.int64))
    distinct = len(np.unique(keys, axis=0))
    per_block = sum(len(np.unique(keys[i:i + BLOCK], axis=0))
                    for i in range(0, len(keys), BLOCK))
    assert len(solved) <= 4
    assert sum(len(x) for x in solved) == distinct < per_block
    keys = packed_keys(power_sums(np.concatenate(solved)), n)
    assert len(np.unique(keys, axis=0)) == distinct


def test_a_failed_certificate_reaches_the_key_in_every_block(monkeypatch):
    # Lower lambda_1 of the one graph solved for a key that recurs across
    # the four blocks of an n = 7 range: every graph with that key fails its
    # certificate and is resolved, in every block. A range that starts
    # after that graph gets a table of its own and is not affected.
    n, lo, hi = 7, 1 << 20, (1 << 20) + 4 * BLOCK
    masks = np.arange(lo, hi, dtype=np.int64)
    keys = _packed_keys_of_masks(n, masks)
    first_block = {tuple(key) for key in keys[:BLOCK].tolist()}
    last_block = {tuple(key) for key in keys[-BLOCK:].tolist()}
    key = min(first_block & last_block)
    group = masks[(keys == key).all(axis=1)]
    assert group[0] < lo + BLOCK <= hi - BLOCK <= group[-1]
    rep = adjacency(mask_rows(n, group[:1]))[0]
    eigvalsh = np.linalg.eigvalsh

    def perturbed(a):
        ev = eigvalsh(a)
        ev[(a == rep).all(axis=(1, 2)), -1] -= 1.0
        return ev

    monkeypatch.setattr(np.linalg, "eigvalsh", perturbed)
    values = {"stanley", "nosal"}
    resolve = sweep_range(n, lo, hi, values, False)["resolve"]
    for value in values:
        assert set(group.tolist()) <= set(resolve[value]), value
    later = int(group[0]) + 1
    resolve = sweep_range(n, later, hi, values, False)["resolve"]
    assert not set(group.tolist()) & set(resolve.get("nosal", []))


@pytest.mark.parametrize("n", range(1, 9))
def test_peel_survivors_match_erdos_peel(n):
    # Each peel from every vertex, and from the previous k's survivors, as
    # verdict_table chains them.
    masks = _kernel_masks(n)
    columns = np.ascontiguousarray(
        block_stats(n, masks)["rows"].transpose(1, 0, 2))
    chained = None
    for k in (1, 2, 3):
        alive = ints_of_words(peel_survivors(columns, k))
        chained = peel_survivors(columns, k, chained)
        assert ints_of_words(chained) == alive, (n, k)
        for i, mask in enumerate(masks):
            peel = erdos_peel(from_edge_mask(n, int(mask)), k)
            assert alive[i] == sum(1 << v for v in peel.surviving), \
                (n, int(mask), k)


def test_peel_survivors_on_uint64_columns_at_vertex_63():
    # Vertex 63, the top bit of a uint64 word, inside every core of a K_5
    # and outside them as the centre of a star hung on another K_5: it has
    # degree 6 there but goes in the second round, after its leaves.
    inside = from_edges(64, [(u, v) for u in range(59, 64)
                             for v in range(u + 1, 64)])
    outside = from_edges(64, [(u, v) for u in range(5) for v in range(u + 1, 5)]
                         + [(v, 63) for v in range(5, 11)])
    columns = np.ascontiguousarray(
        word_rows([inside, outside]).transpose(1, 0, 2))
    top = np.uint64(1) << np.uint64(63)
    for k in (1, 2, 3):
        alive = peel_survivors(columns, k)
        assert alive.dtype == np.uint64 and alive.shape == (2, 1)
        assert ints_of_words(alive) == [
            sum(1 << v for v in erdos_peel(g, k).surviving)
            for g in (inside, outside)], k
        assert (alive[:, 0] & top).tolist() == [int(top), 0], k


def _graph_of_rows(row):
    """The graph whose vertex v has neighbour set ``row[v]``."""
    n = len(row)
    return from_edges(n, [(u, v) for v in range(n) for u in range(v)
                          if row[v] >> u & 1])


def _assert_cores_match_reference(n, rows):
    got = complete_bipartite_cores(rows).tolist()
    for i, row in enumerate(ints_of_words(rows)):
        g = _graph_of_rows(row)
        assert got[i] == (is_complete_bipartite_plus_isolated(g) is not None), \
            (n, to_edge_mask(g))
    return got


@pytest.mark.parametrize("n", range(1, 9))
def test_complete_bipartite_cores_match_reference(n):
    rows = block_stats(n, _kernel_masks(n))["rows"]
    got = _assert_cores_match_reference(n, rows)
    if n >= 3:  # every graph on two vertices qualifies
        assert any(got) and not all(got)


@pytest.mark.parametrize("n", range(1, 9))
def test_cycle_lengths_match_cycle_spectrum(n):
    # Every labeled graph n <= 6; at n = 7 and 8 the seeded masks hold
    # graphs on both sides of Bondy's degree threshold 2 * min_deg > n.
    masks = _kernel_masks(n)
    stats = block_stats(n, masks)
    got = cycle_lengths(stats["rows"]).tolist()
    for i, mask in enumerate(masks.tolist()):
        assert got[i] == cycle_spectrum(from_edge_mask(n, mask), n).present, \
            (n, mask)
    above = 2 * stats["min_deg"] > n
    if n >= 7:
        assert above.any() and not above.all()


@pytest.mark.parametrize("n", range(1, 9))
def test_cycle_lengths_match_the_subset_oracle(n):
    # The layered DP against the one-subset-at-a-time pass it replaced, on
    # uint8 rows and on the same rows one uint64 word wide.
    rows = block_stats(n, _kernel_masks(n))["rows"]
    expected = cycle_lengths_by_subsets(rows[:, :, 0]).tolist()
    for word in (np.uint8, np.uint64):
        assert cycle_lengths(rows.astype(word)).tolist() == expected, word


def test_cycle_lengths_on_named_graphs_and_tiny_blocks():
    # Blocks of one row: K_n, C_n and K_{4,4}; and blocks of no rows.
    graphs = [complete(n) for n in range(1, 9)] \
        + [cycle(n) for n in range(3, 9)] + [complete_bipartite(4, 4)]
    for word in (np.uint8, np.uint64):
        for g in graphs:
            rows = np.array([g.adj], dtype=word)
            assert cycle_lengths(rows[:, :, None]).tolist() \
                == cycle_lengths_by_subsets(rows).tolist() \
                == [cycle_spectrum(g, g.n).present], (g.n, g.m, word)
        for n in range(1, 9):
            assert cycle_lengths(np.zeros((0, n, 1), dtype=word)).shape \
                == (0,)
    assert cycle_lengths(np.array([complete(8).adj], dtype=np.uint8)[
        :, :, None]).tolist() == [sum(1 << l for l in range(3, 9))]
    assert cycle_lengths(np.array([complete_bipartite(4, 4).adj],
                                  dtype=np.uint8)[:, :, None]).tolist() \
        == [(1 << 4) | (1 << 6) | (1 << 8)]


def test_sweep_passes_the_cores_test_only_open_candidates(monkeypatch):
    # Every n = 7 graph the sweep hands to the predicate is triangle-free
    # at the spectral Mantel threshold; all of them are complete bipartite
    # plus isolated vertices, as the theorem says.
    n = 7
    seen = []
    real = _exhaustive.complete_bipartite_cores

    def spy(rows):
        seen.append(rows.copy())
        return real(rows)

    monkeypatch.setattr(_exhaustive, "complete_bipartite_cores", spy)
    result = sweep_range(n, 0, labeled_graph_count(n), {"spectral-mantel"},
                         False)
    assert "spectral-mantel" not in result["resolve"]
    rows = np.concatenate(seen)
    assert len(rows) == 967
    assert all(_assert_cores_match_reference(n, rows))
    for row in ints_of_words(rows):
        g = _graph_of_rows(row)
        assert first_triangle(g) is None
        assert eigendecompose(g).lambda1 >= np.sqrt(g.m) - EQ_EPS


def test_a_failing_cores_test_reaches_the_resolver_and_the_audit(
        monkeypatch):
    # With the predicate rejecting every graph, the resolver confirms each
    # one per graph, so the payload stays as it was; the audit lists every
    # certified triangle-free graph with lambda_1 >= sqrt(m) - EQ_EPS.
    config = SweepConfig(n_min=1, n_max=6, theorems=ALL_THEOREMS)
    expected = sweep(config).payload()
    candidates, at_threshold = [], []
    for n in range(1, 7):
        for mask in range(labeled_graph_count(n)):
            g = from_edge_mask(n, mask)
            lam1, sqrt_m = eigendecompose(g).lambda1, np.sqrt(g.m)
            if first_triangle(g) is None and lam1 >= sqrt_m - EQ_EPS:
                candidates.append(to_graph6(g))
                if connectivity(g).is_connected \
                        and abs(lam1 - sqrt_m) <= EQ_EPS:
                    at_threshold.append(to_graph6(g))
    monkeypatch.setattr(_exhaustive, "complete_bipartite_cores",
                        lambda rows: np.zeros(len(rows), dtype=bool))
    resolve = sweep_range(6, 0, labeled_graph_count(6),
                          {"spectral-mantel"}, False)["resolve"]
    assert len(resolve["spectral-mantel"]) == 302
    assert sweep(config).payload() == expected
    audit = exhaustive_spectral_audit(1, 6)
    assert audit.uncertified == []
    assert sorted(audit.spectral_mantel_failures) == sorted(candidates)
    assert sorted(audit.tight_threshold_not_complete_bipartite) \
        == sorted(at_threshold)
    assert at_threshold and not audit.ok()


@pytest.mark.parametrize("connected_only", [False, True])
def test_nothing_is_resolved_up_to_six_vertices(connected_only):
    # Every theorem is decided in the batch, and no graph fails the
    # certificate or a theorem; the payload tests cannot see a kernel that
    # sends too much to the resolver.
    values = {t.value for t in ALL_THEOREMS}
    for n in range(1, 7):
        result = sweep_range(n, 0, labeled_graph_count(n), values,
                             connected_only)
        assert result["resolve"] == {}, n


@pytest.mark.parametrize("n", range(1, 7))
def test_only_bondy_above_its_threshold_is_resolved(monkeypatch, n):
    # With the cycle kernel finding no cycle, exactly the graphs above
    # Bondy's degree threshold reach the resolver, which finds every length
    # on each, so the payload stays as it was.
    config = SweepConfig(n_min=n, n_max=n, theorems=ALL_THEOREMS)
    expected = sweep(config).payload()
    monkeypatch.setattr(_exhaustive, "cycle_lengths",
                        lambda rows: np.zeros(len(rows), dtype=np.int64))
    total = labeled_graph_count(n)
    values = {t.value for t in ALL_THEOREMS}
    resolve = sweep_range(n, 0, total, values, False)["resolve"]
    above = [mask for mask in range(total)
             if 2 * min(from_edge_mask(n, mask).degrees()) > n]
    assert sorted(resolve.pop("lemma6-bondy", [])) == above
    assert resolve == {}
    assert sweep(config).payload() == expected


@pytest.mark.parametrize("k", [1, 2, 3])
def test_an_empty_core_goes_to_the_reference(monkeypatch, k):
    # No graph with m >= kn has an empty (k+1)-core, so fake one for every
    # graph and check that exactly those the peel applies to are resolved.
    # The densest 4,096 graphs at n = 7 have m >= 9 edges, and K_7 has 21.
    n = 7
    total = labeled_graph_count(n)
    lo = total - 4096
    real = _exhaustive.peel_survivors

    def empty_core(columns, j, start=None):
        alive = real(columns, j, start)
        return alive * 0 if j == k else alive

    monkeypatch.setattr(_exhaustive, "peel_survivors", empty_core)
    resolve = sweep_range(n, lo, total, {"lemma5-peel"}, False)["resolve"]
    assert resolve["lemma5-peel"] == [
        mask for mask in range(lo, total) if bin(mask).count("1") >= k * n]


def _shard_payload(partial):
    return (partial["totals"],
            {bound: sorted(graphs) for bound, graphs in partial["tight"].items()},
            sorted(json.dumps(c.to_dict(), sort_keys=True)
                   for c in partial["counterexamples"]))


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("where", ["sparse", "middle", "dense"])
def test_vector_shard_matches_graph_shard(n, where):
    total = labeled_graph_count(n)
    lo = {"sparse": 0, "middle": total // 2 - 600, "dense": total - 1200}[where]
    for connected_only in (False, True):
        args = (n, range(lo, lo + 1200), ALL_THEOREMS, connected_only)
        assert _shard_payload(_vector_shard(args)) \
            == _shard_payload(graph_shard(args))


@pytest.mark.parametrize("n", range(1, 8))
def test_bound_arrays_match_bound_value(n):
    # The batch engine's copy of the five bound formulas, value by value
    # against the per-graph one: every labeled graph n <= 6, 2,000 seeded
    # masks at n = 7. Hong's bound has a precondition (no isolated vertex),
    # which the batch tallies read as min_deg >= 1.
    total = labeled_graph_count(n)
    if n <= 6:
        masks = np.arange(total, dtype=np.int64)
    else:
        masks = np.random.default_rng(17).integers(0, total, 2000)
    stats = block_stats(n, masks)
    values = _bound_arrays(stats, n)
    kinds = set(BOUND_THEOREMS.values())
    assert set(values) == {kind.value for kind in kinds}
    for i, mask in enumerate(masks.tolist()):
        g = from_edge_mask(n, mask)
        for kind in kinds:
            try:
                expected = bound_value(g, kind)
            except PreconditionViolatedError:
                assert kind is BoundKind.HONG and stats["min_deg"][i] < 1
                continue
            if kind is BoundKind.HONG:
                assert stats["min_deg"][i] >= 1, mask
            assert abs(values[kind.value][i] - expected) <= 1e-12, \
                (n, mask, kind)


def test_block_stats_rejects_orders_above_eight():
    with pytest.raises(OrderTooLargeError):
        block_stats(9, np.zeros(1, dtype=np.int64))


def test_failed_trace_certificate_goes_to_the_reference(monkeypatch):
    # K5 meets every bound with equality and has lambda_1 = 4 > sqrt(10).
    # Lowering lambda_1 to 3 would make the vectorised tallies call it
    # vacuous for (spectral) Mantel-Nosal and drop it from the tight census.
    n, k5 = 5, labeled_graph_count(5) - 1
    theorems = ALL_THEOREMS
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
    # K5 is undecided for every theorem and in no tight list of the batch.
    table, tight = verdict_table(
        n, block_stats(n, np.array([0, k5], dtype=np.int64), walks=True),
        values)
    assert set(table) == values
    for value, (nonvac, holds, undecided) in table.items():
        assert undecided.tolist() == [False, True], value
        assert not nonvac[1] and not holds[1], value
    assert len(tight) == 5 and not any(graphs[1] for graphs in tight.values())
    resolve = sweep_range(n, 0, k5 + 1, values, False)["resolve"]
    for value in values:
        assert k5 in resolve[value], value
    assert sweep(config).payload() == expected


def test_failed_certificate_reaches_every_graph_sharing_the_spectrum(
        monkeypatch):
    # Lower lambda_1 for the one graph solved for the spectrum {2, 0, 0, 0,
    # -2}; the 20 labeled graphs that share it (the two cospectral shapes
    # included) must all fail their own trace certificate and be resolved.
    n = 5
    total = labeled_graph_count(n)
    config = SweepConfig(n_min=n, n_max=n, theorems=ALL_THEOREMS)
    expected = sweep(config).payload()
    masks = np.arange(total, dtype=np.int64)
    keys = power_sums(adjacency(mask_rows(n, masks)).astype(np.float64))
    s, c = _cospectral_pair()
    group = masks[(keys == keys[s]).all(axis=1)].tolist()
    assert len(group) == 20 and s in group and c in group
    rep = adjacency(mask_rows(n, masks[group[:1]]))[0]
    eigvalsh = np.linalg.eigvalsh

    def perturbed(a):
        ev = eigvalsh(a)
        ev[(a == rep).all(axis=(1, 2)), -1] -= 1.0
        return ev

    monkeypatch.setattr(np.linalg, "eigvalsh", perturbed)
    certified = block_stats(n, masks)["certified"]
    assert masks[~certified].tolist() == group
    values = {t.value for t in ALL_THEOREMS}
    resolve = sweep_range(n, 0, total, values, False)["resolve"]
    for value in values:
        assert set(group) <= set(resolve[value]), value
    assert sweep(config).payload() == expected


def test_audit_reports_a_failed_trace_certificate(monkeypatch):
    # The same lowered lambda_1 of K5 as above: the audit must name K5 as
    # uncertified and fail, and list nothing as uncertified otherwise.
    n = 5
    clean = exhaustive_spectral_audit(n, n)
    assert clean.uncertified == [] and clean.ok()
    assert not dataclasses.replace(clean, uncertified=["D~{"]).ok()
    target = np.ones((n, n)) - np.eye(n)
    eigvalsh = np.linalg.eigvalsh

    def perturbed(a):
        ev = eigvalsh(a)
        if a.shape[1:] == target.shape:
            ev[(a == target).all(axis=(1, 2)), -1] -= 1.0
        return ev

    monkeypatch.setattr(np.linalg, "eigvalsh", perturbed)
    audit = exhaustive_spectral_audit(n, n)
    assert audit.uncertified == [to_graph6(complete(n))]
    assert not audit.ok()


def test_a_lowered_bound_reaches_the_sweep_and_the_audit(monkeypatch):
    # Stanley's batch value 1 lower on K5 (4 -> 3, below lambda_1 = 4): the
    # sweep hands K5 to the per-graph checker, which finds it tight, so the
    # payload stays as it was; the audit, on the same batch verdicts, names
    # it a violation and puts thm11(K5) = 4 above the lowered Stanley value.
    n, k5 = 5, labeled_graph_count(5) - 1
    config = SweepConfig(n_min=n, n_max=n, theorems=ALL_THEOREMS)
    expected = sweep(config).payload()
    real = _exhaustive._bound_arrays

    def lowered(stats, order):
        values = real(stats, order)
        if order == n:
            values["stanley"][stats["masks"] == k5] -= 1
        return values

    monkeypatch.setattr(_exhaustive, "_bound_arrays", lowered)
    values = {t.value for t in ALL_THEOREMS}
    resolve = sweep_range(n, 0, k5 + 1, values, False)["resolve"]
    assert resolve["stanley"] == [k5]
    audit = exhaustive_spectral_audit(n, n)
    assert to_graph6(complete(n)) == "D~{"
    assert audit.bound_violations["stanley"] == ["D~{"]
    assert "D~{" in audit.thm11_above_stanley
    assert not audit.ok()
    assert sweep(config).payload() == expected
    assert "D~{" in expected["tight"]["stanley"]


def test_audit_tight_counts_match_the_sweep_census():
    config = SweepConfig(n_min=1, n_max=6, theorems=tuple(BOUND_THEOREMS))
    tight = sweep(config).payload()["tight"]
    assert exhaustive_spectral_audit(1, 6).tight_counts == {
        bound: len(graphs) for bound, graphs in tight.items()}


def _across_words(n):
    """Graphs on n >= 64 vertices built to use the vertices at the ends of
    the words, 63 and, where n allows, 64, 127, 128, 191 and 192: K_{a,b}
    plus isolated vertices, with and without one edge inside a part; paths
    and cycles relabelled to pass through them, so that their edges cross
    word boundaries; and disconnected unions."""
    order = np.random.default_rng(63).permutation(n).tolist()
    for i, v in enumerate(v for v in (63, 64, 127, 128, 191, 192) if v < n):
        order.remove(v)
        order.insert(5 + 2 * i, v)  # every relabelled shape below uses 63

    def relabel(edges):
        return from_edges(n, [(order[u], order[v]) for u, v in edges])

    def cbip(a, b, offset=0):
        return [(offset + u, offset + a + v) for u in range(a)
                for v in range(b)]

    def path_edges(k, offset=0):
        return [(offset + v, offset + v + 1) for v in range(k - 1)]

    def cycle_edges(k, offset=0):
        return path_edges(k, offset) + [(offset, offset + k - 1)]

    return [
        relabel(cbip(3, 4)), relabel(cbip(3, 4) + [(0, 1)]),
        relabel(cbip(6, 1)), relabel(cbip(1, 6) + [(6, 7)]),
        relabel(cbip(32, 32)), relabel(cbip(32, 32) + [(33, 40)]),
        relabel(path_edges(64)), relabel(path_edges(9)),
        relabel(cycle_edges(64)), relabel(cycle_edges(63)),
        relabel(cycle_edges(63) + [(0, 63)]), relabel(cycle_edges(7)),
        relabel(cycle_edges(6) + cycle_edges(5, 6) + cbip(2, 3, 20)),
        relabel(cbip(2, 2) + cbip(3, 3, 4)),
        from_edges(n, [(0, 63)]), from_edges(n, []),
    ] + ([from_edges(n, [(v, v + 1) for v in (63, 127, 191) if v + 1 < n]
                     + [(0, n - 1)])] if n > 64 else [])


def _word_graphs(n):
    """Seeded G(n, p) over a range of densities and seeded random
    bipartite graphs at order n, plus ``_across_words`` from n = 64."""
    graphs = [gnp(n, p, seed) for p in (0.02, 0.06, 0.15, 0.4, 0.9)
              for seed in range(8)]
    graphs += [random_bipartite(n // 2, n - n // 2, p, seed)
               for p in (0.05, 0.3, 1.0) for seed in range(3)]
    return graphs + (_across_words(n) if n >= 64 else [])


@pytest.mark.parametrize("n", [9, 30, 63, 64, 65, 128, 129, 200])
def test_word_kernels_match_reference(n):
    # The peeling cores, the complete bipartite test and the structure,
    # degrees and triangles of a uint64 stack against erdos_peel,
    # is_complete_bipartite_plus_isolated, connectivity, bipartition and the
    # per-graph counts, on rows one word wide and, from n = 65, two to four.
    graphs = _word_graphs(n)
    rows = word_rows(graphs)
    assert rows.shape == (len(graphs), n, -(-n // 64))
    stats = stack_stats(rows)
    cores = complete_bipartite_cores(rows).tolist()
    columns = np.ascontiguousarray(rows.transpose(1, 0, 2))
    alive = {k: ints_of_words(peel_survivors(columns, k)) for k in (1, 2, 3)}
    for i, g in enumerate(graphs):
        conn = connectivity(g)
        expected_diameter = conn.diameter if conn.is_connected else n
        got = (bool(stats["connected"][i]), bool(stats["bipartite"][i]),
               int(stats["diameter"][i]))
        assert got == (conn.is_connected, bipartition(g) is not None,
                       expected_diameter), (n, i)
        assert stats["degrees"][i].tolist() == g.degrees(), (n, i)
        assert stats["tri"][i] == count_triangles_brute(g), (n, i)
        assert cores[i] == (is_complete_bipartite_plus_isolated(g)
                            is not None), (n, i)
        for k in (1, 2, 3):
            surviving = erdos_peel(g, k).surviving
            assert alive[k][i] == sum(1 << v for v in surviving), (n, i, k)
    for flags in (stats["connected"], stats["bipartite"], cores):
        assert any(flags) and not all(flags)
    assert len(set(stats["diameter"][stats["connected"]].tolist())) >= 3


@pytest.mark.parametrize("n", range(1, 9))
def test_stack_stats_match_block_stats(n):
    # Both fact builders on the same graphs: one from edge masks, keyed
    # power sums and walk sets, the other from uint64 rows, one unkeyed
    # solve and balls.
    masks = _kernel_masks(n)
    by_masks = block_stats(n, masks, walks=True)
    by_rows = stack_stats(by_masks["rows"].astype(np.uint64), walks=True)
    assert set(by_rows) == set(by_masks) - {"masks"}
    for key, value in by_rows.items():
        if value.dtype == np.float64:
            assert np.abs(value - by_masks[key]).max() <= 1e-12, key
        else:
            assert (value == by_masks[key]).all(), key


def _circulant(n, degree):
    """The circulant graph on n (even) vertices joined at offsets
    1..degree // 2, and n / 2 too when the degree is odd."""
    offsets = list(range(1, degree // 2 + 1)) + ([n // 2] if degree % 2
                                                   else [])
    return from_edges(n, {(min(v, (v + d) % n), max(v, (v + d) % n))
                          for v in range(n) for d in offsets})


@pytest.mark.filterwarnings("error")
def test_stack_walks_at_the_edge_of_the_int64_rule():
    # D = 26 is the largest degree at n = 64 whose totals, inequality sides
    # and decomposition sums int64 holds at K = 12: the D-regular graph's
    # int64 totals equal walk_counts' Python ints (w_12 = 64 * 26^12 > 2^62)
    # and both walk verdicts are decided; a (D+1)-regular graph is left
    # to the resolver, and its wrapped int64 counts raise no warning.
    n, K = 64, WALK_DEPTH
    limit = walk_degree_limit(n, K)
    assert n * (limit + 1) * limit ** (K - 1) < 2 ** 63 \
        <= n * (limit + 2) * (limit + 1) ** (K - 1)
    edge, past = _circulant(n, limit), _circulant(n, limit + 1)
    assert set(edge.degrees()) == {limit} and set(past.degrees()) == {limit + 1}
    stats = stack_stats(word_rows([edge, past]), walks=True)
    levels = walk_levels(stats["rows"][:1]
                         >> np.arange(n, dtype=np.uint64) & 1, K)
    totals = walk_counts(edge, K).totals
    assert [int(level[:, 0].sum()) for level in levels] == list(totals)
    assert totals[K] == n * limit ** K > 2 ** 62
    assert walk_inequality_holds(edge, WALK_DEPTH)
    assert decomposition_identity_check(edge, K)
    assert stats["walk_inequality"].tolist() == [True, False]
    assert stats["decomposition"].tolist() == [True, False]


def _structure_graphs():
    """Named graphs on both sides of the A^2 test (complete, complete
    bipartite, triangle-free of diameter 2, diameter 3, disconnected with
    triangles) and ``_word_graphs(30)``, grouped by order."""
    tri_path = from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    two_triangles = from_edges(6, _cycle_edges(3) + _cycle_edges(3, 3))
    graphs = [complete(1), complete(2), complete(30),
              complete_bipartite(15, 15), cycle(5), petersen(), tri_path,
              two_triangles] + _word_graphs(30)
    orders = sorted({g.n for g in graphs})
    return [[g for g in graphs if g.n == n] for n in orders]


def test_stack_structure_from_a_squared_and_balls(monkeypatch):
    # A sample whose pairs all lie within distance 2 and which has a
    # triangle takes its structure from A^2; only the others reach
    # _ball_facts, and every sample's facts match connectivity and
    # bipartition.
    seen = []
    ball_facts = _exhaustive._ball_facts

    def spy(adj):
        seen.append(adj.copy())
        return ball_facts(adj)

    monkeypatch.setattr(_exhaustive, "_ball_facts", spy)
    decided = []
    for graphs in _structure_graphs():
        n = graphs[0].n
        seen.clear()
        rows = word_rows(graphs)
        stats = stack_stats(rows)
        open_ = []
        for i, g in enumerate(graphs):
            conn = connectivity(g)
            expected = (conn.is_connected, bipartition(g) is not None,
                        conn.diameter if conn.is_connected else n)
            assert (bool(stats["connected"][i]), bool(stats["bipartite"][i]),
                    int(stats["diameter"][i])) == expected, (n, i)
            open_.append(not (conn.is_connected and conn.diameter <= 2
                              and count_triangles_brute(g) > 0))
        decided += [(n, int(d)) for d, o in zip(stats["diameter"], open_)
                    if not o]
        assert len(seen) == any(open_), n
        if seen:
            assert np.array_equal(seen[0], adjacency(rows)[np.array(open_)]), n
    # K_30 and the dense G(30, p) samples are decided; K_1, K_2, K_15,15,
    # C_5, Petersen, the pendant path and the two triangles are not.
    assert (30, 1) in decided and (30, 2) in decided
    assert {n for n, _ in decided} == {30}


def test_walk_checks_form_no_level_past_the_int64_rule(monkeypatch):
    # Every graph of the stack is 27-regular at n = 64, one past
    # walk_degree_limit(64, 12): no chunk forms a level, both walk
    # verdicts stay False, and the table marks all three graphs undecided
    # for both walk theorems.
    calls = []
    levels = _exhaustive.walk_levels

    def spy(adj, K):
        calls.append(len(adj))
        return levels(adj, K)

    monkeypatch.setattr(_exhaustive, "walk_levels", spy)
    n = 64
    past = _circulant(n, walk_degree_limit(n, WALK_DEPTH) + 1)
    assert set(past.degrees()) == {27}
    stats = stack_stats(word_rows([past] * 3), walks=True)
    assert calls == []
    assert stats["walk_inequality"].tolist() == [False] * 3
    assert stats["decomposition"].tolist() == [False] * 3
    table, _ = verdict_table(n, stats, WALK_THEOREMS)
    for theorem in WALK_THEOREMS:
        nonvac, holds, undecided = table[theorem]
        assert undecided.tolist() == [True] * 3, theorem
        assert not nonvac.any() and not holds.any(), theorem


def test_walk_checks_on_graphs_either_side_of_the_int64_rule():
    # 26- and 27-regular circulants at n = 64, alternating: the graphs
    # within the rule are decided and hold both walk theorems, and exactly
    # the others form no level, are undecided and are resolved.
    n = 64
    limit = walk_degree_limit(n, WALK_DEPTH)
    edge, past = _circulant(n, limit), _circulant(n, limit + 1)
    rows = word_rows([past, edge, past, edge])
    stats = stack_stats(rows, walks=True)
    assert stats["walks_exact"].tolist() == [False, True, False, True]
    assert stats["walk_inequality"].tolist() == [False, True, False, True]
    assert stats["decomposition"].tolist() == [False, True, False, True]
    table, _ = verdict_table(n, stats, WALK_THEOREMS)
    for theorem in WALK_THEOREMS:
        nonvac, holds, undecided = table[theorem]
        assert undecided.tolist() == [True, False, True, False], theorem
        assert holds.tolist() == [False, True, False, True], theorem
    assert sweep_stack(rows, WALK_THEOREMS)["resolve"] \
        == dict.fromkeys(WALK_THEOREMS, [0, 2])


ALL_VALUES = frozenset(t.value for t in ALL_THEOREMS)


def _assert_partition(table, tight):
    """Vacuous, holds, apparent violation and undecided partition the
    graphs for each theorem, and no undecided graph is tight."""
    for theorem, (nonvac, holds, undecided) in table.items():
        parts = np.stack([~nonvac & ~undecided, holds, nonvac & ~holds,
                          undecided])
        assert (parts.sum(axis=0) == 1).all(), theorem
        assert not (holds & ~nonvac).any(), theorem
    for bound, is_tight in tight.items():
        assert not (is_tight & table[bound][2]).any(), bound


def _swept_blocks():
    """The labeled blocks the suite sweeps: every graph for n <= 6, and at
    n = 7 and 8 the sparse, middle and dense 1,200 masks that
    ``test_vector_shard_matches_graph_shard`` sweeps."""
    for n in range(1, 9):
        total = labeled_graph_count(n)
        if n <= 6:
            yield n, range(total)
        else:
            for lo in (0, total // 2 - 600, total - 1200):
                yield n, range(lo, lo + 1200)


@pytest.mark.parametrize("connected_only", [False, True])
def test_no_swept_labeled_block_leaves_a_graph_undecided(connected_only):
    for n, masks in _swept_blocks():
        for _, (table, tight) in _exhaustive._blocks(n, masks, ALL_VALUES,
                                                     connected_only):
            assert set(table) == ALL_VALUES
            _assert_partition(table, tight)
            assert not any(undecided.any()
                           for _, _, undecided in table.values()), n


def _first_stack(spec, seed):
    """The rows of the first stack of a fuzz run of ``spec`` at ``seed``."""
    dist = parse_distribution(spec)
    return _stack_rows(dist, [_sample_seed(seed, i)
                              for i in range(_stack_size(dist))])


@pytest.mark.parametrize("spec,seed,undecided", [
    # Every sample past the int64 walk rule (Delta > 26 at n = 64).
    ("gnp:64,0.5", 0, {"walk-inequality": 128,
                       "decomposition-identity": 128}),
    # Walks and Theorem 7 everywhere; Bondy on the samples with 2 delta > n.
    ("gnp:100,0.6", 7, {"walk-inequality": 52, "decomposition-identity": 52,
                        "thm7-even-cycles": 52, "lemma6-bondy": 3}),
    ("gnp:100,0.6", 8, {"walk-inequality": 52, "decomposition-identity": 52,
                        "thm7-even-cycles": 52, "lemma6-bondy": 1}),
    ("gnp:20,0.8", 0, {"lemma6-bondy": 108}),
    ("gnp:30,0.5", 0, {}),
])
def test_stacks_leave_only_the_graphs_past_a_kernel_undecided(
        spec, seed, undecided):
    rows = _first_stack(spec, seed)
    n = rows.shape[1]
    stats = stack_stats(rows, walks=True)
    assert stats["certified"].all()
    table, tight = verdict_table(n, stats, ALL_VALUES)
    _assert_partition(table, tight)
    assert {theorem: int(marks.sum()) for theorem, (_, _, marks)
            in table.items() if marks.any()} == undecided
    # Exactly the graphs outside each kernel's range.
    past_walks = stats["degrees"].max(axis=1) > walk_degree_limit(
        n, WALK_DEPTH)
    for theorem in WALK_THEOREMS:
        assert (table[theorem][2] == past_walks).all()
    above = 2 * stats["min_deg"] > n
    assert (table["lemma6-bondy"][2] == (above & (n > MAX_EXHAUSTIVE_N))).all()
    spectral = stats["lam1"] > np.sqrt(n * n // 4) + EQ_EPS
    assert (table["thm7-even-cycles"][2] == (spectral & (n >= 85))).all()


def test_a_faked_violation_is_apparent_not_undecided(monkeypatch):
    # Lemma 1 made to fail on sample 0 of a certified gnp:30,0.5 stack by
    # flipping its spectral symmetry fact: the table calls it an apparent
    # violation, not undecided, sweep_stack hands it to the resolver, and
    # the per-graph checker finds it holds, so the fuzz payload is as it was.
    rows = _first_stack("gnp:30,0.5", 0)
    expected = fuzz("gnp:30,0.5", len(rows), 0).payload()
    real = _exhaustive.stack_stats

    def faked(rows, walks=False):
        stats = real(rows, walks)
        stats["symmetric"][0] = ~stats["bipartite"][0]
        return stats

    monkeypatch.setattr(_exhaustive, "stack_stats", faked)
    stats = faked(rows, walks=True)
    assert stats["certified"][0]
    table, tight = verdict_table(rows.shape[1], stats, ALL_VALUES)
    _assert_partition(table, tight)
    nonvac, holds, undecided = table["lemma1-spectrum-symmetry"]
    assert nonvac[0] and not holds[0] and not undecided.any()
    assert sweep_stack(rows, ALL_VALUES)["resolve"] \
        == {"lemma1-spectrum-symmetry": [0]}
    assert fuzz("gnp:30,0.5", len(rows), 0).payload() == expected
