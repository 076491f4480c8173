"""Graph construction, classifiers, and the graph6 / edge-list codecs."""

import functools
import math
import platform
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from spectool.errors import (
    BadPaddingError,
    EmptyGraphError,
    InvalidOrderError,
    MalformedHeaderError,
    OutOfRangeVertexError,
    SpectoolError,
    TruncatedBodyError,
    UnsupportedOrderError,
)
from spectool import families
from spectool.families import (
    complete,
    complete_bipartite,
    cycle,
    gnp,
    path,
    petersen,
    random_bipartite,
    random_regular,
    star,
)
from spectool.graph import (
    BipartiteSemiRegular,
    Bidegreed,
    Graph,
    Other,
    Regular,
    basic_stats,
    bipartition,
    classify_regularity,
    connectivity,
    count_triangles_brute,
    first_triangle,
    from_edge_mask,
    from_edges,
    induced_subgraph,
    is_complete_bipartite_plus_isolated,
    neighborhood_degree_sums,
    to_edge_mask,
)
from spectool.graph6 import (
    MAX_GRAPH6_N,
    from_edge_list,
    from_graph6,
    mask_to_graph6,
    masks_to_graph6,
    read_graph6_lines,
    to_edge_list,
    to_graph6,
)

from oracles import (
    bipartite_by_edge_list,
    complete_bipartite_parts_by_subsets,
    diameter_by_bfs,
    gnp_by_edge_list,
    graph6_by_bit_string,
    open_sums_by_neighbours,
    triangles_by_triples,
)


def graphs(max_n=9):
    """Hypothesis strategy: a random labeled graph."""
    return hst.integers(0, max_n).flatmap(
        lambda n: hst.integers(0, (1 << (n * (n - 1) // 2)) - 1).map(
            lambda mask: from_edge_mask(n, mask)))


class TestGraphType:
    def test_rejects_asymmetric_rows(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))

    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            Graph(1, (0b1,))

    def test_rejects_out_of_range_bits(self):
        with pytest.raises(ValueError):
            Graph(2, (0b100, 0b000))

    def test_every_single_bit_asymmetry_is_rejected(self):
        # Flipping bit u of row v alone leaves exactly one one-way pair,
        # and the error names it as (a, b): b's row holds a, a's lacks b.
        for n in range(2, 5):
            for mask in range(1 << (n * (n - 1) // 2)):
                adj = from_edge_mask(n, mask).adj
                for v in range(n):
                    for u in range(n):
                        if u == v:
                            continue
                        rows = list(adj)
                        rows[v] ^= 1 << u
                        with pytest.raises(ValueError,
                                           match="asymmetric adjacency") as err:
                            Graph(n, tuple(rows))
                        a, b = map(int, re.findall(r"\d+", str(err.value)))
                        assert rows[b] >> a & 1 and not rows[a] >> b & 1

    def test_edges_and_m(self):
        g = from_edges(4, [(0, 1), (2, 3)])
        assert g.m == 2
        assert list(g.edges()) == [(0, 1), (2, 3)]

    def test_from_edges_range_check(self):
        with pytest.raises(OutOfRangeVertexError):
            from_edges(3, [(0, 3)])

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_invariants_on_random_graphs(self, g):
        for v, row in enumerate(g.adj):
            assert not row >> v & 1  # no loops
            for u in range(g.n):
                assert (row >> u & 1) == (g.adj[u] >> v & 1)
        assert g.m == sum(row.bit_count() for row in g.adj) // 2

    def test_edge_mask_roundtrip(self):
        for mask in range(64):
            assert to_edge_mask(from_edge_mask(4, mask)) == mask


class TestGraph6:
    def test_k3_is_Bw(self):
        assert to_graph6(complete(3)) == "Bw"
        assert from_graph6("Bw") == complete(3)

    def test_empty_graph(self):
        g = from_graph6("?")
        assert g.n == 0 and g.m == 0
        assert to_graph6(g) == "?"

    def test_header_line_is_skipped(self):
        assert from_graph6(">>graph6<<Bw") == complete(3)
        graphs_found = read_graph6_lines(">>graph6<<\nBw\nC~\n")
        assert graphs_found == [complete(3), complete(4)]

    def test_malformed_header(self):
        with pytest.raises(MalformedHeaderError):
            from_graph6("")
        with pytest.raises(MalformedHeaderError):
            from_graph6("\x1f")

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedOrderError):
            from_graph6("~??")
        with pytest.raises(UnsupportedOrderError):
            to_graph6(complete_bipartite(32, 31))

    def test_truncated_body(self):
        with pytest.raises(TruncatedBodyError):
            from_graph6("D")  # n=5 needs 2 body bytes

    def test_trailing_bytes(self):
        with pytest.raises(MalformedHeaderError):
            from_graph6("Bww")

    def test_mask_to_graph6_decodes_to_its_graph(self):
        # The decoder checks the length and the zero padding, so a string it
        # maps back to the mask's graph is that graph's one short form.
        for n in range(6):
            for mask in range(1 << (n * (n - 1) // 2)):
                assert from_graph6(mask_to_graph6(n, mask)) \
                    == from_edge_mask(n, mask), (n, mask)
        rng = random.Random(7)
        for n in (7, 8):
            for _ in range(2000):
                mask = rng.getrandbits(n * (n - 1) // 2)
                assert from_graph6(mask_to_graph6(n, mask)) \
                    == from_edge_mask(n, mask), (n, mask)
        assert mask_to_graph6(3, 0b111) == "Bw"
        assert mask_to_graph6(4, 0b111111) == "C~"

    def test_masks_to_graph6_match_the_bit_string_encoder(self):
        # Every mask up to n = 5 and at n = 0, 1; 3,000 seeded masks from
        # n = 6 to 8, as an int64 array and as a list; and above n = 11,
        # where the masks no longer fit int64.
        cases = {n: range(1 << (n * (n - 1) // 2)) for n in range(6)}
        rng = random.Random(11)
        for n in (6, 7, 8, 12, 30, MAX_GRAPH6_N):
            count = 3000 if n <= 8 else 50
            cases[n] = [rng.getrandbits(n * (n - 1) // 2) for _ in range(count)]
        for n, masks in cases.items():
            expected = [graph6_by_bit_string(n, mask) for mask in masks]
            assert masks_to_graph6(n, list(masks)) == expected, n
            if n <= 8:
                assert masks_to_graph6(
                    n, np.array(masks, dtype=np.int64)) == expected, n
            assert [mask_to_graph6(n, mask) for mask in masks[:50]] \
                == expected[:50], n
        assert masks_to_graph6(7, []) == []

    def test_masks_to_graph6_rejects_stray_bits(self):
        with pytest.raises(ValueError):
            masks_to_graph6(3, [7, 8])
        with pytest.raises(ValueError):
            masks_to_graph6(4, np.array([-1], dtype=np.int64))
        with pytest.raises(UnsupportedOrderError):
            masks_to_graph6(MAX_GRAPH6_N + 1, [0])

    def test_mask_to_graph6_rejects_stray_bits(self):
        with pytest.raises(ValueError):
            mask_to_graph6(3, 8)
        with pytest.raises(ValueError):
            mask_to_graph6(1, 1)

    def test_bad_padding(self):
        # K3 body uses 3 of 6 bits; force a nonzero pad bit.
        bad = "B" + chr(63 + 0b111001)
        with pytest.raises(BadPaddingError):
            from_graph6(bad)

    @given(graphs())
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_all_small_graphs(self, g):
        assert from_graph6(to_graph6(g)) == g

    def test_roundtrip_exhaustive_n4(self):
        for mask in range(64):
            g = from_edge_mask(4, mask)
            assert from_graph6(to_graph6(g)) == g

    def test_roundtrip_n62(self):
        g = gnp(62, 0.31, seed=9)
        assert from_graph6(to_graph6(g)) == g


@hst.composite
def edge_list_texts(draw):
    """An "n m" header and edge lines with small, possibly out-of-range or
    looped vertices; m is sometimes off by one, and a line sometimes has
    the wrong number of fields or a non-integer one. The order is small or,
    now and then, 20,000."""
    edges = draw(hst.lists(hst.tuples(hst.integers(-2, 12),
                                      hst.integers(-2, 12)), max_size=6))
    m = len(edges) + draw(hst.sampled_from((0, 0, 0, 1, -1)))
    lines = [f"{draw(hst.sampled_from((*range(-2, 13), 20000)))} {m}"]
    for u, v in edges:
        shape = draw(hst.sampled_from(("{} {}",) * 6 + ("{}", "{} {} 0",
                                                         "{} x{}")))
        lines.append(shape.format(u, v))
    return "\n".join(lines)


EDGE_LIST_TEXT = hst.one_of(
    hst.text(max_size=40),
    hst.lists(
        hst.lists(hst.one_of(hst.integers(-3, 80).map(str),
                             hst.text(max_size=3)), max_size=3).map(" ".join),
        max_size=8).map("\n".join),
    edge_list_texts(),
)


class TestEdgeList:
    @given(EDGE_LIST_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text_raises_only_codec_errors(self, text):
        try:
            g = from_edge_list(text)
        except (SpectoolError, ValueError):
            return
        assert from_edge_list(to_edge_list(g)) == g

    def test_roundtrip(self):
        g = petersen()
        assert from_edge_list(to_edge_list(g)) == g

    def test_format(self):
        assert to_edge_list(from_edges(3, [(0, 2)])) == "3 1\n0 2"

    def test_errors(self):
        from spectool.errors import EdgeListFormatError

        with pytest.raises(EdgeListFormatError):
            from_edge_list("")
        with pytest.raises(EdgeListFormatError):
            from_edge_list("3\n0 1")
        with pytest.raises(EdgeListFormatError):
            from_edge_list("3 2\n0 1")
        # A repeated edge, a negative order, a loop, a vertex out of range.
        for text in ("2 2\n0 1\n0 1", "-1 0", "2 1\n0 0", "2 1\n0 2"):
            with pytest.raises(EdgeListFormatError):
                from_edge_list(text)

    def test_order_cap(self):
        from spectool.errors import EdgeListFormatError
        from spectool.graph6 import MAX_EDGE_LIST_N

        g = from_edge_list(f"{MAX_EDGE_LIST_N} 1\n0 {MAX_EDGE_LIST_N - 1}")
        assert g.n == MAX_EDGE_LIST_N and g.m == 1
        assert g.degrees()[-1] == 1
        for n in (MAX_EDGE_LIST_N + 1, 10 ** 9):
            with pytest.raises(EdgeListFormatError, match="cap"):
                from_edge_list(f"{n} 0")


class TestFamilies:
    def test_complete_bipartite_2_3(self):
        g = complete_bipartite(2, 3)
        stats = basic_stats(g)
        assert stats.m == 6
        assert sorted(stats.degrees) == [2, 2, 2, 3, 3]

    def test_complete_4(self):
        stats = basic_stats(complete(4))
        assert stats.m == 6 and set(stats.degrees) == {3}

    def test_cycle_requires_three_vertices(self):
        with pytest.raises(InvalidOrderError):
            cycle(2)

    def test_gnp_deterministic(self):
        assert gnp(10, 0.5, seed=1) == gnp(10, 0.5, seed=1)
        assert gnp(10, 0.5, seed=1) != gnp(10, 0.5, seed=2)

    def test_gnp_matches_the_edge_list_construction(self):
        for n, p in ((0, 0.5), (1, 0.5), (2, 0.5), (7, 0.3), (30, 0.0),
                     (30, 0.5), (30, 1.0), (65, 0.2)):
            for seed in range(200):
                assert gnp(n, p, seed) == gnp_by_edge_list(n, p, seed), \
                    (n, p, seed)

    def test_petersen_is_cubic(self):
        g = petersen()
        assert g.n == 10 and g.m == 15 and set(g.degrees()) == {3}

    def test_random_regular_draws_within_the_bound_are_pinned(self):
        # Pairing draws that succeed within MAX_PAIRING_DRAWS keep their
        # seeded graphs; (8, 6) seeds 0, 1 and 55 succeed there.
        pinned = {(8, 6, 0): "Gl~~ns", (8, 6, 1): "G]~~vk",
                  (8, 6, 55): "G}~tz{", (10, 3, 1): "I`eB@HSAo",
                  (12, 4, 5): "KPR?qQdDaUUA"}
        for (n, k, seed), text in pinned.items():
            assert to_graph6(random_regular(n, k, seed)) == text

    def test_random_regular_dense_small_orders_finish(self):
        # A pairing for (8, 6) is simple with probability about 6.4e-6, so
        # most seeds exhaust the draw bound and sample the 1-regular
        # complement instead; seeds 2 and 4 do.
        for seed in range(2, 6):
            g = random_regular(8, 6, seed)
            assert g.n == 8 and set(g.degrees()) == {6}
        assert random_regular(7, 6, 1) == complete(7)


DRAW_SEEDS = (0, 1, 7, 12345, 2**31 - 1, 2**40 + 3, -5)


class TestSampler:
    """``gnp`` and ``random_bipartite`` draw their pairs from getrandbits
    words, which must be exactly the draws of random()."""

    @pytest.mark.parametrize("length", [0, 1, 435, 2016])
    def test_word_draws_are_the_random_draws(self, length):
        drawn = families._word_draws(
            [random.Random(seed) for seed in DRAW_SEEDS], length)
        for seed, row in zip(DRAW_SEEDS, drawn):
            reference = random.Random(seed)
            assert row.tolist() == [reference.random()
                                    for _ in range(length)], seed

    def test_the_self_check_passes_here_and_can_fail(self, monkeypatch):
        if platform.python_implementation() == "CPython":
            assert families._words_match_random()
        real = families._word_draws
        monkeypatch.setattr(families, "_word_draws",
                            lambda rngs, count: real(rngs, count)[:, ::-1])
        assert not families._words_match_random.__wrapped__()

    @pytest.mark.parametrize("chunk", [1, 7, 435])
    def test_chunks_continue_the_stream(self, monkeypatch, chunk):
        monkeypatch.setattr(families, "DRAW_CHUNK", chunk)
        for seed in DRAW_SEEDS:
            assert gnp(30, 0.5, seed) == gnp_by_edge_list(30, 0.5, seed)
            assert random_bipartite(4, 9, 0.3, seed) \
                == bipartite_by_edge_list(4, 9, 0.3, seed)

    def test_the_random_fallback_gives_the_same_graphs(self, monkeypatch):
        expected = [gnp(n, 0.4, seed) for n in (0, 1, 9, 64, 70)
                    for seed in DRAW_SEEDS]
        expected += [random_bipartite(5, 6, 0.5, seed) for seed in DRAW_SEEDS]
        monkeypatch.setattr(families, "_words_match_random", lambda: False)
        monkeypatch.setattr(families, "DRAW_CHUNK", 100)
        got = [gnp(n, 0.4, seed) for n in (0, 1, 9, 64, 70)
               for seed in DRAW_SEEDS]
        got += [random_bipartite(5, 6, 0.5, seed) for seed in DRAW_SEEDS]
        assert got == expected

    @pytest.mark.parametrize("a,b", [(0, 5), (5, 0), (0, 0), (1, 1), (6, 7),
                                     (32, 32), (33, 32)])
    def test_random_bipartite_matches_the_edge_list_construction(self, a, b):
        for p in (0.0, 0.3, 0.5, 1.0):
            for seed in range(20):
                assert random_bipartite(a, b, p, seed) \
                    == bipartite_by_edge_list(a, b, p, seed), (a, b, p, seed)

    def test_gnp_draw_memory_is_bounded(self):
        # n = 1,500 has 1,124,250 pairs. The draws in chunks, the kept-pair
        # bytes, the bool matrix, its transpose and the slot mask take about
        # 3.5 n^2 bytes (7.5 MB); all the words and floats at once would
        # add about 16 bytes per pair (18 MB) on top.
        tracemalloc.start()
        try:
            g = gnp(1500, 0.001, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.m == gnp_by_edge_list(1500, 0.001, 3).m
        assert peak < 12 * 2**20, peak

    def test_dense_graph_check_memory_is_bounded(self):
        # 561,874 edges are 1,123,748 arcs, 8.6 MB per int64 arc array.
        # The rows check keeps at most four alive at once (tails, heads and
        # the sorted keys and mirrors, built in place), about 37 MB with
        # the sampler's share; five or more would pass 41 MB.
        tracemalloc.start()
        try:
            g = gnp(1500, 0.5, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.m == 561_874
        assert peak < 41 * 2**20, peak


class TestStats:
    def test_basic_stats_examples(self):
        s = basic_stats(complete_bipartite(2, 3))
        assert (s.m, s.min_degree, float(s.average_degree)) == (6, 2, 2.4)
        s = basic_stats(cycle(5))
        assert (s.m, s.min_degree, float(s.average_degree)) == (5, 2, 2.0)
        s = basic_stats(star(5))
        assert (s.m, s.min_degree, float(s.average_degree)) == (4, 1, 1.6)

    def test_empty_graph_rejected(self):
        with pytest.raises(EmptyGraphError):
            basic_stats(Graph(0, ()))


class TestConnectivity:
    def test_examples(self):
        assert connectivity(complete_bipartite(2, 3)).diameter == 2
        assert connectivity(path(4)).diameter == 3
        two_edges = from_edges(4, [(0, 1), (2, 3)])
        conn = connectivity(two_edges)
        assert not conn.is_connected
        assert len(conn.components) == 2
        assert conn.diameter == math.inf


@functools.cache
def kernel_graphs() -> tuple:
    """Every labeled graph n <= 6, 300 seeded G(30, p) for each p, and
    paths, cycles and stars up to n = 200 (a second word starts at 65)."""
    out = [from_edge_mask(n, mask) for n in range(1, 7)
           for mask in range(1 << (n * (n - 1) // 2))]
    out += [gnp(30, p, seed) for p in (0.05, 0.15, 0.5, 0.9)
            for seed in range(300)]
    for n in range(2, 201):
        out += [path(n), star(n)] + ([cycle(n)] if n >= 3 else [])
    return tuple(out)


class TestWholeGraphKernels:
    def test_connectivity_matches_bfs_oracle(self):
        for g in kernel_graphs():
            conn = connectivity(g)
            assert conn.diameter == diameter_by_bfs(g), g
            assert conn.is_connected == math.isfinite(conn.diameter)

    def test_family_diameters_across_word_boundaries(self):
        for n in (63, 64, 65, 128, 129, 200):
            assert connectivity(path(n)).diameter == n - 1
            assert connectivity(cycle(n)).diameter == n // 2
            assert connectivity(star(n)).diameter == 2
        assert connectivity(Graph(1, (0,))).diameter == 0
        assert connectivity(complete(65)).diameter == 1

    def test_diameter_with_both_ends_past_the_first_source_block(self):
        # Every source in block 0..63 is nearer than n - 1 to both ends.
        order = [128, *range(128), 129]
        g = from_edges(130, list(zip(order, order[1:])))
        assert connectivity(g).diameter == 129
        for n in (65, 129, 200):
            for seed in range(3):
                order = random.Random(seed).sample(range(n), n)
                g = from_edges(n, list(zip(order, order[1:])))
                assert connectivity(g).diameter == n - 1, (n, seed)

    def test_neighbourhood_sums_match_neighbour_oracle(self):
        for g in kernel_graphs():
            sums = neighborhood_degree_sums(g)
            assert sums.open_sums == open_sums_by_neighbours(g), g
            assert sums.closed_sums == tuple(
                o + d for o, d in zip(sums.open_sums, g.degrees()))
            assert (sums.max_open, sums.max_closed) == (
                max(sums.open_sums), max(sums.closed_sums))
            assert all(type(x) is int for x in sums.open_sums)

    def test_memory_follows_the_edges_not_the_order(self):
        # An n x n bit matrix at n = 20,000 takes 50 MB packed and 400 MB
        # unpacked; the rows, their arcs and the kernels' arrays take a few.
        tracemalloc.start()
        try:
            g = from_edge_list("20000 1\n0 19999")
            assert g.m == 1 and g.degree(19999) == 1
            hub = star(20000)
            assert connectivity(hub).diameter == 2
            assert neighborhood_degree_sums(hub).max_open == 19999
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak


class TestBipartition:
    def test_even_cycle(self):
        bip = bipartition(cycle(6))
        assert bip is not None
        assert len(bip.part_a) == 3 and len(bip.part_b) == 3

    def test_odd_cycle_and_triangle(self):
        assert bipartition(cycle(5)) is None
        assert bipartition(complete(3)) is None

    def test_lowest_index_lands_in_part_a(self):
        bip = bipartition(complete_bipartite(2, 3))
        assert 0 in bip.part_a
        two_comps = from_edges(4, [(0, 1), (2, 3)])
        bip = bipartition(two_comps)
        assert bip.part_a == (0, 2)


class TestCompleteBipartitePlusIsolated:
    def test_k23_plus_isolated(self):
        g = from_edges(7, [(u, 2 + v) for u in range(2) for v in range(3)])
        witness = is_complete_bipartite_plus_isolated(g)
        assert (witness.a, witness.b, witness.isolated) == (2, 3, 2)

    def test_path_is_not(self):
        assert is_complete_bipartite_plus_isolated(path(4)) is None

    def test_matches_subset_oracle_on_all_small_graphs(self):
        for n in range(1, 7):
            for mask in range(1 << (n * (n - 1) // 2)):
                g = from_edge_mask(n, mask)
                witness = is_complete_bipartite_plus_isolated(g)
                got = None if witness is None else (
                    witness.a, witness.b, witness.isolated)
                assert got == complete_bipartite_parts_by_subsets(g), g

    def test_single_edge(self):
        witness = is_complete_bipartite_plus_isolated(complete(2))
        assert (witness.a, witness.b, witness.isolated) == (1, 1, 0)

    def test_edgeless_is_degenerate_core(self):
        witness = is_complete_bipartite_plus_isolated(Graph(3, (0, 0, 0)))
        assert (witness.a, witness.b, witness.isolated) == (0, 0, 3)

    def test_two_components_rejected(self):
        g = from_edges(4, [(0, 1), (2, 3)])
        assert is_complete_bipartite_plus_isolated(g) is None


class TestRegularity:
    def test_examples(self):
        assert classify_regularity(cycle(5)) == Regular(2)
        assert classify_regularity(star(5)) == BipartiteSemiRegular(4, 1)
        assert classify_regularity(path(4)) == Other()

    def test_balanced_complete_bipartite_is_regular(self):
        for a in range(1, 5):
            assert classify_regularity(complete_bipartite(a, a)) == Regular(a)

    def test_unbalanced_complete_bipartite_is_semiregular(self):
        assert classify_regularity(complete_bipartite(2, 3)) \
            == BipartiteSemiRegular(3, 2)

    def test_bidegreed(self):
        # K4 plus one vertex joined to everything: degrees {4, 4, 4, 4, 4}?
        # Use a wheel-like graph: center adjacent to all of C4.
        g = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0),
                           (4, 0), (4, 1), (4, 2), (4, 3)])
        assert classify_regularity(g) == Bidegreed(3, 4)


class TestNeighborhoodSums:
    def test_star_center(self):
        sums = neighborhood_degree_sums(star(5))
        assert sums.open_sums[0] == 4 and sums.closed_sums[0] == 8

    def test_cycle5(self):
        sums = neighborhood_degree_sums(cycle(5))
        assert set(sums.open_sums) == {4} and set(sums.closed_sums) == {6}

    def test_isolated_vertex(self):
        sums = neighborhood_degree_sums(Graph(1, (0,)))
        assert sums.open_sums == (0,) and sums.closed_sums == (0,)

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_closed_minus_open_is_degree(self, g):
        if g.n == 0:
            return
        sums = neighborhood_degree_sums(g)
        for v in range(g.n):
            assert sums.closed_sums[v] - sums.open_sums[v] == g.degree(v)


class TestTriangles:
    def test_examples(self):
        assert count_triangles_brute(complete(4)) == 4
        assert count_triangles_brute(complete_bipartite(2, 3)) == 0
        assert count_triangles_brute(cycle(3)) == 1

    def test_witness_for_k4(self):
        assert first_triangle(complete(4)) == (0, 1, 2)
        assert first_triangle(cycle(4)) is None

    @given(graphs(7))
    @settings(max_examples=60, deadline=None)
    def test_matches_triple_enumeration(self, g):
        assert count_triangles_brute(g) == triangles_by_triples(g)


class TestInducedSubgraph:
    def test_k4_triple(self):
        sub, labels = induced_subgraph(complete(4), [0, 1, 3])
        assert sub == complete(3) and labels == (0, 1, 3)

    def test_identity(self):
        g = petersen()
        sub, labels = induced_subgraph(g, range(10))
        assert sub == g and labels == tuple(range(10))

    def test_cycle5_piece_is_path(self):
        sub, _ = induced_subgraph(cycle(5), [0, 1, 2])
        assert sub == path(3)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeVertexError):
            induced_subgraph(complete(3), [0, 5])
