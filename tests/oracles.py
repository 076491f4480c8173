"""Independent brute-force oracles the tests check the library against.

These deliberately avoid the library's own algorithms: triangles by triple
enumeration (of a graph, or of a block of edge masks with one three-edge
mask per vertex triple), edge-mask adjacency bit by bit, graph6 names
from bit strings, walks by explicit path extension, cycles by
subset-and-permutation search, a block's cycle lengths by one subset at a
time, the diameter by one breadth-first search per vertex, neighbourhood
sums neighbour by neighbour, G(n, p) and G(a, b, p) through an edge list,
bitset words by shifting Python ints. ``graph_shard``,
``per_graph_payload`` and ``fuzz_shard_per_graph`` are the exception: they
run a sweep shard, a whole sweep or a fuzz shard through the per-graph
reference checkers alone, which the batch engine must reproduce.
"""

from itertools import combinations, permutations
import math
import random

import numpy as np

from spectool.families import random_regular
from spectool.graph import (
    Graph,
    edge_order,
    from_edge_mask,
    from_edges,
    is_connected,
)
from spectool.verify import (
    SweepConfig,
    _battery,
    _empty_partial,
    _finalize,
    _run_shards,
    _sample_seed,
    canonical_masks,
    labeled_graph_count,
)


def triangles_by_triples(g: Graph) -> int:
    count = 0
    for i, j, k in combinations(range(g.n), 3):
        if g.has_edge(i, j) and g.has_edge(i, k) and g.has_edge(j, k):
            count += 1
    return count


def triangles_by_triple_masks(n: int, masks: np.ndarray) -> np.ndarray:
    """The triangles of each graph of an int64 block of edge masks: the
    vertex triples whose three edge bits are all set."""
    index = {pair: e for e, pair in enumerate(edge_order(n))}
    tri = np.zeros(len(masks), dtype=np.int64)
    for i, j, k in combinations(range(n), 3):
        triple = (1 << index[(i, j)]) | (1 << index[(i, k)]) \
            | (1 << index[(j, k)])
        tri += (masks & triple) == triple
    return tri


def adjacency_by_edge_bits(n: int, masks: np.ndarray) -> np.ndarray:
    """The (b, n, n) uint8 adjacency of a block of edge masks, bit e of each
    mask written to both entries of the e-th pair of ``edge_order``."""
    adj = np.zeros((len(masks), n, n), dtype=np.uint8)
    for e, (u, v) in enumerate(edge_order(n)):
        adj[:, u, v] = adj[:, v, u] = (masks >> e) & 1
    return adj


def graph6_by_bit_string(n: int, mask: int) -> str:
    """Short-form graph6 of an edge mask from its bits as a string: read
    low to high, zero-padded to a multiple of 6, one character per 6."""
    nbits = n * (n - 1) // 2
    body = format(mask, "b").zfill(nbits)[::-1] if nbits else ""
    body += "0" * (-nbits % 6)
    return chr(n + 63) + "".join(
        chr(int(body[i:i + 6], 2) + 63) for i in range(0, len(body), 6))


def word_rows(graphs) -> np.ndarray:
    """The (b, n, ceil(n / 64)) ``uint64`` bitset rows of graphs of one
    order n: word j of row v holds bits 64j..64j+63 of ``g.adj[v]``."""
    words = -(-graphs[0].n // 64)
    return np.array([[[row >> (64 * j) & (2 ** 64 - 1) for j in range(words)]
                      for row in g.adj] for g in graphs], dtype=np.uint64)


def ints_of_words(words: np.ndarray) -> list:
    """The Python ints of an array of unsigned bitset words along its last
    axis, as nested lists: word j holds bits s j..s j + s - 1 of an int,
    with s the word's bit width."""
    size = 8 * words.dtype.itemsize
    ints = [sum(word << (size * j) for j, word in enumerate(row))
            for row in words.reshape(-1, words.shape[-1]).tolist()]
    return np.array(ints, dtype=object).reshape(words.shape[:-1]).tolist()


def diameter_by_bfs(g: Graph) -> float:
    """Largest eccentricity over one breadth-first search per vertex, or
    ``math.inf`` when the search from vertex 0 misses a vertex."""
    def eccentricity(start: int) -> tuple[int, int]:
        seen = frontier = 1 << start
        dist = 0
        while True:
            nxt = 0
            rest = frontier
            while rest:
                low = rest & -rest
                nxt |= g.adj[low.bit_length() - 1]
                rest ^= low
            frontier = nxt & ~seen
            if not frontier:
                return dist, seen
            seen |= frontier
            dist += 1

    if eccentricity(0)[1] != (1 << g.n) - 1:
        return math.inf
    return max(eccentricity(v)[0] for v in range(g.n))


def open_sums_by_neighbours(g: Graph) -> tuple[int, ...]:
    """Per-vertex sums of the neighbours' degrees, one neighbour at a time."""
    degs = [row.bit_count() for row in g.adj]
    return tuple(sum(degs[u] for u in range(g.n) if row >> u & 1)
                 for row in g.adj)


def complete_bipartite_parts_by_subsets(g: Graph):
    """(a, b, isolated) when the non-isolated vertices split into parts A
    (holding the lowest of them) and B with exactly the A x B edges, found
    by trying every such A; (0, 0, n) for an edgeless graph; else None."""
    support = [v for v in range(g.n) if g.adj[v]]
    isolated = g.n - len(support)
    if not support:
        return (0, 0, isolated)
    first, rest = support[0], support[1:]
    for size in range(len(rest) + 1):
        for others in combinations(rest, size):
            part_a = {first, *others}
            part_b = set(support) - part_a
            if part_b and all(
                    g.has_edge(u, v) == ((u in part_a) != (v in part_a))
                    for u, v in combinations(support, 2)):
                return (len(part_a), len(part_b), isolated)
    return None


def gnp_by_edge_list(n: int, p: float, seed: int) -> Graph:
    """G(n, p) from the list of kept pairs, drawn v-major with u < v."""
    rng = random.Random(seed)
    return from_edges(n, [(u, v) for v in range(n) for u in range(v)
                          if rng.random() < p])


def bipartite_by_edge_list(a: int, b: int, p: float, seed: int) -> Graph:
    """G(a, b, p) from the list of kept cross pairs, drawn B-vertex by
    B-vertex."""
    rng = random.Random(seed)
    return from_edges(a + b, [(u, a + v) for v in range(b) for u in range(a)
                              if rng.random() < p])


def walks_by_enumeration(g: Graph, k: int) -> int:
    """Number of walks of length k, by extending explicit vertex sequences."""
    frontier = {(v,): 1 for v in range(g.n)}
    for _ in range(k):
        nxt: dict = {}
        for seq, count in frontier.items():
            for u in range(g.n):
                if g.has_edge(seq[-1], u):
                    key = seq + (u,)
                    nxt[key] = nxt.get(key, 0) + count
        frontier = nxt
    return sum(frontier.values())


def has_cycle_by_subsets(g: Graph, l: int) -> bool:
    """C_l subgraph test: some l-subset carries a Hamiltonian cycle."""
    for subset in combinations(range(g.n), l):
        anchor, *rest = subset
        for perm in permutations(rest):
            seq = (anchor,) + perm
            if all(g.has_edge(seq[i], seq[(i + 1) % l]) for i in range(l)):
                return True
    return False


def cycle_lengths_by_subsets(rows: np.ndarray) -> np.ndarray:
    """The cycle-length bitmasks of ``_exhaustive.cycle_lengths``, by one
    pass over the vertex subsets S in increasing order: ``ends[S]`` is the
    set of ends of the paths from min(S) through exactly S, each extended
    one vertex above min(S) at a time, and S holds a cycle on |S| >= 3
    vertices iff ``ends[S]`` meets the row of min(S)."""
    b, n = rows.shape
    columns = np.ascontiguousarray(rows.T)
    ends = np.zeros((1 << n, b), dtype=np.uint8)
    for v in range(n):
        ends[1 << v] = 1 << v
    lengths = np.zeros(b, dtype=np.int64)
    for s in range(1, 1 << n):
        reach = ends[s]
        if not reach.any():
            continue
        low = (s & -s).bit_length() - 1
        if s.bit_count() >= 3:
            lengths[(reach & columns[low]) != 0] |= 1 << s.bit_count()
        grow = [u for u in range(low + 1, n) if not s >> u & 1]
        if grow:
            bit = np.uint8(1) << np.array(grow, dtype=np.uint8)
            ends[s | bit] |= ((reach & columns[grow]) != 0) * bit[:, None]
    return lengths


def walk_levels_by_bitsets(g: Graph, k: int) -> list[tuple[int, ...]]:
    """Per-vertex walk counts w_0(i)..w_k(i) in pure Python ints, each level
    by summing the previous one over the bitset neighbourhoods."""
    current = [1] * g.n
    levels = [tuple(current)]
    for _ in range(k):
        current = [sum(current[u] for u in range(g.n) if row >> u & 1)
                   for row in g.adj]
        levels.append(tuple(current))
    return levels


def power_sums_by_int_powers(adj: np.ndarray) -> np.ndarray:
    """trace(A^k), k = 2..n, of a (b, n, n) block of 0/1 matrices, from
    int64 powers A^k = A^(k-1) A one after the other."""
    a = adj.astype(np.int64)
    power = a
    sums = []
    for _ in range(2, a.shape[1] + 1):
        power = power @ a
        sums.append(np.trace(power, axis1=1, axis2=2))
    return np.stack(sums, axis=1)


def graph_shard(args) -> dict:
    """``verify._vector_shard``'s result from the per-graph battery alone,
    over a range of labeled masks or a list of canonical ones."""
    n, masks, theorems, connected_only = args
    partial = _empty_partial(theorems)
    for mask in masks:
        g = from_edge_mask(n, mask)
        if connected_only and not is_connected(g):
            continue
        _battery(g, theorems, partial)
    return partial


def per_graph_payload(config: SweepConfig, jobs: int = 1) -> dict:
    """``sweep(config).payload()`` from ``graph_shard`` over each order's
    masks, all labeled ones or the canonical ones as ``config.dedup`` says
    (split in ``jobs`` slices)."""
    theorems = config.theorem_ids()
    shard_args = []
    for n in range(config.n_min, config.n_max + 1):
        if config.dedup == "labeled":
            masks = range(labeled_graph_count(n))
        else:
            masks = canonical_masks(n)
        step = math.ceil(len(masks) / jobs)
        shard_args += [(n, masks[lo:lo + step], theorems,
                        config.connected_only)
                       for lo in range(0, len(masks), step)]
    merged = _run_shards(graph_shard, shard_args, jobs,
                         _empty_partial(theorems))
    return _finalize(config.to_dict(), merged, 0.0).payload()


def fuzz_shard_per_graph(args) -> dict:
    """``verify._fuzz_shard``'s result from the per-graph battery alone:
    every sample lo..hi-1 is drawn on its own, ``gnp`` and ``bipartite``
    ones through the edge-list oracles, and checked on its own."""
    dist, lo, hi, seed, theorems = args
    draw = {"gnp": gnp_by_edge_list, "bipartite": bipartite_by_edge_list,
            "regular": random_regular}[dist[0]]
    partial = _empty_partial(theorems)
    for index in range(lo, hi):
        g = draw(*dist[1:], _sample_seed(seed, index))
        _battery(g, theorems, partial)
    return partial
