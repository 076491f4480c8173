"""Batched numpy engine for exhaustive sweeps and fuzz runs.

Sweeps hand it edge bitmasks on up to 8 vertices: a range of labeled ones
or any array of masks, such as one per isomorphism class. Blocks of a few
thousand are expanded into bitset rows for the structural facts
(connectivity, diameter, peeling cores, the spectral Mantel equality
case, cycle lengths), and the rows into stacked adjacency matrices for
batched LAPACK (one solve per distinct characteristic polynomial in the
shard, kept in a ``SpectrumTable``), exact power sums (the key, the
triangles and bipartiteness) and exact int64 walk counts. Fuzz runs hand
it stacks of sampled graphs of any order as ``uint64`` bitset rows
(``stack_stats``), which get the same facts with one unkeyed solve per
stack. Both feed one ``verdict_table``. Semantics (thresholds, formulas,
epsilons) mirror the per-graph checkers exactly. The engine hands back to
the caller, for the per-graph resolver, two kinds of graph per theorem,
and ``verdict_table`` alone decides which is which: apparent violations,
and undecided graphs. A graph is undecided when its eigenvalues fail the
trace certificate, or when it lies outside the exact range of a kernel:
the walk theorems where int64 could overflow, Bondy's lemma above 8
vertices, and Theorem 7 above its spectral threshold from n = 85 on.

Bitset rows are (b, n, w) arrays: bit u % s of word u // s of
``rows[g, v]``, with s the word's bit width, is set iff u ~ v in graph g.
Mask rows are one ``uint8`` word (n <= 8), gathered from per-byte tables
(``mask_rows``); stack rows are w = ceil(n / 64) ``uint64`` words. Rows are
the only thing built from the input: ``adjacency`` unpacks the (b, n, n)
``uint8`` adjacency from rows of either word.

Masks and stacks differ only where the input pays for it. Masks grow
every ball in one 64-bit word per graph (``_walk_facts``, n <= 8) and read
bipartiteness off the odd power sums of the ``SpectrumTable`` key, which
the 2,097,152 graphs at n = 7 share 44,096 of; stacks take one unkeyed
solve, since sampled graphs rarely share a key, read the structure of a
sample whose pairs all lie within distance 2 and which has a triangle off
the A^2 of its triangle count, and grow balls over the arcs
(``_ball_facts``, any n) for the rest. Both count triangles as
trace(A^3) / 6, from the key's ``power_sums`` for masks.

The walk, peel and cycle kernels are shared and vertex-major like
``_stats``' reductions, so a graph's sums run along axis 0 (axis 1 of the
walk levels). None loops in Python over a block's graphs, subsets or walk
lengths: each takes one numpy pass per walk level (per chunk of graphs),
peeling round or subset size:
- the walk checks form one (K - 1, n, c) int64 array of levels W_0..W_{K-2}
  per ``WALK_CHUNK`` = c graphs within the int64 rule, each level one
  ``einsum`` over an (n, n, c) copy of the adjacency, take
  w_{K-1} and w_K as dot products of the middle levels, and decide every k
  in one reduction;
- the peel takes (n, b, w) rows and starts each k from the survivors of
  k - 1;
- ``cycle_lengths`` takes its subsets one size at a time, from cached
  index tables.
"""

from functools import lru_cache
import math

import numpy as np

from .errors import OrderTooLargeError
from .spectrum import CLUSTER_EPS, EQ_EPS, TRACE_EPS
from .verdicts import BOUNDS, STATUSES, TheoremId

BLOCK = 4096
# Matrices per batch of ``power_sums``, so its matrix powers stay small
# beside the block.
KEY_CHUNK = 512
# A vertex's neighbourhood is one byte, so a graph's n rows fit a 64-bit word.
MAX_EXHAUSTIVE_N = 8
# Sampled graphs per stack up to order 64 (``stack_size``): enough to share
# each stack's fixed numpy costs, few enough that a stack stays a few
# megabytes.
STACK = 128
# Graphs per pass of the walk checks: at n <= 8 a pass's int64 copy of the
# adjacency and its walk levels, under 1.3 MB, stay in one core's L2 cache
# across the K - 2 products.
WALK_CHUNK = 1024
# Horizon K of the walk inequality and decomposition identity in sweeps and
# fuzz runs; int64 walk counts stay exact on every graph up to K = 21 at
# n = 8 (``walk_degree_limit``).
WALK_DEPTH = 12

WALK_THEOREMS = frozenset({TheoremId.WALK_INEQUALITY,
                           TheoremId.DECOMPOSITION_IDENTITY})

_LOW_BITS = np.uint64(0x0101010101010101)  # bit 0 of every byte


@lru_cache(maxsize=None)
def _byte_tables(n: int) -> np.ndarray:
    """Table j of the (bytes, 256, n, 1) uint8 array holds the bitset rows
    of the graphs whose edge masks are the byte values put at byte j."""
    # Row-major below the diagonal is ``edge_order``: (v, u) for u < v.
    v_idx, u_idx = np.tril_indices(n, -1)
    shifts = np.arange(0, max(len(u_idx), 1), 8)[:, None, None]
    bits = ((np.arange(256)[:, None] << shifts) >> np.arange(len(u_idx))) & 1
    adj = np.zeros((len(shifts), 256, n, n), dtype=np.uint8)
    adj[:, :, u_idx, v_idx] = adj[:, :, v_idx, u_idx] = bits
    tables = np.packbits(adj, axis=3, bitorder="little")
    # Cached and shared: gathers copy it, and nothing may write it.
    tables.flags.writeable = False
    return tables


@lru_cache(maxsize=None)
def walk_degree_limit(n: int, K: int) -> int:
    """The largest maximum degree D at which int64 holds every walk
    quantity up to length K >= 2 of an n-vertex graph exactly, by the rule
    n (D+1) D^(K-1) < 2^63.

    w_k(i) <= D^k, so a total is at most n D^K, the walk inequality's left
    side w_k + w_{k-1} at most n (D+1) D^(K-1), and its right side
    max_closed * w_{k-2}, with max_closed <= D (D+1), the same; the
    decomposition sums are at most n D^K. ``walks._walk_dtype``'s rule
    D^K < 2^63 bounds only the per-vertex counts.
    """
    d = n - 1
    while d > 0 and n * (d + 1) * d ** (K - 1) >= 2 ** 63:
        d -= 1
    return d


def _popcount(x: np.ndarray) -> np.ndarray:
    """The set bits of each row of words of an unsigned integer array,
    summed along its last axis, as int64."""
    return np.bitwise_count(x).sum(axis=-1, dtype=np.int64)


def mask_rows(n: int, masks: np.ndarray) -> np.ndarray:
    """The (b, n, 1) uint8 bitset rows of a block of edge masks, an OR of
    one ``_byte_tables`` gather per mask byte."""
    octets = np.ascontiguousarray(masks, dtype="<i8").view(np.uint8) \
        .reshape(len(masks), 8)
    tables = _byte_tables(n)
    rows = tables[0][octets[:, 0]]
    for j in range(1, len(tables)):
        rows |= tables[j][octets[:, j]]
    return rows


def adjacency(rows: np.ndarray) -> np.ndarray:
    """The (b, n, n) uint8 adjacency matrices of (b, n, w) bitset rows of
    any unsigned word."""
    # Byte j of a row's little-endian words holds vertices 8j..8j+7.
    octets = np.ascontiguousarray(rows, dtype=rows.dtype.newbyteorder("<"))
    return np.unpackbits(octets.view(np.uint8), axis=2, count=rows.shape[1],
                         bitorder="little")


def block_stats(n: int, masks: np.ndarray, walks: bool = False,
                table: "SpectrumTable | None" = None) -> dict:
    """Vectorized per-graph quantities for a block of edge masks.

    The masks become bitset rows (``mask_rows``), and the rows the
    adjacency. The spectral facts come from ``table`` (a fresh one if
    None), which solves only the characteristic polynomials it has not met
    before. One ``power_sums`` pass gives the exact p_2..p_n that key the
    table, count the triangles, p_3 / 6, and decide bipartiteness: a graph
    is bipartite iff it has no closed walk of odd length k <= n, that is
    iff p_k = 0 for every odd k <= n, since a shortest odd closed walk is
    an odd cycle. Connectivity and the diameter come from ``_walk_facts``.
    ``certified`` flags the graphs whose eigenvalues meet the exact trace
    identities sum(lambda) = 0, sum(lambda^2) = 2m and
    sum(lambda^3) = p_3 = 6 * triangles within ``TRACE_EPS``. ``walks``
    adds the walk inequality and decomposition identity verdicts at depth
    ``WALK_DEPTH`` and ``walks_exact``, the graphs on which they are exact
    (``_walk_checks``).
    """
    if n > MAX_EXHAUSTIVE_N:
        raise OrderTooLargeError(
            f"batch engine capped at n = {MAX_EXHAUSTIVE_N}")
    rows = mask_rows(n, masks)
    adj = adjacency(rows)
    a = adj.astype(np.float64)
    table = SpectrumTable(n) if table is None else table
    sums = power_sums(a)
    tri = sums[:, 1] // 6 if n >= 3 else np.zeros(len(masks), dtype=np.int64)
    connected, diameter = _walk_facts(n, rows)
    # Column k - 2 holds p_k, so the odd k are columns 1, 3, ...
    out = _stats(adj, a, rows, table.facts(a, sums), tri,
                 (connected, ~sums[:, 1::2].any(axis=1), diameter), walks)
    out["masks"] = masks
    return out


def stack_size(n: int) -> int:
    """Sampled graphs per stack of order n: ``STACK`` up to n = 64, and
    above it as many as keep b n^2, the size of a stack's adjacency, within
    its value at n = 64."""
    return max(1, STACK * 64 ** 2 // max(n, 64) ** 2)


def stack_stats(rows: np.ndarray, walks: bool = False) -> dict:
    """``block_stats`` for a stack of sampled graphs of one order n, given
    as (b, n, ceil(n / 64)) ``uint64`` bitset rows, with every key but
    ``masks``.

    The adjacency is unpacked from the rows as for masks. The spectra come
    from one ``eigvalsh`` of the whole stack, with no key: sampled graphs
    rarely share one. The triangles are trace(A^3) / 6, the entrywise sum
    of A^2 * A. That A^2 also settles the structure of most dense samples:
    every pair of a graph lies within distance 2 iff A^2 + A + I has no
    zero entry, and then the graph is connected, of diameter 1 if it is
    complete (trace(A^2) = 2m = n(n - 1)) and 2 otherwise, and not
    bipartite if it has a triangle. Connectivity, bipartiteness and the
    diameter of the other samples come from ``_ball_facts``.

    Every sample keeps its facts, certified or not; ``walks_exact`` marks
    the samples whose walk verdicts are exact, and ``verdict_table``
    decides which samples go back to the resolver.
    """
    adj = adjacency(rows)
    a = adj.astype(np.float64)
    b, n = adj.shape[:2]
    # Entries of A^2 are at most n, so the float64 sums are exact while
    # n^3 < 2^53.
    a2 = a @ a
    tri = np.einsum("bij,bij->b", a2, a).astype(np.int64) // 6
    within_two = (adj.view(bool) | (a2 > 0) | np.eye(n, dtype=bool)).all(
        axis=(1, 2))
    rest = ~(within_two & (tri > 0))
    connected, bipartite = np.ones(b, dtype=bool), np.zeros(b, dtype=bool)
    diameter = np.where(np.einsum("bii->b", a2) == n * (n - 1), 1, 2)
    if rest.any():
        connected[rest], bipartite[rest], diameter[rest] = _ball_facts(
            adj[rest])
    return _stats(adj, a, rows, _spectrum_facts(np.linalg.eigvalsh(a)), tri,
                  (connected, bipartite, diameter), walks)


def _stats(adj, a, rows, spectrum, tri, structure, walks) -> dict:
    """The facts of ``block_stats`` and ``stack_stats`` from a block's
    (b, n, n) uint8 and float64 adjacency, bitset rows, spectral facts
    (``_spectrum_facts``' keys), triangle counts and (connected, bipartite,
    diameter)."""
    degrees = _popcount(rows)
    open_sums = np.einsum("bij,bj->bi", a, degrees.astype(np.float64))
    # Reduced along axis 0 of (n, b) copies, far faster than along axis 1.
    columns = np.ascontiguousarray(degrees.T)
    open_columns = np.ascontiguousarray(open_sums.T)
    m = columns.sum(axis=0) // 2
    max_closed = (open_columns + columns).max(axis=0).astype(np.int64)
    sum_ev, sum_squares, sum_cubes = spectrum["sums"].T
    out = {
        "m": m,
        "min_deg": columns.min(axis=0),
        "degrees": degrees,
        "rows": rows,
        "lam1": spectrum["ev"][:, -1],
        "sum_cubes": sum_cubes,
        "tri": tri,
        "max_open": open_columns.max(axis=0).astype(np.int64),
        "max_closed": max_closed,
        "certified": (np.abs(sum_ev) <= TRACE_EPS)
        & (np.abs(sum_squares - 2 * m) <= TRACE_EPS)
        & (np.abs(sum_cubes - 6 * tri) <= TRACE_EPS),
    }
    out["connected"], out["bipartite"], out["diameter"] = structure
    out["symmetric"] = spectrum["symmetric"]
    out["distinct"] = spectrum["distinct"]
    if walks:
        (out["walk_inequality"], out["decomposition"],
         out["walks_exact"]) = _walk_checks(
            adj, columns.max(axis=0), open_columns.astype(np.int64),
            max_closed)
    return out


def power_sums(a: np.ndarray) -> np.ndarray:
    """The power sums p_k = trace(A^k), k = 2..n, of a (b, n, n) float64
    block of adjacency matrices, as a (b, n - 1) int64 array.

    The block is worked ``KEY_CHUNK`` matrices at a time, so its matrix
    powers stay small beside it. trace(A^k) is the sum of A^i * A^(k-i)
    entrywise with i = k // 2: one batched (c, 1, n^2) @ (c, n^2, 1)
    product of the flattened powers, so only powers up to ceil(n/2) are
    formed. Every entry of A^k is at most (n-1)^k and every partial sum at
    most n(n-1)^k <= 8 * 7^8 < 2^53, so float64 holds them all exactly.
    """
    b, n = a.shape[:2]
    sums = np.empty((b, n - 1), dtype=np.int64)
    for lo in range(0, b, KEY_CHUNK):
        chunk = a[lo:lo + KEY_CHUNK]
        c = len(chunk)
        powers = [None, chunk]
        for _ in range(2, (n + 1) // 2 + 1):
            powers.append(np.matmul(powers[-1], chunk))
        for k in range(2, n + 1):
            sums[lo:lo + c, k - 2] = np.matmul(
                powers[k // 2].reshape(c, 1, n * n),
                powers[k - k // 2].reshape(c, n * n, 1))[:, 0, 0]
    return sums


@lru_cache(maxsize=None)
def _key_layout(n: int) -> tuple:
    """``(word, shift)`` of each power sum p_k, k = 2..n, in the packed key.

    0 <= p_k <= n(n-1)^k, the closed walks of K_n, so p_k fits in
    ``(n * (n - 1) ** k).bit_length()`` bits; the fields fill 63-bit words
    in turn, so the packing is injective and stays non-negative.
    """
    layout, word, used = [], 0, 0
    for k in range(2, n + 1):
        width = (n * (n - 1) ** k).bit_length()
        if used + width > 63:
            word, used = word + 1, 0
        layout.append((word, used))
        used += width
    return tuple(layout)


def packed_keys(sums: np.ndarray, n: int) -> np.ndarray:
    """The (b, n - 1) ``power_sums`` of a block of order n packed into int64
    words, as a (b, w) array: equal rows iff equal ``sums`` rows."""
    layout = _key_layout(n)
    if not layout:  # n = 1: every graph has the polynomial x
        return np.zeros((len(sums), 1), dtype=np.int64)
    words = np.zeros((len(sums), layout[-1][0] + 1), dtype=np.int64)
    for column, (word, shift) in enumerate(layout):
        words[:, word] |= sums[:, column] << shift
    return words


class SpectrumTable:
    """The spectral facts of the graphs of one shard, one row per distinct
    characteristic polynomial.

    By Newton's identities the power sums trace(A^k), k = 1..n, fix the
    characteristic polynomial, and trace(A) = 0; so graphs with equal
    ``packed_keys`` of their ``power_sums``, which the caller computes once
    and hands in, share their spectrum. A row is solved, with one batched
    ``eigvalsh`` per block, for the first graph met with its key, and holds
    its ascending eigenvalues ``ev``, the certificate sums of lambda,
    lambda^2 and lambda^3 (``sums``), whether the spectrum is symmetric
    about 0 (Lemma 1) and its number of distinct eigenvalues (Lemma 2),
    both up to ``CLUSTER_EPS``. ``facts`` hands a block each graph's copy.
    """

    def __init__(self, n: int):
        self.index: dict[tuple, int] = {}
        self.ev = np.empty((0, n))
        self.sums = np.empty((0, 3))
        self.symmetric = np.empty(0, dtype=bool)
        self.distinct = np.empty(0, dtype=np.int64)

    def facts(self, a: np.ndarray, sums: np.ndarray) -> dict:
        """Each graph's facts for a (b, n, n) float64 block with
        ``power_sums`` ``sums``, gathered from its row into arrays named
        like the stored ones; keys not seen before get new rows."""
        keys = packed_keys(sums, a.shape[1])
        order = np.lexsort(keys.T)  # stable: a group's head is its first graph
        ranked = keys[order]
        first = np.ones(len(a), dtype=bool)
        first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
        group = np.empty(len(a), dtype=np.intp)
        group[order] = np.cumsum(first) - 1
        seen = len(self.index)
        # A new key gets the next row number, in the order keys are met.
        row = np.array([self.index.setdefault(key, len(self.index))
                        for key in map(tuple, ranked[first].tolist())],
                       dtype=np.intp)
        new = row >= seen
        if new.any():
            self._append(np.linalg.eigvalsh(a[order[first][new]]))
        return {name: getattr(self, name)[row[group]]
                for name in ("ev", "sums", "symmetric", "distinct")}

    def _append(self, ev: np.ndarray) -> None:
        for name, value in _spectrum_facts(ev).items():
            setattr(self, name,
                    np.concatenate([getattr(self, name), value]))


def _spectrum_facts(ev: np.ndarray) -> dict:
    """The spectral facts of (b, n) ascending eigenvalue rows: ``ev``
    itself, the certificate sums of lambda, lambda^2 and lambda^3
    (``sums``), whether the spectrum is symmetric about 0 (``symmetric``)
    and the number of distinct eigenvalues (``distinct``), both up to
    ``CLUSTER_EPS``."""
    ev2 = ev * ev
    return {
        "ev": ev,
        "sums": np.stack([ev.sum(axis=1), ev2.sum(axis=1),
                          (ev2 * ev).sum(axis=1)], axis=1),
        "symmetric": np.abs(ev + ev[:, ::-1]).max(axis=1) <= CLUSTER_EPS,
        "distinct": (np.diff(ev, axis=1) > CLUSTER_EPS).sum(axis=1) + 1,
    }


def walk_levels(adj: np.ndarray, K: int) -> np.ndarray:
    """Per-vertex walk counts W_0..W_K of a (b, n, n) block, as one
    (K + 1, n, b) int64 array: vertex-major, so a graph's sums run along
    axis 1.

    The block is copied once, to an (n, n, b) int64 array, and W_k = A
    W_{k-1} is one ``einsum`` over it, written in place, exact on the graphs
    within ``walk_degree_limit(n, K)``.
    """
    a = np.ascontiguousarray(adj.transpose(1, 2, 0), dtype=np.int64)
    levels = np.empty((K + 1, *a.shape[1:]), dtype=np.int64)
    levels[0] = 1
    for k in range(1, K + 1):
        np.einsum("vub,ub->vb", a, levels[k - 1], out=levels[k])
    return levels


def _walk_checks(adj: np.ndarray, max_deg: np.ndarray,
                 open_columns: np.ndarray, max_closed: np.ndarray):
    """Walk inequality and decomposition identity, as the per-graph
    ``walk_inequality_holds`` and ``decomposition_identity_check`` decide
    them on a walk table of depth K = ``WALK_DEPTH``.

    The inequality w_k + w_{k-1} <= max_closed * w_{k-2} is checked for k
    in 2..K with w_{k-2} > 0; the identity needs W_2 to equal the open
    neighbourhood sums, given as (n, b) ``open_columns``, and
    w_k = sum_i W_{k-2}(i) W_2(i) for k in 2..K. Both read only the levels
    W_0..W_{K-2}: since w_{i+j} = W_i . W_j, the totals w_{K-1} and w_K are
    dot products of the middle levels, so each ``WALK_CHUNK`` graphs take
    K - 2 products, and each verdict is one reduction over all k.

    Returns the two verdicts and ``fits``, the graphs within
    ``walk_degree_limit(n, K)``, which is all of them for n <= 8. int64
    arithmetic would wrap silently on the rest, so they form no level and
    their verdicts stay False; ``verdict_table`` marks them undecided.
    """
    K = WALK_DEPTH
    fits = max_deg <= walk_degree_limit(adj.shape[1], K)
    exact = np.flatnonzero(fits)
    verdicts = np.zeros((2, len(adj)), dtype=bool)
    for lo in range(0, len(exact), WALK_CHUNK):
        part = exact[lo:lo + WALK_CHUNK]
        levels = walk_levels(adj[part], K - 2)
        w2 = levels[2]
        totals = np.concatenate([
            levels.sum(axis=1),
            [np.einsum("vb,vb->b", levels[(K - 1) // 2], levels[K // 2]),
             np.einsum("vb,vb->b", levels[K // 2], levels[(K + 1) // 2])]])
        low, mid, high = totals[:-2], totals[1:-1], totals[2:]
        bound = max_closed[part] * low
        verdicts[0, part] = ((low <= 0) | (high + mid <= bound)).all(axis=0)
        verdicts[1, part] = (w2 == open_columns[:, part]).all(axis=0) & (
            high == np.einsum("kvb,vb->kb", levels, w2)).all(axis=0)
    return verdicts[0], verdicts[1], fits


def peel_survivors(columns: np.ndarray, k: int,
                   start: np.ndarray | None = None) -> np.ndarray:
    """Vertex bitset of each graph's (k+1)-core, which is the survivor set
    of ``cycles.erdos_peel(g, k)``, as (b, w) words, for (n, b, w)
    vertex-major bitset rows (``columns[v]`` holds vertex v's row of every
    graph) of any unsigned word.

    Each round deletes every surviving vertex with at most k surviving
    neighbours. The survivors contain the core, so such a vertex has at most
    k neighbours in it and lies outside it; the rounds therefore stop at the
    core, whatever order the per-graph peel deletes in. Every round but the
    last deletes a vertex, so n rounds suffice. The rounds begin at every
    vertex, or at the vertex sets ``start`` when given, each of which must
    contain its graph's (k+1)-core, as the k-core does.
    """
    n, b, _ = columns.shape
    word = columns.dtype
    bits = _vertex_bits(n, word)[:, None]
    # Distinct powers of two: their sums are their ORs, exact in ``word``.
    alive = (np.tile(bits.sum(axis=0, dtype=word), (b, 1))
             if start is None else start.copy())
    for _ in range(n):
        low = _popcount(columns & alive) <= k
        drop = (low[:, :, None] * bits).sum(axis=0, dtype=word) & alive
        if not drop.any():
            break
        alive &= ~drop
    return alive


def _vertex_bits(n: int, word) -> np.ndarray:
    """The (n, w) words of each vertex v < n alone, in the unsigned dtype
    ``word``: bit v % s of word v // s, with s the word's bit width."""
    word = np.dtype(word)
    size = 8 * word.itemsize
    v = np.arange(n)
    bits = np.zeros((n, -(-n // size)), dtype=word)
    bits[v, v // size] = word.type(1) << (v % size).astype(word)
    return bits


def complete_bipartite_cores(rows: np.ndarray) -> np.ndarray:
    """``is_complete_bipartite_plus_isolated`` on (b, n, w) bitset rows of
    any unsigned word.

    With B the row of the lowest non-isolated vertex and A the other
    non-isolated vertices, a graph qualifies iff every vertex of A sees
    exactly B and every vertex of B sees exactly A. An edgeless graph does.
    """
    support = np.bitwise_or.reduce(rows, axis=1)
    part_b = rows[np.arange(len(rows)), np.argmax(rows.any(axis=2), axis=1)]
    part_a = support & ~part_b
    bits = _vertex_bits(rows.shape[1], rows.dtype)
    in_a, in_b = ((part[:, None] & bits).any(axis=2, keepdims=True)
                  for part in (part_a, part_b))
    sees = np.where(in_b, part_a[:, None],
                    np.where(in_a, part_b[:, None], 0))
    return (rows == sees).all(axis=(1, 2))


@lru_cache(maxsize=None)
def _subset_layers(n: int) -> tuple:
    """Index tables of ``cycle_lengths``' layers, one per subset size
    s = 2..n; a layer lists its subsets in increasing order.

    A layer is ``(src, grow, starts, low)``: the (S, u) pairs with
    |S| = s - 1, u > min(S) and u not in S, as the position ``src`` of S in
    its layer and the vertex ``grow`` = u, sorted by S + {u}; ``starts``,
    the first pair of each subset of layer s; and ``low``, the minimum of
    each subset of layer s. Every subset of two or more vertices has a
    pair, its top vertex added last, so no group is empty.
    """
    layer = [1 << v for v in range(n)]
    tables = []
    for _ in range(2, n + 1):
        dest, src, grow = np.array(sorted(
            (s | 1 << u, i, u) for i, s in enumerate(layer)
            for u in range((s & -s).bit_length(), n) if not s >> u & 1)).T
        unique, starts = np.unique(dest, return_index=True)
        layer = unique.tolist()
        table = (src, grow, starts,
                 np.array([(t & -t).bit_length() - 1 for t in layer]))
        # Cached and shared: nothing may write them.
        for array in table:
            array.flags.writeable = False
        tables.append(table)
    return tuple(tables)


def cycle_lengths(rows: np.ndarray) -> np.ndarray:
    """The cycle lengths of each graph of (b, n, w) bitset rows of any
    unsigned word, as an int64 bitmask whose bit l is set iff the graph has
    a cycle on l vertices. It reads word 0 only, which holds every row of
    the orders it runs at (n <= 8).

    One dynamic program over the vertex subsets S (Bellman; Held and Karp):
    ``ends[S]`` is the set of vertices v at which some path from min(S)
    through exactly S ends. A path extends only through vertices above
    min(S), so every cycle is met from its lowest vertex. The subsets are
    taken layer by layer in size (``_subset_layers``): each layer gathers
    all its (S, u) extensions at once and folds them into ``ends[S + {u}]``
    with one ``add.reduceat``, which is their OR since the bits u of one
    subset's extensions are distinct. S holds a cycle on |S| >= 3 vertices
    iff ``ends[S]`` meets the row of min(S), tested for a whole layer at
    once.
    """
    b, n = rows.shape[:2]
    columns = np.ascontiguousarray(rows[:, :, 0].T)
    bits = _vertex_bits(n, rows.dtype)[:, 0]
    ends = np.repeat(bits[:, None], b, axis=1)
    lengths = np.zeros(b, dtype=np.int64)
    for size, (src, grow, starts, low) in enumerate(_subset_layers(n), 2):
        found = ((ends[src] & columns[grow]) != 0) * bits[grow, None]
        ends = np.add.reduceat(found, starts, axis=0, dtype=rows.dtype)
        if size >= 3:
            lengths[((ends & columns[low]) != 0).any(axis=0)] |= 1 << size
    return lengths


def _walk_facts(n: int, rows: np.ndarray):
    """Connectivity and diameter of a block of (b, n, 1) mask rows, n <= 8,
    by growing every vertex's ball at once.

    B_k[v], the vertices within distance k of v, is the set of ends of the
    walks of length k from v in A + I: B_0[v] = {v}, and B_k[v] is the OR
    of row u plus u itself over u in B_{k-1}[v]. Each graph keeps its n
    balls in one 64-bit word, B_k[v] in bits 8v..8v+7, so a round is n
    vectorised ORs over the block: for each u, row u plus u is copied into
    every byte and kept in the bytes whose ball holds u. The rounds stop
    once no ball of the block grows.

    The graph is connected iff the ball of vertex 0 is then whole. The
    diameter is the number of radii k at which some ball is not whole: 0
    for n = 1, and n for disconnected graphs.
    """
    full = (1 << n) - 1
    all_full = np.uint64(sum(full << (8 * v) for v in range(n)))
    spread = [(rows[:, u, 0].astype(np.uint64) | np.uint64(1 << u))
              * _LOW_BITS for u in range(n)]
    ball = np.full(len(rows), sum(1 << (9 * v) for v in range(n)),
                   dtype=np.uint64)  # v in byte v
    diameter = np.zeros(len(rows), dtype=np.int64)
    for _ in range(n):
        diameter += ball != all_full
        grown = np.zeros_like(ball)
        for u in range(n):
            holds_u = ((ball >> np.uint64(u)) & _LOW_BITS) * np.uint64(0xFF)
            grown |= spread[u] & holds_u
        if (grown == ball).all():
            break
        ball = grown
    connected = (ball & np.uint64(0xFF)) == np.uint64(full)
    return connected, np.where(connected, diameter, n)


def _ball_facts(adj: np.ndarray):
    """Connectivity, bipartiteness and diameter of a (b, n, n) stack of
    any order, by growing every vertex's ball at once.

    As in ``graph._diameter``, ``reach`` holds one bitset row of w words
    per vertex, with vertex s set when it lies within the current radius,
    and a round ORs into it the rows of its neighbours: one gather and one
    ``bitwise_or.reduceat`` over the stack's arcs and a loop at each vertex
    (so no group is empty). The rounds stop when no row changes. A graph
    is connected iff vertex 0's row is then full, and its diameter is the
    number of rounds at which some row was not full (n if disconnected).
    ``even`` collects the sources at even distance. Adjacent vertices lie
    at distances from a source in their component that differ by at most
    1, and by exactly 1 for every source iff the component is bipartite;
    so a graph is bipartite iff no edge has ends whose rows agree on the
    parity of a source they reach.
    """
    b, n = adj.shape[:2]
    # Word-major, (w, b n), with ``take`` for the gathers: each word's
    # gathers and reductions then run along one contiguous axis, as fast as
    # with a single word, where fancy indexing of 2-D arrays is several
    # times slower.
    bits = _vertex_bits(n, np.uint64).T
    full = bits.sum(axis=1, dtype=np.uint64)[:, None]
    # Arc v -> u of graph g sits at r n + u of the flat stack, in row
    # r = g n + v, and runs from r to g n + u. The rows' first arcs split
    # the arcs into tails and heads without dividing every index by n.
    arcs = np.flatnonzero((adj | np.eye(n, dtype=np.uint8)).view(bool))
    rows = np.arange(b * n)
    starts = np.searchsorted(arcs, rows * n)
    degrees = np.diff(starts, append=len(arcs))
    tails = np.repeat(rows, degrees)
    heads = arcs - np.repeat(rows * n - rows // n * n, degrees)
    reach = np.tile(bits, b)
    even = reach.copy()
    diameter = np.zeros(b, dtype=np.int64)
    for radius in range(1, n + 1):
        diameter += (reach != full).reshape(-1, b, n).any(axis=(0, 2))
        grown = np.bitwise_or.reduceat(reach.take(heads, axis=1), starts,
                                       axis=1)
        if (grown == reach).all():
            break
        if radius % 2 == 0:
            even |= grown & ~reach
        reach = grown
    connected = (reach[:, ::n] == full).all(axis=0)
    tails, heads = tails[tails != heads], heads[tails != heads]
    agree = (~(even.take(tails, axis=1) ^ even.take(heads, axis=1))
             & reach.take(tails, axis=1)).any(axis=0)
    odd = np.zeros(b, dtype=bool)
    odd[tails[agree] // n] = True
    return connected, ~odd, np.where(connected, diameter, n)


def _bound_arrays(stats: dict, n: int) -> dict:
    m = stats["m"].astype(np.float64)
    delta = stats["min_deg"].astype(np.float64)
    values = {
        TheoremId.STANLEY: -0.5 + np.sqrt(2 * m + 0.25),
        TheoremId.LEMMA3_BOUND: np.sqrt(stats["max_open"].astype(np.float64)),
        TheoremId.THM11:
            (-1 + np.sqrt(1 + 4 * stats["max_closed"].astype(np.float64))) / 2,
        TheoremId.HSF:
            (delta - 1) / 2 + np.sqrt(2 * m - n * delta + (delta + 1) ** 2 / 4),
    }
    with np.errstate(invalid="ignore"):
        values[TheoremId.HONG] = np.sqrt(np.maximum(2 * m - n + 1, 0.0))
    return values


def verdict_table(n: int, stats: dict, theorems) -> tuple[dict, dict]:
    """Each requested theorem's verdict on every graph of a block, and the
    one place that decides which graphs go back to the per-graph resolver.

    Returns ``{theorem: (nonvac, holds, undecided)}``, boolean arrays over
    the block, and ``{bound: tight}``. ``undecided`` marks the graphs the
    batch leaves to the resolver: for every theorem those that fail the
    trace certificate, and for its own theorem those outside a kernel's
    exact range, which are the walk theorems past ``walk_degree_limit``,
    Bondy's lemma with 2 * min_deg > n above n = 8 and Theorem 7 above its
    spectral threshold from n = 85 on. ``nonvac``, ``holds`` (inside
    ``nonvac``) and ``tight`` (a requested bound applies and meets lambda_1
    within ``EQ_EPS``) cover only the decided graphs, so vacuous, holds,
    apparent violation (``nonvac & ~holds``) and undecided partition the
    block, and the resolver re-checks the last two. A triangle-free graph
    at the spectral Mantel threshold holds iff ``complete_bipartite_cores``
    accepts it, and a graph with 2 * min_deg > n holds Bondy's lemma iff
    ``cycle_lengths`` finds every length 3..n.
    """
    m, lam1, tri = stats["m"], stats["lam1"], stats["tri"]
    sqrt_m = np.sqrt(m.astype(np.float64))
    everywhere = np.ones(len(m), dtype=bool)
    table: dict = {}
    tight: dict = {}

    def decide(theorem, nonvac, holds, beyond=False):
        """Record a verdict; ``beyond`` marks the graphs outside the
        kernel's exact range. Returns the decided ``nonvac``."""
        undecided = ~stats["certified"] | beyond
        nonvac = nonvac & ~undecided
        table[theorem] = (nonvac, nonvac & holds, undecided)
        return nonvac

    if TheoremId.MANTEL in theorems:
        decide(TheoremId.MANTEL, 4 * m > n * n, tri > 0)
    if TheoremId.NOSAL in theorems:
        decide(TheoremId.NOSAL, lam1 > sqrt_m + EQ_EPS, tri > 0)
    if TheoremId.SPECTRAL_MANTEL in theorems:
        # The triangle-free graphs at the threshold must be complete
        # bipartite plus isolated vertices; only their rows are read.
        nonvac, holds = ~(lam1 < sqrt_m - EQ_EPS), tri > 0
        left = nonvac & ~holds
        holds[left] = complete_bipartite_cores(stats["rows"][left])
        decide(TheoremId.SPECTRAL_MANTEL, nonvac, holds)
    bounds = [bound for bound in BOUNDS if bound in theorems]
    values = _bound_arrays(stats, n) if bounds else {}
    for bound in bounds:
        # Hong's bound needs every vertex to have a neighbour.
        nonvac = stats["min_deg"] >= 1 if bound is TheoremId.HONG else everywhere
        slack = values[bound] - lam1
        nonvac = decide(bound, nonvac, slack >= -EQ_EPS)
        tight[bound] = nonvac & (np.abs(slack) <= EQ_EPS)
    if TheoremId.LEMMA1_SPECTRUM_SYMMETRY in theorems:
        decide(TheoremId.LEMMA1_SPECTRUM_SYMMETRY, everywhere,
               stats["symmetric"] == stats["bipartite"])
    if TheoremId.LEMMA2_DIAMETER_DISTINCT in theorems:
        decide(TheoremId.LEMMA2_DIAMETER_DISTINCT, stats["connected"],
               stats["distinct"] >= stats["diameter"] + 1)
    if TheoremId.WALK_INEQUALITY in theorems:
        decide(TheoremId.WALK_INEQUALITY, m > 0, stats["walk_inequality"],
               ~stats["walks_exact"])
    if TheoremId.DECOMPOSITION_IDENTITY in theorems:
        decide(TheoremId.DECOMPOSITION_IDENTITY, everywhere, stats["decomposition"],
               ~stats["walks_exact"])
    if TheoremId.LEMMA5_PEEL in theorems:
        holds = everywhere.copy()
        columns = np.ascontiguousarray(stats["rows"].transpose(1, 0, 2))
        alive = None
        # The (k+2)-core lies in the (k+1)-core, so each peel starts from
        # the previous one's survivors; a k with no graph at m >= k n
        # leaves no graph for a larger k either.
        for k in (1, 2, 3):
            applies = m >= k * n
            if applies.any():
                alive = peel_survivors(columns, k, alive)
                holds &= ~applies | alive.any(axis=1)
        decide(TheoremId.LEMMA5_PEEL, m >= n, holds)
    if TheoremId.LEMMA6_BONDY in theorems:
        nonvac = 2 * stats["min_deg"] > n
        holds = nonvac.copy()
        if n <= MAX_EXHAUSTIVE_N and nonvac.any():
            every = sum(1 << l for l in range(3, n + 1))
            lengths = cycle_lengths(stats["rows"][nonvac])
            holds[nonvac] = lengths & every == every
        # The kernel visits all 2^n subsets however few rows it gets, so
        # above n = 8 the resolver decides the lemma.
        decide(TheoremId.LEMMA6_BONDY, nonvac, holds, nonvac & (n > MAX_EXHAUSTIVE_N))
    if TheoremId.THM7_EVEN_CYCLES in theorems:
        # Vacuous at or below the spectral threshold, or with no even length
        # in [4, ceil(n/28)], as below n = 85; the resolver decides the rest.
        nonvac = (math.ceil(n / 28) >= 4) \
            & (lam1 > math.sqrt(n * n // 4) + EQ_EPS)
        decide(TheoremId.THM7_EVEN_CYCLES, nonvac, False, beyond=nonvac)
    return table, tight


def _blocks(n: int, masks, theorems, connected_only: bool = False):
    """Edge masks, a range or an int64 array, block by block, as
    ``(stats, table)``. A range becomes an array one block at a time, so a
    shard's masks are never all held at once.

    One ``SpectrumTable`` serves all the blocks, so each characteristic
    polynomial of the masks is solved once.

    ``stats`` covers the block's graphs (the connected ones only, with
    ``connected_only``), certified or not, and ``table`` is
    ``verdict_table`` on all of them.
    """
    walks = not WALK_THEOREMS.isdisjoint(theorems)
    table = SpectrumTable(n)
    for lo in range(0, len(masks), BLOCK):
        block = masks[lo:lo + BLOCK]
        if isinstance(block, range):
            block = np.arange(block.start, block.stop, dtype=np.int64)
        stats = block_stats(n, block, walks, table)
        if connected_only:
            stats = _select(stats, stats["connected"])
        yield stats, verdict_table(n, stats, theorems)


def _select(stats: dict, keep: np.ndarray) -> dict:
    """The per-graph entries of ``stats`` for the graphs ``keep`` marks."""
    if keep.all():
        return stats
    return {key: value[keep] for key, value in stats.items()}


def sweep_range(n: int, start: int, stop: int, theorems,
                connected_only: bool) -> dict:
    """``sweep_masks`` over the labeled masks [start, stop)."""
    return sweep_masks(n, range(start, stop), theorems, connected_only)


def sweep_masks(n: int, masks, theorems, connected_only: bool) -> dict:
    """``_tally`` over edge masks, a range or an int64 array, with graphs
    named by their masks."""
    return _tally(((stats["masks"], table) for stats, table
                   in _blocks(n, masks, theorems, connected_only)), theorems)


def sweep_stack(rows: np.ndarray, theorems) -> dict:
    """``_tally`` over one ``stack_stats`` stack of (b, n, w) ``uint64``
    rows, certified or not, with graphs named by their positions in the
    stack."""
    stats = stack_stats(rows, not WALK_THEOREMS.isdisjoint(theorems))
    return _tally([(np.arange(len(rows)),
                    verdict_table(rows.shape[1], stats, theorems))], theorems)


def _tally(blocks, theorems) -> dict:
    """Tally theorems over ``(names, (table, tight))`` blocks: the graphs'
    names and ``verdict_table`` on them.

    Returns counts, tight-census names per bound, and ``resolve`` names that
    the caller must re-check per graph: each theorem's undecided graphs and
    apparent violations, as ``verdict_table`` marks them. A vacuous graph
    is a decided one outside ``nonvac``. ``theorems`` may be ``TheoremId``
    members or their id strings, which equal them.
    """
    counts = {t: dict.fromkeys(STATUSES, 0) for t in theorems}
    tight: dict = {b: [] for b in BOUNDS if b in theorems}
    resolve: dict = {}
    for names, (table, tight_names) in blocks:
        for theorem, (nonvac, holds, undecided) in table.items():
            counts[theorem]["vacuous"] += int((~nonvac & ~undecided).sum())
            counts[theorem]["holds"] += int(holds.sum())
            open_names = names[undecided | (nonvac & ~holds)].tolist()
            if open_names:
                resolve.setdefault(theorem, []).extend(open_names)
        for bound, is_tight in tight_names.items():
            tight[bound].extend(names[is_tight].tolist())
    return {"counts": counts, "tight": tight, "resolve": resolve}


AUDIT_THEOREMS = frozenset({TheoremId.SPECTRAL_MANTEL, *BOUNDS,
                            TheoremId.LEMMA1_SPECTRUM_SYMMETRY,
                            TheoremId.LEMMA2_DIAMETER_DISTINCT})


def audit_range(n: int, start: int, stop: int) -> dict:
    """Identity-and-tightness audit over masks [start, stop).

    Keys are those of ``verify.SpectralAudit``, with masks for graphs. The
    verdicts come from ``verdict_table``; only the triangle trace identity,
    which the certificate also reads, covers uncertified graphs.
    """
    out = {
        "graphs": 0,
        "uncertified": [],
        "triangle_mismatches": [],
        "spectral_mantel_failures": [],
        "tight_threshold_not_complete_bipartite": [],
        "bound_violations": {b: [] for b in BOUNDS},
        "hsf_tight_not_class": [],
        "hsf_class_not_tight": [],
        "thm11_above_stanley": [],
        "lemma1_mismatches": [],
        "lemma2_violations": [],
        "tight_counts": dict.fromkeys(BOUNDS, 0),
    }
    for stats, (table, tight) in _blocks(n, range(start, stop),
                                         AUDIT_THEOREMS):
        masks, certified = stats["masks"], stats["certified"]
        out["graphs"] += len(masks)
        out["uncertified"] += masks[~certified].tolist()
        spectral_tri = stats["sum_cubes"] / 6.0
        mismatch = (np.abs(spectral_tri - stats["tri"]) > TRACE_EPS) \
            | (np.rint(spectral_tri).astype(np.int64) != stats["tri"])
        out["triangle_mismatches"] += masks[mismatch].tolist()

        open_masks = {theorem: masks[nonvac & ~holds].tolist()
                      for theorem, (nonvac, holds, _) in table.items()}
        out["spectral_mantel_failures"] += open_masks[TheoremId.SPECTRAL_MANTEL]
        out["lemma1_mismatches"] += open_masks[TheoremId.LEMMA1_SPECTRUM_SYMMETRY]
        out["lemma2_violations"] += open_masks[TheoremId.LEMMA2_DIAMETER_DISTINCT]
        for bound in BOUNDS:
            out["bound_violations"][bound] += open_masks[bound]
            out["tight_counts"][bound] += int(tight[bound].sum())

        # The lists below name certified graphs only.
        connected = stats["connected"] & certified
        # The open spectral Mantel graphs, connected and at the threshold.
        nonvac, holds, _ = table[TheoremId.SPECTRAL_MANTEL]
        sqrt_m = np.sqrt(stats["m"].astype(np.float64))
        at_threshold = connected & nonvac & ~holds \
            & (np.abs(stats["lam1"] - sqrt_m) <= EQ_EPS)
        out["tight_threshold_not_complete_bipartite"] += \
            masks[at_threshold].tolist()
        # Vertex-major, as in ``_stats``.
        columns = np.ascontiguousarray(stats["degrees"].T)
        min_deg = stats["min_deg"]
        in_class = (columns.max(axis=0) == min_deg) | (
            (columns == min_deg) | (columns == n - 1)).all(axis=0)
        out["hsf_tight_not_class"] += \
            masks[connected & tight[TheoremId.HSF] & ~in_class].tolist()
        out["hsf_class_not_tight"] += \
            masks[connected & in_class & ~tight[TheoremId.HSF]].tolist()
        values = _bound_arrays(stats, n)
        above = values[TheoremId.THM11] > values[TheoremId.STANLEY] + EQ_EPS
        out["thm11_above_stanley"] += masks[certified & above].tolist()
    return out
