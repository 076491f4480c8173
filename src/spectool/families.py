"""Graph generators: named families and seeded random models.

``gnp`` and ``random_bipartite`` draw through one sampler,
``bernoulli_rows``, which also gives fuzz runs their samples as packed rows
without building a ``Graph``.
"""

import functools
import random

import numpy as np

from .errors import InvalidOrderError, RedrawLimitError
from .graph import Graph, from_edges

# For fixed k and large n a pairing is simple with probability about
# exp((1 - k^2) / 4): degree 5 needs about 400 draws and degree 10 about
# 5 * 10^10. Small dense orders are worse than the estimate: regular:8,6 has
# 105 graphs and needs about 157,000 draws on average, while its 1-regular
# complement needs one. Past this bound random_regular samples the complement
# whenever it has the lower degree.
MAX_PAIRING_DRAWS = 1 << 16


def complete(n: int) -> Graph:
    """K_n."""
    if n < 0:
        raise InvalidOrderError("n must be nonnegative")
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}: part A is vertices 0..a-1, part B is a..a+b-1."""
    if a < 0 or b < 0:
        raise InvalidOrderError("part sizes must be nonnegative")
    mask_a = (1 << a) - 1
    mask_b = ((1 << (a + b)) - 1) ^ mask_a
    rows = [mask_b] * a + [mask_a] * b
    return Graph(a + b, tuple(rows))


def cycle(n: int) -> Graph:
    """C_n (requires n >= 3)."""
    if n < 3:
        raise InvalidOrderError("a cycle needs at least 3 vertices")
    return from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def path(n: int) -> Graph:
    """P_n on n vertices (n - 1 edges)."""
    if n < 0:
        raise InvalidOrderError("n must be nonnegative")
    return from_edges(n, [(v, v + 1) for v in range(n - 1)])


def star(n: int) -> Graph:
    """K_{1,n-1} with the center at vertex 0."""
    if n < 1:
        raise InvalidOrderError("a star needs at least 1 vertex")
    return from_edges(n, [(0, v) for v in range(1, n)])


def petersen() -> Graph:
    """The Petersen graph: outer C_5, inner pentagram, spokes."""
    edges = [(v, (v + 1) % 5) for v in range(5)]
    edges += [(5 + v, 5 + (v + 2) % 5) for v in range(5)]
    edges += [(v, v + 5) for v in range(5)]
    return from_edges(10, edges)


# Pairs drawn per getrandbits call, so a sample's draws take a bounded
# amount of memory beyond its one byte per pair.
DRAW_CHUNK = 1 << 14


def _word_draws(rngs, count: int) -> np.ndarray:
    """(len(rngs), count) array of each generator's next ``count`` random()
    values, two 32-bit words of one getrandbits call each.

    CPython's random() takes the next two Mersenne Twister words w0, w1 and
    returns ((w0 >> 5) * 2^26 + (w1 >> 6)) / 2^53, and getrandbits(64 * k)
    returns the next 2k words with the first in the lowest bits.
    """
    words = np.frombuffer(b"".join(
        rng.getrandbits(64 * count).to_bytes(8 * count, "little")
        for rng in rngs), dtype="<u4").reshape(len(rngs), 2 * count)
    return ((words[:, 0::2] >> 5) * 67108864.0
            + (words[:, 1::2] >> 6)) / 9007199254740992.0


@functools.cache
def _words_match_random() -> bool:
    """Whether ``_word_draws`` gives random()'s values in this interpreter:
    getrandbits' word order is a CPython implementation detail. Checked on
    first use, once per process; when it fails the draws come from
    random()."""
    seed = 0x5EED
    reference = random.Random(seed)
    return (_word_draws([random.Random(seed)], 8).tolist()
            == [[reference.random() for _ in range(8)]])


def _draws(rngs, count: int) -> np.ndarray:
    """``_word_draws``, or the same values from random() calls where the
    words do not give them."""
    if not _words_match_random():
        return np.array([[rng.random() for _ in range(count)]
                         for rng in rngs]).reshape(len(rngs), count)
    return _word_draws(rngs, count)


def bernoulli_rows(slots: np.ndarray, p: float, seeds) -> np.ndarray:
    """Packed adjacency rows of one sample per seed, as a
    (len(seeds), n, ceil(n / 8)) ``uint8`` array whose row v holds bit u,
    little-endian, iff {u, v} is an edge.

    ``slots`` is an (n, n) bool mask of the candidate pairs (v, u), u < v,
    and its row-major order is the draw order: a sample keeps its k-th pair
    iff the k-th random() draw of ``random.Random(seed)`` is below p. The
    draws come ``DRAW_CHUNK`` pairs at a time, so memory stays a few bytes
    per vertex pair.
    """
    rngs = [random.Random(seed) for seed in seeds]
    count = int(np.count_nonzero(slots))
    keep = np.empty((len(rngs), count), dtype=bool)
    for lo in range(0, count, DRAW_CHUNK):
        hi = min(lo + DRAW_CHUNK, count)
        keep[:, lo:hi] = _draws(rngs, hi - lo) < p
    adj = np.zeros((len(rngs), *slots.shape), dtype=bool)
    # place, unlike a masked assignment, builds no index arrays.
    np.place(adj, np.broadcast_to(slots, adj.shape), keep)
    adj |= adj.transpose(0, 2, 1)
    return np.packbits(adj, axis=2, bitorder="little")


def gnp_slots(n: int) -> np.ndarray:
    """``bernoulli_rows`` slots of G(n, p): every pair, in ``edge_order``."""
    return np.tri(n, k=-1, dtype=bool)


def bipartite_slots(a: int, b: int) -> np.ndarray:
    """``bernoulli_rows`` slots of G(a, b, p): the a*b cross pairs, B-vertex
    by B-vertex, which is again ``edge_order``."""
    slots = np.zeros((a + b, a + b), dtype=bool)
    slots[a:, :a] = True
    return slots


def graph_of_rows(packed: np.ndarray) -> Graph:
    """The graph of one sample's (n, w) bitset rows of any unsigned word,
    little-endian: ``bernoulli_rows`` bytes or stack words."""
    return Graph(len(packed), tuple(int.from_bytes(row.tobytes(), "little")
                                    for row in packed))


def gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), deterministic for a fixed seed: one
    ``random.Random(seed).random()`` draw per pair in ``edge_order``, the
    pair kept iff the draw is below p."""
    if n < 0:
        raise InvalidOrderError("n must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p = {p} outside [0, 1]")
    return graph_of_rows(bernoulli_rows(gnp_slots(n), p, [seed])[0])


def random_bipartite(a: int, b: int, p: float, seed: int) -> Graph:
    """Bipartite G(a, b, p): each of the a*b cross pairs kept with
    probability p, one draw per pair as in ``gnp``, B-vertex by B-vertex."""
    if a < 0 or b < 0:
        raise InvalidOrderError("part sizes must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p = {p} outside [0, 1]")
    return graph_of_rows(bernoulli_rows(bipartite_slots(a, b), p, [seed])[0])


def _pairing_edges(n: int, k: int, rng: random.Random) -> set | None:
    """Edges of one simple pairing among MAX_PAIRING_DRAWS draws, else None."""
    stubs = [v for v in range(n) for _ in range(k)]
    for _ in range(MAX_PAIRING_DRAWS):
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or (min(u, v), max(u, v)) in edges:
                ok = False
                break
            edges.add((min(u, v), max(u, v)))
        if ok:
            return edges
    return None


def random_regular(n: int, k: int, seed: int) -> Graph:
    """Uniform random k-regular graph via the pairing model, deterministic per seed.

    Stub pairings with self-loops or repeated edges are discarded and redrawn
    from the same stream, at most ``MAX_PAIRING_DRAWS`` times. If none is
    simple and n - 1 - k < k, the same stream then samples an
    (n - 1 - k)-regular graph the same way and returns its complement, which
    is again uniform. Raises RedrawLimitError when no draw is simple.
    """
    if n < 0 or k < 0:
        raise InvalidOrderError("n and k must be nonnegative")
    if k >= n or (n * k) % 2:
        raise InvalidOrderError(f"no {k}-regular graph on {n} vertices")
    rng = random.Random(seed)
    edges = _pairing_edges(n, k, rng)
    if edges is not None:
        return from_edges(n, edges)
    if n - 1 - k < k:
        co_edges = _pairing_edges(n, n - 1 - k, rng)
        if co_edges is not None:
            return from_edges(n, [(u, v) for v in range(n) for u in range(v)
                                  if (u, v) not in co_edges])
    raise RedrawLimitError(
        f"no simple {k}-regular pairing on {n} vertices in "
        f"{MAX_PAIRING_DRAWS} draws (sample seed {seed})")
