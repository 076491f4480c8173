"""Graph generators: named families and seeded random models."""

import random

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


def gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), deterministic for a fixed seed."""
    if n < 0:
        raise InvalidOrderError("n must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p = {p} outside [0, 1]")
    # One draw per pair in edge_order (v ascending, then u < v), with the
    # rows filled as the draws come.
    rand = random.Random(seed).random
    rows = [0] * n
    for v in range(n):
        bit_v = 1 << v
        row = 0
        for u in range(v):
            if rand() < p:
                row |= 1 << u
                rows[u] |= bit_v
        rows[v] = row
    return Graph(n, tuple(rows))


def random_bipartite(a: int, b: int, p: float, seed: int) -> Graph:
    """Bipartite G(a, b, p): each of the a*b cross pairs kept with probability p."""
    if a < 0 or b < 0:
        raise InvalidOrderError("part sizes must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p = {p} outside [0, 1]")
    rng = random.Random(seed)
    edges = [
        (u, a + v) for v in range(b) for u in range(a) if rng.random() < p
    ]
    return from_edges(a + b, edges)


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
