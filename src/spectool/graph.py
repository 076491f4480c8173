"""Immutable simple undirected graphs stored as bitset adjacency rows.

Row ``adj[v]`` is a Python int with bit ``u`` set iff ``{u, v}`` is an edge.
Python ints are arbitrary width, so the representation works for any order;
only graph6 I/O caps the order at 62 (short form).
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
import math

import numpy as np

from .errors import EmptyGraphError, OutOfRangeVertexError


def bits(x: int):
    """Yield the indices of the set bits of ``x`` in increasing order."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _set_bits(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row and bit index of every set bit of the rows, in row order and
    increasing bit order within a row, as two int64 arrays, and each row's
    number of set bits.

    Each row is packed only up to its highest set bit and only its nonzero
    bytes are unpacked, so time and memory follow the rows' own size and
    their number of set bits rather than len(rows) times the order.
    """
    sizes = [(row.bit_length() + 7) // 8 for row in rows]
    packed = np.frombuffer(
        b"".join(map(int.to_bytes, rows, sizes, repeat("little"))),
        dtype=np.uint8)
    nonzero = packed.nonzero()[0]
    byte, bit = np.unpackbits(packed[nonzero, None], axis=1,
                              bitorder="little").nonzero()
    counts = np.array([row.bit_count() for row in rows], dtype=np.int64)
    first_byte = np.array([*accumulate(sizes, initial=0)][:-1], dtype=np.int64)
    # In place: at most four per-arc arrays are alive at once.
    heads = nonzero[byte]
    heads -= first_byte.repeat(counts)
    heads *= 8
    heads += bit
    return np.arange(len(rows)).repeat(counts), heads, counts


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    ``_arcs`` is the (tails, heads) pair of int64 arrays listing every arc
    v -> u (bit u of row v) in row order, found once while checking the
    rows and read by the whole-graph kernels below; ``_degrees`` is the
    int64 array of the rows' bit counts found with them.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0 or len(self.adj) != self.n:
            raise ValueError("adjacency length must equal the vertex count")
        # Shifts, not masks of n bits, keep this loop linear in n.
        for v, row in enumerate(self.adj):
            if row >> self.n:
                raise ValueError(f"row {v} has bits beyond vertex {self.n - 1}")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
        tails, heads, degrees = _set_bits(self.adj)
        # The keys v * n + u of the arcs come sorted; the rows are symmetric
        # iff the reversed arcs sort to the same keys. Both are built and
        # sorted in place, so no other int64 array per arc is made.
        keys = tails * self.n
        keys += heads
        mirrors = heads * self.n
        mirrors += tails
        mirrors.sort()
        if not np.array_equal(mirrors, keys):
            # The first arc whose reverse is missing is the pair a
            # row-by-row scan meets first.
            first = np.flatnonzero(~np.isin(heads * self.n + tails, keys))[0]
            v, u = int(tails[first]), int(heads[first])
            raise ValueError(f"asymmetric adjacency at ({u}, {v})")
        object.__setattr__(self, "_arcs", (tails, heads))
        object.__setattr__(self, "_degrees", degrees)

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self._arcs[0]) // 2

    def degrees(self) -> list[int]:
        return self._degrees.tolist()

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self):
        """Yield edges as pairs ``(u, v)`` with ``u < v``."""
        for v, row in enumerate(self.adj):
            for u in bits(row & ((1 << v) - 1)):
                yield (u, v)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def from_edges(n: int, edges) -> Graph:
    """Build a graph from an iterable of vertex pairs."""
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise OutOfRangeVertexError(f"edge ({u}, {v}) outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def edge_order(n: int) -> list[tuple[int, int]]:
    """Upper-triangle edge positions in graph6 column-major order.

    Position k of the sequence x(0,1), x(0,2), x(1,2), x(0,3), ... is the
    shared bit layout for edge-mask enumeration and the graph6 codec.
    """
    return [(u, v) for v in range(n) for u in range(v)]


def from_edge_mask(n: int, mask: int) -> Graph:
    """Build a graph from an edge bitmask in ``edge_order`` bit layout."""
    rows = [0] * n
    k = 0
    for v in range(n):
        for u in range(v):
            if mask >> k & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            k += 1
    return Graph(n, tuple(rows))


def to_edge_mask(g: Graph) -> int:
    """Inverse of ``from_edge_mask``."""
    mask = 0
    k = 0
    for v in range(g.n):
        row = g.adj[v] & ((1 << v) - 1)
        mask |= row << k
        k += v
    return mask


@dataclass(frozen=True)
class BasicStats:
    m: int
    min_degree: int
    max_degree: int
    average_degree: Fraction
    degrees: tuple[int, ...]


def basic_stats(g: Graph) -> BasicStats:
    """Edge count, degree extremes, average degree 2m/n, degree sequence."""
    if g.n == 0:
        raise EmptyGraphError("stats undefined for the empty graph")
    degs = g.degrees()
    m = sum(degs) // 2
    return BasicStats(m, min(degs), max(degs), Fraction(2 * m, g.n), tuple(degs))


@dataclass(frozen=True)
class Connectivity:
    is_connected: bool
    components: tuple[tuple[int, ...], ...]
    diameter: float  # math.inf when disconnected


def _component_mask(g: Graph, start: int) -> int:
    seen = 1 << start
    frontier = seen
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= g.adj[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen


def _diameter(g: Graph) -> int:
    """Diameter of a connected graph, growing the balls of up to 64 sources
    at once.

    ``reach[v]`` holds bit s when source first + s lies within the current
    radius of v. One more round ORs into it the reaches of v's neighbours:
    one gather and one ``bitwise_or.reduceat`` over the arcs, grouped by
    tail (no group is empty, as the graph is connected). A block of sources
    is done when every vertex holds all of them; the diameter is the
    largest such radius over the blocks. Memory stays O(n + m).
    """
    n = g.n
    tails, heads = g._arcs
    starts = np.searchsorted(tails, np.arange(n))
    diameter = 0
    for first in range(0, n, 64):
        size = min(64, n - first)
        full = np.uint64((1 << size) - 1)
        reach = np.zeros(n, dtype=np.uint64)
        reach[first:first + size] = \
            np.uint64(1) << np.arange(size, dtype=np.uint64)
        for radius in range(n):
            if (reach == full).all():
                break
            reach |= np.bitwise_or.reduceat(reach[heads], starts)
        else:
            raise ValueError("the diameter of a disconnected graph is infinite")
        diameter = max(diameter, radius)
    return diameter


def connectivity(g: Graph) -> Connectivity:
    """Connected components and the diameter (inf when disconnected)."""
    if g.n == 0:
        raise EmptyGraphError("connectivity undefined for the empty graph")
    comps = []
    remaining = (1 << g.n) - 1
    while remaining:
        start = (remaining & -remaining).bit_length() - 1
        comp = _component_mask(g, start)
        comps.append(tuple(bits(comp)))
        remaining &= ~comp
    if len(comps) > 1:
        return Connectivity(False, tuple(comps), math.inf)
    return Connectivity(True, tuple(comps), _diameter(g))


def is_connected(g: Graph) -> bool:
    return g.n > 0 and _component_mask(g, 0) == (1 << g.n) - 1


@dataclass(frozen=True)
class Bipartition:
    part_a: tuple[int, ...]
    part_b: tuple[int, ...]


def bipartition(g: Graph) -> Bipartition | None:
    """Two-color the graph, or return None when an odd cycle exists.

    The lowest-index vertex of each component lands in part A, so the
    labeling is deterministic.
    """
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for u in bits(g.adj[v]):
                    if color[u] == -1:
                        color[u] = 1 - color[v]
                        nxt.append(u)
                    elif color[u] == color[v]:
                        return None
            frontier = nxt
    part_a = tuple(v for v in range(g.n) if color[v] == 0)
    part_b = tuple(v for v in range(g.n) if color[v] == 1)
    return Bipartition(part_a, part_b)


@dataclass(frozen=True)
class CompleteBipartiteWitness:
    a: int
    b: int
    isolated: int


def is_complete_bipartite_plus_isolated(g: Graph) -> CompleteBipartiteWitness | None:
    """Witness that deleting isolated vertices leaves a complete bipartite core.

    An edgeless graph counts as the degenerate core (a = b = 0): every vertex
    is isolated and nothing remains after deletion.
    """
    support = [v for v in range(g.n) if g.adj[v]]
    isolated = g.n - len(support)
    if not support:
        return CompleteBipartiteWitness(0, 0, isolated)
    bip = bipartition(g)
    if bip is None:
        return None
    # An isolated vertex is a component of its own and lands in part A;
    # without them the parts are those of the core, in the same labels.
    part_a = [v for v in bip.part_a if g.adj[v]]
    if not part_a or not bip.part_b:
        return None
    mask_b = 0
    for v in bip.part_b:
        mask_b |= 1 << v
    # All cross edges present and parts independent: the core is K_{a,b}
    # (part B is then automatically complete toward part A).
    for v in part_a:
        if g.adj[v] != mask_b:
            return None
    return CompleteBipartiteWitness(len(part_a), len(bip.part_b), isolated)


class RegularityClass:
    """Tagged classification of the degree structure."""

    __slots__ = ()


@dataclass(frozen=True)
class Regular(RegularityClass):
    k: int


@dataclass(frozen=True)
class BipartiteSemiRegular(RegularityClass):
    r: int  # degree on the part holding the lowest-index vertex
    s: int


@dataclass(frozen=True)
class Bidegreed(RegularityClass):
    low: int
    high: int  # always n - 1


@dataclass(frozen=True)
class Other(RegularityClass):
    pass


def is_regular(g: Graph) -> bool:
    return g.n > 0 and len(set(g.degrees())) == 1


def is_bidegreed_min_and_full(g: Graph) -> bool:
    """Every degree equals either the minimum degree or n - 1."""
    if g.n == 0:
        return False
    degs = g.degrees()
    lo = min(degs)
    return all(d == lo or d == g.n - 1 for d in degs)


def bipartite_semiregular_degrees(g: Graph) -> tuple[int, int] | None:
    """Per-part constant degrees (r, s) when some 2-coloring has them.

    Components may be flipped independently. The orientation of the component
    holding vertex 0 is pinned to the deterministic ``bipartition`` labeling,
    so r is the degree of vertex 0's side; each later component constrains the
    set of feasible s values in both of its orientations.
    """
    bip = bipartition(g)
    if bip is None or g.n == 0:
        return None
    side = [0] * g.n
    for v in bip.part_b:
        side[v] = 1
    comp_pairs = []  # (side-A degree, side-B degree or None); side A is nonempty
    remaining = (1 << g.n) - 1
    while remaining:
        start = (remaining & -remaining).bit_length() - 1
        comp = _component_mask(g, start)
        remaining &= ~comp
        degs = [set(), set()]
        for v in bits(comp):
            degs[side[v]].add(g.degree(v))
        if len(degs[0]) > 1 or len(degs[1]) > 1:
            return None
        comp_pairs.append((degs[0].pop(), degs[1].pop() if degs[1] else None))

    r = comp_pairs[0][0]
    feasible_s = (
        {comp_pairs[0][1]} if comp_pairs[0][1] is not None else set(g.degrees())
    )
    for cr, cs in comp_pairs[1:]:
        kept = {s for s in feasible_s if cr == r and (cs is None or cs == s)}
        flipped = {s for s in feasible_s if cr == s and (cs is None or cs == r)}
        feasible_s = kept | flipped
        if not feasible_s:
            return None
    return (r, min(feasible_s))


def classify_regularity(g: Graph) -> RegularityClass:
    """Most specific degree class, with precedence
    Regular > BipartiteSemiRegular > Bidegreed > Other."""
    if g.n == 0:
        raise EmptyGraphError("classification undefined for the empty graph")
    degs = g.degrees()
    if len(set(degs)) == 1:
        return Regular(degs[0])
    semi = bipartite_semiregular_degrees(g)
    if semi is not None:
        return BipartiteSemiRegular(*semi)
    if is_bidegreed_min_and_full(g):
        return Bidegreed(min(degs), g.n - 1)
    return Other()


@dataclass(frozen=True)
class NeighborhoodDegreeSums:
    open_sums: tuple[int, ...]
    closed_sums: tuple[int, ...]
    max_open: int
    max_closed: int


def neighborhood_degree_sums(g: Graph) -> NeighborhoodDegreeSums:
    """Per-vertex sums of neighbor degrees, open N(v) and closed N[v]."""
    if g.n == 0:
        raise EmptyGraphError("neighborhood sums undefined for the empty graph")
    # The neighbours' degrees are summed over the set bits of each row by
    # prefix sums, straight from the rows and independent of the A @ d
    # product of the walk table, which the decomposition identity checks
    # these sums against.
    tails, heads = g._arcs
    prefix = np.concatenate(([0], np.cumsum(g._degrees[heads])))
    bounds = np.searchsorted(tails, np.arange(g.n + 1))
    sums = prefix[bounds[1:]] - prefix[bounds[:-1]]
    open_sums = tuple(sums.tolist())
    closed_sums = tuple((sums + g._degrees).tolist())
    return NeighborhoodDegreeSums(
        open_sums, closed_sums, max(open_sums), max(closed_sums)
    )


def count_triangles_brute(g: Graph) -> int:
    """Exact triangle count by enumerating vertex triples via bit masks."""
    count = 0
    for v in range(g.n):
        row_v = g.adj[v]
        above_v = row_v >> (v + 1) << (v + 1)
        for w in bits(above_v):
            count += (row_v & g.adj[w] & ~((1 << (w + 1)) - 1)).bit_count()
    return count


def first_triangle(g: Graph) -> tuple[int, int, int] | None:
    """Lexicographically least triangle, or None."""
    for u in range(g.n):
        row_u = g.adj[u] & ~((1 << (u + 1)) - 1)
        for v in bits(row_u):
            common = g.adj[u] & g.adj[v] & ~((1 << (v + 1)) - 1)
            if common:
                w = (common & -common).bit_length() - 1
                return (u, v, w)
    return None


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on the given vertex set plus the relabeling map.

    Entry i of the map is the original label of new vertex i (vertices are
    kept in increasing original order).
    """
    ordered = sorted(set(vertices))
    for v in ordered:
        if not 0 <= v < g.n:
            raise OutOfRangeVertexError(f"vertex {v} outside 0..{g.n - 1}")
    index = {v: i for i, v in enumerate(ordered)}
    rows = [0] * len(ordered)
    for i, v in enumerate(ordered):
        for u in bits(g.adj[v]):
            j = index.get(u)
            if j is not None:
                rows[i] |= 1 << j
    return Graph(len(ordered), tuple(rows)), tuple(ordered)
