"""graph6 short-form codec, bit exact.

Layout: first byte is n + 63 (0 <= n <= 62). The upper-triangle bits
x(0,1), x(0,2), x(1,2), x(0,3), x(1,3), x(2,3), ... follow column-major,
packed big-endian into 6-bit groups, zero-padded to a multiple of 6; each
group + 63 gives a printable byte in 63..126. Byte 126 ('~') marks the long
form, which is out of scope here.
"""

import numpy as np

from .errors import (
    BadPaddingError,
    EdgeListFormatError,
    MalformedHeaderError,
    TruncatedBodyError,
    UnsupportedOrderError,
)
from .graph import Graph, from_edges, to_edge_mask

HEADER_LINE = ">>graph6<<"
# Largest order of the short form, whose first byte is n + 63 <= 125.
MAX_GRAPH6_N = 62
# Largest order an edge-list header may declare: the rows are allocated
# before any edge line is read.
MAX_EDGE_LIST_N = 1 << 20


def from_graph6(text: str) -> Graph:
    """Decode one short-form graph6 string."""
    if text.startswith(HEADER_LINE):
        text = text[len(HEADER_LINE):]
    text = text.strip()
    if not text:
        raise MalformedHeaderError("empty graph6 string")
    first = ord(text[0])
    if first == 126:
        raise UnsupportedOrderError("long-form graph6 (n > 62) not supported")
    if not 63 <= first <= 125:
        raise MalformedHeaderError(f"bad order byte {text[0]!r}")
    n = first - 63
    nbits = n * (n - 1) // 2
    ngroups = (nbits + 5) // 6
    body = text[1:]
    if len(body) < ngroups:
        raise TruncatedBodyError(f"need {ngroups} body bytes, got {len(body)}")
    if len(body) > ngroups:
        raise MalformedHeaderError(f"{len(body) - ngroups} trailing bytes")
    bitstream = 0
    for ch in body:
        code = ord(ch) - 63
        if not 0 <= code <= 63:
            raise MalformedHeaderError(f"bad body byte {ch!r}")
        bitstream = (bitstream << 6) | code
    pad = 6 * ngroups - nbits
    if pad and bitstream & ((1 << pad) - 1):
        raise BadPaddingError("nonzero padding bits")
    bitstream >>= pad
    edges = []
    k = nbits - 1
    for v in range(n):
        for u in range(v):
            if bitstream >> k & 1:
                edges.append((u, v))
            k -= 1
    return from_edges(n, edges)


def to_graph6(g: Graph) -> str:
    """Encode a graph (n <= 62) in short form."""
    if g.n > MAX_GRAPH6_N:
        raise UnsupportedOrderError(
            f"n = {g.n} exceeds the short-form cap {MAX_GRAPH6_N}")
    return mask_to_graph6(g.n, to_edge_mask(g))


def mask_to_graph6(n: int, mask: int) -> str:
    """Short-form graph6 of ``from_edge_mask(n, mask)`` without building it."""
    if not 0 <= n <= MAX_GRAPH6_N:
        raise UnsupportedOrderError(f"n = {n} outside the short-form range")
    nbits = n * (n - 1) // 2
    if not 0 <= mask < 1 << nbits:
        raise ValueError(f"mask {mask} has bits beyond the {nbits} edges")
    return masks_to_graph6(n, [mask])[0]


# Body byte of each 6-bit group value: its bits reversed, plus 63.
_BODY_BYTES = np.array([int(f"{c:06b}"[::-1], 2) + 63 for c in range(64)],
                       dtype=np.uint8)


def masks_to_graph6(n: int, masks) -> list[str]:
    """``mask_to_graph6`` of each of a sequence or an integer array of edge
    masks of order n, each in [0, 2^(n(n-1)/2)).

    Bit k of a mask is edge k of ``edge_order``, which is also the k-th bit
    of the graph6 body, so body byte i is the table byte of the mask's bits
    6i..6i+5, read low to high: one gather for all the masks, then one byte
    string per mask. Masks of up to 63 bits (n <= 11) are int64, and
    longer ones Python ints.
    """
    if not 0 <= n <= MAX_GRAPH6_N:
        raise UnsupportedOrderError(f"n = {n} outside the short-form range")
    nbits = n * (n - 1) // 2
    width = 1 + (nbits + 5) // 6
    words = np.asarray(masks, dtype=np.int64 if nbits <= 63 else object)
    if len(words) and ((words < 0) | (words >> nbits != 0)).any():
        raise ValueError(f"a mask has bits beyond the {nbits} edges")
    codes = np.empty((len(words), width), dtype=np.uint8)
    codes[:, 0] = n + 63
    groups = (words[:, None] >> 6 * np.arange(width - 1)) & 63
    codes[:, 1:] = _BODY_BYTES[groups.astype(np.intp)]
    return codes.view(f"S{width}")[:, 0].astype(str).tolist()


def read_graph6_lines(text: str) -> list[Graph]:
    """Decode one graph per nonempty line, skipping format-header lines."""
    graphs = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith(HEADER_LINE):
            line = line[len(HEADER_LINE):].strip()
            if not line:
                continue
        graphs.append(from_graph6(line))
    return graphs


def from_edge_list(text: str) -> Graph:
    """Parse the plain text format: an "n m" header then m "u v" lines, one
    per edge of a simple graph on the vertices 0..n-1; anything else raises
    ``EdgeListFormatError``."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise EdgeListFormatError("empty edge list")
    head = lines[0].split()
    if len(head) != 2:
        raise EdgeListFormatError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise EdgeListFormatError(f"non-integer header {lines[0]!r}") from exc
    if not 0 <= n <= MAX_EDGE_LIST_N:
        raise EdgeListFormatError(
            f"order {n} outside 0..{MAX_EDGE_LIST_N}, the edge-list cap")
    if len(lines) - 1 != m:
        raise EdgeListFormatError(f"expected {m} edge lines, got {len(lines) - 1}")
    edges = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise EdgeListFormatError(f"bad edge line {ln!r}")
        try:
            u, v = sorted((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise EdgeListFormatError(f"non-integer edge line {ln!r}") from exc
        if not 0 <= u < v < n or (u, v) in edges:
            raise EdgeListFormatError(f"edge line {ln!r} is a loop, a repeated "
                                      f"edge or outside 0..{n - 1}")
        edges.add((u, v))
    return from_edges(n, edges)


def to_edge_list(g: Graph) -> str:
    """Inverse of ``from_edge_list`` (edges in increasing order)."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines)


def graph_text(g: Graph) -> tuple[str, str]:
    """(format, text) pair: graph6 up to n = 62, edge list beyond."""
    if g.n <= MAX_GRAPH6_N:
        return ("graph6", to_graph6(g))
    return ("edgelist", to_edge_list(g))
