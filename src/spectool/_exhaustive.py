"""Batched numpy engine for exhaustive labeled sweeps on small orders.

Graphs are edge bitmasks; blocks of a few thousand are expanded into stacked
adjacency matrices for batched LAPACK (one solve per distinct characteristic
polynomial in the block) and exact int64 walk counts, and into
bitset rows for the structural facts (connectivity, bipartiteness, diameter,
peeling cores). Semantics (thresholds, formulas, epsilons) mirror the
per-graph checkers exactly; graphs needing combinatorial confirmation
(extremal classification, cycle search, actual violations) or whose
eigenvalues fail the trace certificate are handed back to the caller as
masks.
"""

from functools import lru_cache
import itertools
import math

import numpy as np

from .errors import OrderTooLargeError
from .spectrum import CLUSTER_EPS, EQ_EPS

BLOCK = 4096
# Matrices per batch of the power-sum key, so its matrix powers stay small
# beside the block.
KEY_CHUNK = 512
# A vertex's neighbourhood is one byte, so a graph's n rows fit a 64-bit word.
MAX_EXHAUSTIVE_N = 8
# Bound on |sum lambda^k - trace(A^k)| for k = 1, 2, 3 (0, 2m and 6 triangles).
TRACE_EPS = 1e-6

WALK_THEOREMS = frozenset({"walk-inequality", "decomposition-identity"})

_POPCOUNT = np.array([bin(x).count("1") for x in range(256)], dtype=np.int64)
_LOW_BITS = np.uint64(0x0101010101010101)  # bit 0 of every byte


@lru_cache(maxsize=None)
def _tables(n: int):
    pairs = [(u, v) for v in range(n) for u in range(v)]
    index = {pair: e for e, pair in enumerate(pairs)}
    u_idx = np.array([u for u, _ in pairs], dtype=np.intp)
    v_idx = np.array([v for _, v in pairs], dtype=np.intp)
    triple_masks = np.array([
        (1 << index[(i, j)]) | (1 << index[(i, k)]) | (1 << index[(j, k)])
        for i, j, k in itertools.combinations(range(n), 3)
    ], dtype=np.int64)
    return u_idx, v_idx, triple_masks


def walks_exact(n: int, K: int) -> bool:
    """Whether int64 holds every walk quantity of an n-vertex graph up to
    length K exactly.

    w_k(i) <= (n-1)^k, so totals, the decomposition sums and the walk
    inequality's right side max_closed * w_{k-2} (max_closed <= n(n-1)) all
    stay at or below n^2 (n-1)^K.
    """
    return n * n * (n - 1) ** K < 2 ** 63


def adjacency(n: int, masks: np.ndarray) -> np.ndarray:
    """The (b, n, n) uint8 adjacency matrices of a block of edge masks."""
    u_idx, v_idx, _ = _tables(n)
    bits = (masks[:, None] >> np.arange(len(u_idx), dtype=np.int64)) & 1
    adj = np.zeros((len(masks), n, n), dtype=np.uint8)
    adj[:, u_idx, v_idx] = bits
    adj[:, v_idx, u_idx] = bits
    return adj


def block_stats(n: int, masks: np.ndarray, want_bip: bool = False,
                want_diam: bool = False, walk_depth: int | None = None) -> dict:
    """Vectorized per-graph quantities for a block of edge masks.

    ``certified`` flags the graphs whose eigenvalues meet the exact trace
    identities sum(lambda) = 0, sum(lambda^2) = 2m and sum(lambda^3) =
    6 * triangles within ``TRACE_EPS``. A ``walk_depth`` adds the walk
    inequality and decomposition identity verdicts at that depth.
    """
    if n > MAX_EXHAUSTIVE_N:
        raise OrderTooLargeError(
            f"batch engine capped at n = {MAX_EXHAUSTIVE_N}")
    _, _, triple_masks = _tables(n)
    b = len(masks)
    adj = adjacency(n, masks)
    # rows[:, v] has bit u set iff u ~ v; distinct powers of two sum to at
    # most 255, so the uint8 product is exact.
    rows = adj @ (np.uint8(1) << np.arange(n, dtype=np.uint8))
    degrees = _POPCOUNT[rows]
    m = degrees.sum(axis=1) // 2
    a = adj.astype(np.float64)
    ev = _spectra(a)  # ascending
    tri = np.zeros(b, dtype=np.int64)
    for tm in triple_masks:
        tri += (masks & tm) == tm
    ev2 = ev * ev
    sum_cubes = (ev2 * ev).sum(axis=1)
    open_sums = np.einsum("bij,bj->bi", a, degrees.astype(np.float64))
    max_closed = (open_sums + degrees).max(axis=1).astype(np.int64)
    out = {
        "masks": masks,
        "m": m,
        "min_deg": degrees.min(axis=1),
        "degrees": degrees,
        "rows": rows,
        "ev": ev,
        "lam1": ev[:, -1],
        "sum_cubes": sum_cubes,
        "tri": tri,
        "max_open": open_sums.max(axis=1).astype(np.int64),
        "max_closed": max_closed,
        "certified": (np.abs(ev.sum(axis=1)) <= TRACE_EPS)
        & (np.abs(ev2.sum(axis=1) - 2 * m) <= TRACE_EPS)
        & (np.abs(sum_cubes - 6 * tri) <= TRACE_EPS),
    }
    connected, bipartite, diameter = _walk_facts(n, rows, want_bip)
    out["connected"] = connected
    if want_bip:
        out["bipartite"] = bipartite
        out["symmetric"] = np.abs(ev + ev[:, ::-1]).max(axis=1) <= CLUSTER_EPS
    if want_diam:
        out["diameter"] = diameter
        out["distinct"] = (np.diff(ev, axis=1) > CLUSTER_EPS).sum(axis=1) + 1
    if walk_depth is not None:
        out["walk_inequality"], out["decomposition"] = _walk_checks(
            adj, open_sums.astype(np.int64), max_closed, walk_depth)
    return out


def power_sums(a: np.ndarray) -> np.ndarray:
    """The power sums trace(A^k), k = 2..n, of a (b, n, n) float64 block of
    adjacency matrices, as a (b, n - 1) array.

    trace(A^k) is the sum of A^i * A^(k-i) entrywise with i = k // 2, so
    only powers up to ceil(n/2) are formed. Every entry of A^k is at most
    (n-1)^k and every partial sum at most n(n-1)^k <= 8 * 7^8 < 2^53, so
    float64 holds them all exactly.
    """
    n = a.shape[1]
    powers = {1: a}
    for i in range(2, (n + 1) // 2 + 1):
        powers[i] = np.matmul(powers[i - 1], a)
    return np.stack([np.einsum("bij,bij->b", powers[k // 2],
                               powers[k - k // 2])
                     for k in range(2, n + 1)], axis=1)


def _spectra(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a block, from one ``eigvalsh`` per distinct
    characteristic polynomial.

    By Newton's identities the power sums trace(A^k), k = 1..n, fix the
    characteristic polynomial, and trace(A) = 0; so graphs with equal
    ``power_sums`` rows share their spectrum, and each gets the spectrum of
    the first graph in the block with its row.
    """
    b, n = a.shape[:2]
    if n < 2 or b == 0:
        return np.linalg.eigvalsh(a)
    keys = np.concatenate([power_sums(a[lo:lo + KEY_CHUNK])
                           for lo in range(0, b, KEY_CHUNK)])
    order = np.lexsort(keys.T)
    ranked = keys[order]
    first = np.ones(b, dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    group = np.empty(b, dtype=np.intp)
    group[order] = np.cumsum(first) - 1
    return np.linalg.eigvalsh(a[order[first]])[group]


def walk_levels(adj: np.ndarray, K: int) -> list[np.ndarray]:
    """Per-vertex walk counts W_0..W_K of a block, each a (b, n) int64 array.

    W_0 is all ones and W_k = A W_{k-1} is one batched int64 product.
    """
    n = adj.shape[1]
    if not walks_exact(n, K):
        raise OrderTooLargeError(
            f"int64 walk counts are not exact at n = {n}, K = {K}")
    a = adj.astype(np.int64)
    levels = [np.ones(adj.shape[:2], dtype=np.int64)]
    for _ in range(K):
        levels.append(np.matmul(a, levels[-1][:, :, None])[:, :, 0])
    return levels


def _walk_checks(adj: np.ndarray, open_sums: np.ndarray,
                 max_closed: np.ndarray, walk_depth: int):
    """Walk inequality and decomposition identity, as the per-graph
    ``walk_inequality_holds`` and ``decomposition_identity_check`` decide
    them on a walk table of depth K = max(2, walk_depth).

    The inequality w_k + w_{k-1} <= max_closed * w_{k-2} is checked for k
    in 2..walk_depth with w_{k-2} > 0; the identity needs W_2 to equal the
    open neighbourhood sums and w_k = sum_i W_{k-2}(i) W_2(i) for k in 2..K.
    """
    levels = walk_levels(adj, max(2, walk_depth))
    totals = [level.sum(axis=1) for level in levels]
    inequality = np.ones(len(adj), dtype=bool)
    for k in range(2, walk_depth + 1):
        inequality &= (totals[k - 2] <= 0) | (
            totals[k] + totals[k - 1] <= max_closed * totals[k - 2])
    w2 = levels[2]
    decomposition = (w2 == open_sums).all(axis=1)
    for k in range(2, len(levels)):
        decomposition &= totals[k] == (levels[k - 2] * w2).sum(axis=1)
    return inequality, decomposition


def peel_survivors(rows: np.ndarray, k: int) -> np.ndarray:
    """Vertex bitmask of each graph's (k+1)-core, which is the survivor set
    of ``cycles.erdos_peel(g, k)``.

    Each round deletes every surviving vertex with at most k surviving
    neighbours. The survivors contain the core, so such a vertex has at most
    k neighbours in it and lies outside it; the rounds therefore stop at the
    core, whatever order the per-graph peel deletes in. Every round but the
    last deletes a vertex, so n rounds suffice.
    """
    n = rows.shape[1]
    weights = np.uint8(1) << np.arange(n, dtype=np.uint8)
    alive = np.full(len(rows), (1 << n) - 1, dtype=np.uint8)
    for _ in range(n):
        low = _POPCOUNT[rows & alive[:, None]] <= k
        drop = (low * weights).sum(axis=1, dtype=np.uint8) & alive
        if not drop.any():
            break
        alive &= ~drop
    return alive


def _walk_facts(n: int, rows: np.ndarray, want_bip: bool):
    """Connectivity, bipartiteness and diameter from exact-length walk sets.

    W_k[v] is the set of ends of walks of length k from v: W_0[v] = {v} and
    W_k[v] is the OR of rows[u] over u in W_{k-1}[v]. Each graph keeps its
    n walk sets in one 64-bit word, W_k[v] in bits 8v..8v+7, so a round is
    n vectorised ORs over the block: for each u, row u is copied into every
    byte and kept in the bytes whose walk set holds u.

    The graph is connected iff the walks of length < n from vertex 0 reach
    every vertex, and bipartite iff no odd k <= n has v in W_k[v]. The
    diameter is the number of k in 0..n-1 at which some ball of radius k is
    not the whole vertex set: the first k at which all balls are whole, 0
    for n = 1 and n for disconnected graphs. ``bipartite`` is None unless
    ``want_bip``, since the odd rounds up to n are only run then.
    """
    b = len(rows)
    full = (1 << n) - 1
    diag = np.uint64(sum(1 << (9 * v) for v in range(n)))  # v in byte v
    all_full = np.uint64(sum(full << (8 * v) for v in range(n)))
    spread = [rows[:, u].astype(np.uint64) * _LOW_BITS for u in range(n)]
    walk = np.full(b, diag, dtype=np.uint64)
    seen = np.zeros(b, dtype=np.uint64)
    diameter = np.zeros(b, dtype=np.int64)
    odd_closed = np.zeros(b, dtype=bool)
    for k in range(n + 1 if want_bip else n):
        if k:
            step = np.zeros(b, dtype=np.uint64)
            for u in range(n):
                holds_u = ((walk >> np.uint64(u)) & _LOW_BITS) * np.uint64(0xFF)
                step |= spread[u] & holds_u
            walk = step
        if k < n:
            seen |= walk
            diameter += seen != all_full
        if k % 2:
            odd_closed |= (walk & diag) != 0
    connected = (seen & np.uint64(0xFF)) == np.uint64(full)
    return connected, (~odd_closed if want_bip else None), diameter


def _bound_arrays(stats: dict, n: int) -> dict:
    m = stats["m"].astype(np.float64)
    delta = stats["min_deg"].astype(np.float64)
    values = {
        "stanley": -0.5 + np.sqrt(2 * m + 0.25),
        "lemma3": np.sqrt(stats["max_open"].astype(np.float64)),
        "thm11": (-1 + np.sqrt(1 + 4 * stats["max_closed"].astype(np.float64))) / 2,
        "hsf": (delta - 1) / 2 + np.sqrt(2 * m - n * delta + (delta + 1) ** 2 / 4),
    }
    with np.errstate(invalid="ignore"):
        values["hong"] = np.sqrt(np.maximum(2 * m - n + 1, 0.0))
    return values


def sweep_range(n: int, start: int, stop: int, theorems: set,
                connected_only: bool, walk_depth: int) -> dict:
    """Tally theorems over masks [start, stop).

    Returns counts, tight-census masks per bound, and ``resolve`` masks that
    the caller must re-check per graph (extremal confirmations, Bondy's
    cycle search, violations, graphs that fail the trace certificate).
    """
    counts = {t: {"holds": 0, "vacuous": 0, "violated": 0, "inconclusive": 0}
              for t in theorems}
    tight: dict = {b: [] for b in ("stanley", "hong", "hsf", "lemma3", "thm11")
                   if b in theorems}
    resolve: dict = {}
    want_bip = "lemma1-spectrum-symmetry" in theorems
    want_diam = "lemma2-diameter-distinct" in theorems
    depth = walk_depth if WALK_THEOREMS & theorems else None
    for lo in range(start, stop, BLOCK):
        masks = np.arange(lo, min(lo + BLOCK, stop), dtype=np.int64)
        stats = block_stats(n, masks, want_bip, want_diam, depth)
        if connected_only:
            stats = _select(stats, stats["connected"])
        _tally_block(n, stats, theorems, counts, tight, resolve)
    return {"counts": counts, "tight": tight, "resolve": resolve}


def _select(stats: dict, keep: np.ndarray) -> dict:
    """The per-graph entries of ``stats`` for the graphs ``keep`` marks."""
    if keep.all():
        return stats
    return {key: value[keep] for key, value in stats.items()}


def _collect(resolve: dict, theorem: str, masks: np.ndarray) -> None:
    if len(masks):
        resolve.setdefault(theorem, []).extend(int(x) for x in masks)


def _tally_block(n: int, stats: dict, theorems: set, counts: dict,
                 tight: dict, resolve: dict) -> None:
    # A graph whose eigenvalues fail the trace certificate gets every
    # requested theorem from the per-graph reference checker instead.
    certified = stats["certified"]
    uncertified = stats["masks"][~certified]
    for theorem in theorems:
        _collect(resolve, theorem, uncertified)
    stats = _select(stats, certified)
    masks = stats["masks"]
    m = stats["m"]
    lam1 = stats["lam1"]
    tri = stats["tri"]
    sqrt_m = np.sqrt(m.astype(np.float64))
    bounds = _bound_arrays(stats, n)

    if "mantel" in theorems:
        nonvac = 4 * m > n * n
        holds = nonvac & (tri > 0)
        bad = nonvac & (tri == 0)
        _bump(counts["mantel"], nonvac, holds)
        _collect(resolve, "mantel", masks[bad])
    if "nosal" in theorems:
        nonvac = lam1 > sqrt_m + EQ_EPS
        holds = nonvac & (tri > 0)
        bad = nonvac & (tri == 0)
        _bump(counts["nosal"], nonvac, holds)
        _collect(resolve, "nosal", masks[bad])
    if "spectral-mantel" in theorems:
        nonvac = ~(lam1 < sqrt_m - EQ_EPS)
        holds = nonvac & (tri > 0)
        undecided = nonvac & (tri == 0)
        counts["spectral-mantel"]["vacuous"] += int((~nonvac).sum())
        counts["spectral-mantel"]["holds"] += int(holds.sum())
        _collect(resolve, "spectral-mantel", masks[undecided])
    for bound in ("stanley", "hsf", "lemma3", "thm11"):
        if bound in theorems:
            slack = bounds[bound] - lam1
            holds = slack >= -EQ_EPS
            counts[bound]["holds"] += int(holds.sum())
            _collect(resolve, bound, masks[~holds])
            tight[bound].extend(int(x) for x in masks[np.abs(slack) <= EQ_EPS])
    if "hong" in theorems:
        applicable = stats["min_deg"] >= 1
        slack = bounds["hong"] - lam1
        holds = applicable & (slack >= -EQ_EPS)
        counts["hong"]["vacuous"] += int((~applicable).sum())
        counts["hong"]["holds"] += int(holds.sum())
        _collect(resolve, "hong", masks[applicable & ~holds])
        tight["hong"].extend(
            int(x) for x in masks[applicable & (np.abs(slack) <= EQ_EPS)])
    if "lemma1-spectrum-symmetry" in theorems:
        agree = stats["symmetric"] == stats["bipartite"]
        counts["lemma1-spectrum-symmetry"]["holds"] += int(agree.sum())
        _collect(resolve, "lemma1-spectrum-symmetry", masks[~agree])
    if "lemma2-diameter-distinct" in theorems:
        conn = stats["connected"]
        ok = conn & (stats["distinct"] >= stats["diameter"] + 1)
        counts["lemma2-diameter-distinct"]["vacuous"] += int((~conn).sum())
        counts["lemma2-diameter-distinct"]["holds"] += int(ok.sum())
        _collect(resolve, "lemma2-diameter-distinct", masks[conn & ~ok])
    if "walk-inequality" in theorems:
        nonvac = m > 0
        holds = nonvac & stats["walk_inequality"]
        _bump(counts["walk-inequality"], nonvac, holds)
        _collect(resolve, "walk-inequality", masks[nonvac & ~holds])
    if "decomposition-identity" in theorems:
        holds = stats["decomposition"]
        counts["decomposition-identity"]["holds"] += int(holds.sum())
        _collect(resolve, "decomposition-identity", masks[~holds])
    if "lemma5-peel" in theorems:
        nonvac = m >= n
        holds = nonvac.copy()
        for k in (1, 2, 3):
            applies = m >= k * n
            if applies.any():
                holds &= ~applies | (peel_survivors(stats["rows"], k) != 0)
        _bump(counts["lemma5-peel"], nonvac, holds)
        _collect(resolve, "lemma5-peel", masks[nonvac & ~holds])
    if "lemma6-bondy" in theorems:
        # Above the degree threshold the cycle search stays per graph.
        nonvac = 2 * stats["min_deg"] > n
        counts["lemma6-bondy"]["vacuous"] += int((~nonvac).sum())
        _collect(resolve, "lemma6-bondy", masks[nonvac])
    if "thm7-even-cycles" in theorems:
        # No even length lies in [4, ceil(n/28)] at these orders.
        if math.ceil(n / 28) >= 4:
            raise OrderTooLargeError(
                f"thm7-even-cycles is not vacuous at n = {n}")
        counts["thm7-even-cycles"]["vacuous"] += len(masks)


def _bump(slot: dict, nonvac: np.ndarray, holds: np.ndarray) -> None:
    slot["vacuous"] += int((~nonvac).sum())
    slot["holds"] += int(holds.sum())


def audit_range(n: int, start: int, stop: int) -> dict:
    """Identity-and-tightness audit over masks [start, stop).

    Collects everything the exhaustive acceptance criteria consume: the
    graphs whose eigenvalues fail the trace certificate, the triangle trace
    identity, spectral Mantel candidates, bound slack violations,
    tightness-vs-degree-class masks, threshold-tight connected graphs, and
    the spectrum-symmetry and diameter checks.
    """
    out = {
        "graphs": 0,
        "uncertified": [],
        "tri_mismatch": [],
        "mantel_candidates": [],
        "threshold_tight_connected": [],
        "bound_violations": {b: [] for b in
                             ("stanley", "hong", "hsf", "lemma3", "thm11")},
        "hsf_tight_not_class": [],
        "hsf_class_not_tight": [],
        "thm11_above_stanley": [],
        "lemma1_mismatch": [],
        "lemma2_violations": [],
        "tight_counts": {b: 0 for b in
                         ("stanley", "hong", "hsf", "lemma3", "thm11")},
    }
    for lo in range(start, stop, BLOCK):
        masks = np.arange(lo, min(lo + BLOCK, stop), dtype=np.int64)
        stats = block_stats(n, masks, want_bip=True, want_diam=True)
        out["graphs"] += len(masks)
        m = stats["m"]
        lam1 = stats["lam1"]
        tri = stats["tri"]
        sqrt_m = np.sqrt(m.astype(np.float64))
        bounds = _bound_arrays(stats, n)
        connected = stats["connected"]
        out["uncertified"].extend(int(x) for x in masks[~stats["certified"]])

        spectral_tri = stats["sum_cubes"] / 6.0
        mismatch = (np.abs(spectral_tri - tri) > 1e-6) \
            | (np.rint(spectral_tri).astype(np.int64) != tri)
        out["tri_mismatch"].extend(int(x) for x in masks[mismatch])

        candidates = ~(lam1 < sqrt_m - EQ_EPS) & (tri == 0)
        out["mantel_candidates"].extend(int(x) for x in masks[candidates])
        # The extremal characterization at the threshold concerns
        # triangle-free graphs; connected graphs with lambda_1 = sqrt(m)
        # AND a triangle exist (n=7, m=9, lambda_1=3) and are fine.
        tight_threshold = connected & (tri == 0) \
            & (np.abs(lam1 - sqrt_m) <= EQ_EPS)
        out["threshold_tight_connected"].extend(
            int(x) for x in masks[tight_threshold])

        applicable = {b: np.ones(len(masks), dtype=bool) for b in bounds}
        applicable["hong"] = stats["min_deg"] >= 1
        for bound, values in bounds.items():
            slack = values - lam1
            bad = applicable[bound] & (slack < -EQ_EPS)
            out["bound_violations"][bound].extend(int(x) for x in masks[bad])
            is_tight = applicable[bound] & (np.abs(slack) <= EQ_EPS)
            out["tight_counts"][bound] += int(is_tight.sum())
            if bound == "hsf":
                regular = stats["degrees"].max(axis=1) == stats["min_deg"]
                bideg = (
                    (stats["degrees"] == stats["min_deg"][:, None])
                    | (stats["degrees"] == n - 1)
                ).all(axis=1)
                in_class = regular | bideg
                out["hsf_tight_not_class"].extend(
                    int(x) for x in masks[connected & is_tight & ~in_class])
                out["hsf_class_not_tight"].extend(
                    int(x) for x in masks[connected & in_class & ~is_tight])

        above = bounds["thm11"] > bounds["stanley"] + EQ_EPS
        out["thm11_above_stanley"].extend(int(x) for x in masks[above])

        agree = stats["symmetric"] == stats["bipartite"]
        out["lemma1_mismatch"].extend(int(x) for x in masks[~agree])
        lemma2_bad = connected & (stats["distinct"] < stats["diameter"] + 1)
        out["lemma2_violations"].extend(int(x) for x in masks[lemma2_bad])
    return out


def merge_audits(parts: list[dict]) -> dict:
    merged = parts[0]
    for part in parts[1:]:
        merged["graphs"] += part["graphs"]
        for key, value in part.items():
            if isinstance(value, list):
                merged[key].extend(value)
        for bound in merged["bound_violations"]:
            merged["bound_violations"][bound].extend(
                part["bound_violations"][bound])
            merged["tight_counts"][bound] += part["tight_counts"][bound]
    return merged
