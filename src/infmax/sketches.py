"""Combined bottom-k reachability sketches over a pool of simulations.

Every ``(node u, simulation i)`` pair receives an exponential rank with
rate ``w(u)`` (rate 1 for unit weights), drawn from a keyed stream so the
same pair always ranks identically.  The sketch of node ``v`` keeps the
``k`` smallest ranks among pairs whose node is reachable from ``v``
within ``tau`` steps in that pair's simulation.  Seed-set queries merge
the per-node sketches: when the merge is smaller than ``k`` nothing was
truncated and the pool-average reachability value is recovered exactly;
otherwise the total pair weight is estimated by ``(k - 1) / rank_k``,
whose coefficient of variation is about ``1 / sqrt(k - 2)``.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .graph import as_seed_tuple
# reverse_reach_set and sample_pool are no longer called here; they stay
# module attributes because perfbench/layers.py wraps them at this site.
from .models import (DiffusionModel, pack_rows, reverse_reach_set, sample_pool,
                     set_reaches)
from .estimators import count_pool_averages
from . import rng

MIN_SKETCH_SIZE = 3
# Words per gather of a sketch build's rank-prefix scan: 2^16 uint64, 512 kB.
_SCAN_CELLS = 1 << 16


@dataclass(frozen=True, eq=False)
class NodeSketch:
    """Up to ``k`` smallest ranks among one node's reachable pairs.  Two
    sketches are equal when every field is, the arrays element by element."""
    k: int
    ranks: np.ndarray
    pair_nodes: np.ndarray
    pair_sims: np.ndarray
    node: int | None = None

    @property
    def size(self) -> int:
        return int(self.ranks.shape[0])

    def __eq__(self, other):
        if not isinstance(other, NodeSketch):
            return NotImplemented
        return (self.k == other.k and self.node == other.node
                and np.array_equal(self.ranks, other.ranks)
                and np.array_equal(self.pair_nodes, other.pair_nodes)
                and np.array_equal(self.pair_sims, other.pair_sims))


@dataclass(frozen=True, eq=False)
class SketchSet:
    """Per-node sketches built from one pool of simulations, stored flat:
    node ``v``'s entries, in increasing ``(rank, node, sim)`` order, are
    ``ranks``, ``pair_nodes`` and ``pair_sims`` at ``[start[v], start[v +
    1])``, with ``start`` the ``n + 1`` offsets.  :attr:`sketches` reads
    them as one :class:`NodeSketch` per node."""
    k: int
    tau: int
    ell: int
    rank_seed: int
    node_weights: np.ndarray
    start: np.ndarray
    ranks: np.ndarray
    pair_nodes: np.ndarray
    pair_sims: np.ndarray

    @property
    def sketches(self) -> NodeSketches:
        return NodeSketches(self)


class NodeSketches(Sequence):
    """Read-only sequence view of a :class:`SketchSet`: item ``v`` (negative
    indices count from the end) is node ``v``'s :class:`NodeSketch` over
    slices of the set's flat arrays.  It equals the tuple of its items."""
    __slots__ = ("_set",)

    def __init__(self, sketch_set: SketchSet):
        self._set = sketch_set

    def __len__(self) -> int:
        return self._set.start.shape[0] - 1

    def __getitem__(self, v) -> NodeSketch:
        n, v = len(self), operator.index(v)
        if not -n <= v < n:
            raise IndexError("node sketch index out of range")
        v %= n
        s = self._set
        a, z = s.start[v], s.start[v + 1]
        return NodeSketch(s.k, s.ranks[a:z], s.pair_nodes[a:z], s.pair_sims[a:z], node=v)

    def __eq__(self, other):
        if isinstance(other, NodeSketches):
            other = tuple(other)
        return tuple(self) == other


def pair_ranks(rank_seed: int, ell: int, node_weights: np.ndarray) -> np.ndarray:
    """Rank matrix: ``ranks[i, u] ~ Exp(w(u))``; infinite for weight zero."""
    n = node_weights.shape[0]
    u = rng.uniforms(rank_seed, rng.STREAM_RANKS, 0, ell * n).reshape(ell, n)
    with np.errstate(divide="ignore"):
        return -np.log1p(-u) / node_weights


def _gathers(rows: int, lo: int, hi: int):
    """Split ``rows`` rows x rank positions ``[lo, hi)`` into gathers of at
    most ``_SCAN_CELLS`` cells, each a (row slice, first, stop) triple; each
    row meets its positions in increasing order."""
    span = min(hi - lo, _SCAN_CELLS)
    per = max(1, _SCAN_CELLS // span)
    for r in range(0, rows, per):
        for a in range(lo, hi, span):
            yield slice(r, r + per), a, min(a + span, hi)


def _first_hits(words: np.ndarray, cells: np.ndarray, bits: np.ndarray,
                count: np.ndarray, k: int) -> np.ndarray:
    """Rank positions of each row's first ``min(count[j], k)`` hits, row by
    row and in rank order within a row.

    Rank position ``f`` hits row ``j`` of the ``(b, cells)`` reach words when
    bit ``bits[f]`` of ``words[j, cells[f]]`` is set, and row ``j`` has
    ``count[j]`` hits.  The rows scan a rank prefix sized so that the
    sparsest row with more than ``k`` hits expects ``2 k`` hits in it (the
    whole order when no row has more), take hits up to their remaining
    need, and continue over a prefix twice as long until every row is full.
    Each prefix copies the rows that are not yet full once, at most the
    size of ``words``, and gathers from that copy.
    """
    total = cells.size
    left = np.minimum(count, k)
    active = np.flatnonzero(left)
    dense = count > k
    lo, hi = 0, total
    if dense.any():
        hi = min(total, -(-2 * k * total // int(count[dense].min())))
    rows, picks = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    while active.size:
        block = words[active]
        for s, a, z in _gathers(active.size, lo, hi):
            r = active[s]
            got = block[s][:, cells[a:z]]
            got &= bits[a:z]
            hit = np.flatnonzero(got != 0)
            # Hits come row by row: row i's are hit[starts[i]:starts[i + 1]].
            starts = np.searchsorted(hit, np.arange(r.size + 1) * (z - a))
            found = np.diff(starts)
            j = np.repeat(np.arange(r.size), found)
            # Keep each row's first left[r] hits.
            take = np.arange(hit.size) - starts[j] < left[r][j]
            rows.append(r[j[take]])
            picks.append(hit[take] - j[take] * (z - a) + a)
            left[r] -= found
        active = active[left[active] > 0]
        lo, hi = hi, min(total, 2 * hi)
    return np.concatenate(picks)[np.argsort(np.concatenate(rows), kind="stable")]


def build_sketches(model: DiffusionModel, pool, tau: int, k: int,
                   rank_seed: int) -> SketchSet:
    """Sketch every node against one pool of simulations.

    ``pool`` is a ``(ell, m)`` boolean live matrix.  Node ``v``'s sketch holds
    the first ``k`` pairs ``(u, i)``, in increasing ``(rank, node, sim)``
    order and with finite rank, such that ``u`` is reachable from ``v``
    within ``tau`` steps of simulation ``i``.  The reachable pairs come from
    the pool's single-source reaches, packed once and propagated a block of
    sources at a time, each source a set of one (:func:`set_reaches` over
    ``np.arange(n)[:, None]``).  Each block is scanned for
    all of its sources together: a popcount of a source's finite-rank reach
    bits counts its pairs, and the sources read doubling prefixes of the
    rank order, the first sized for ``2 k`` pairs of the sparsest source
    with more than ``k``, until each holds ``min(k, pairs)``.  No gather
    exceeds ``_SCAN_CELLS`` words (512 kB), and each prefix copies the
    block's unfilled sources once.  The picks of all blocks, in node order,
    are the set's flat arrays, and each node's pair count gives its offsets
    in :attr:`SketchSet.start`; no per-node object is built.
    """
    if k < MIN_SKETCH_SIZE:
        raise ValueError(f"sketch size must be at least {MIN_SKETCH_SIZE}")
    g = model.graph
    m = g.num_edges
    live = np.asarray(pool, dtype=bool)
    if live.ndim != 2 or live.shape[1] != m:
        raise ValueError(f"pool must be a (simulations, {m}) live matrix")
    ell = live.shape[0]
    if ell < 1:
        raise ValueError("pool must contain at least one simulation")
    ranks = pair_ranks(rank_seed, ell, g.node_weights)
    # Rank order with (node, sim) tie-break; pairs of infinite rank are
    # never kept.  Pairs are numbered node-major, so a stable sort breaks
    # ties by number.  Ties are rare, and a stable sort of 10,000 ranks
    # takes about 0.8 ms more than a plain one, so it runs only when the
    # plain sort finds a tie.
    flat = ranks.T.reshape(-1)
    finite_pairs = np.flatnonzero(np.isfinite(flat))
    order = finite_pairs[np.argsort(flat[finite_pairs])]
    ranks_o = flat[order]
    if (ranks_o[1:] == ranks_o[:-1]).any():
        order = finite_pairs[np.argsort(flat[finite_pairs], kind="stable")]
        ranks_o = flat[order]
    nodes_o, sims_o = np.divmod(order, ell)
    # Pair f of the rank order is bit bits[f] of cell cells[f] of a source's
    # (n, width) reach words.  The finite-rank bits leave out the padding of
    # a partial last word, which a source's own row sets.
    cells = nodes_o * -(-ell // 64) + (sims_o >> 6)
    bits = np.left_shift(np.uint64(1), (sims_o & 63).astype(np.uint64))
    finite_bits = pack_rows(np.isfinite(ranks))
    k_scan = min(k, order.size)
    counts, picks = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for reach in set_reaches(g, pack_rows(live), tau, np.arange(g.num_nodes)[:, None]):
        count = np.bitwise_count(reach & finite_bits).sum(axis=(1, 2), dtype=np.int64)
        picks.append(_first_hits(reach.reshape(reach.shape[0], -1), cells, bits,
                                 count, k_scan))
        counts.append(count)
    picks = np.concatenate(picks)
    start = np.zeros(g.num_nodes + 1, dtype=np.int64)
    np.cumsum(np.minimum(np.concatenate(counts), k_scan), out=start[1:])
    return SketchSet(k, int(tau), ell, int(rank_seed), g.node_weights, start,
                     ranks_o[picks], nodes_o[picks], sims_o[picks])


def _bottom_k(k: int, ranks: np.ndarray, nodes: np.ndarray, sims: np.ndarray) -> NodeSketch:
    """Bottom-k of the union of size-``k`` sketches' concatenated entries,
    sorted once."""
    order = np.lexsort((sims, nodes, ranks))
    ranks, nodes, sims = ranks[order], nodes[order], sims[order]
    # Duplicate pairs are adjacent in this order and collapse to one entry.
    keep = np.ones(ranks.size, dtype=bool)
    keep[1:] = (nodes[1:] != nodes[:-1]) | (sims[1:] != sims[:-1])
    ranks, nodes, sims = ranks[keep], nodes[keep], sims[keep]
    return NodeSketch(k, ranks[:k], nodes[:k], sims[:k])


def merge_sketches(a: NodeSketch, b: NodeSketch) -> NodeSketch:
    """Bottom-k of the union; duplicate pairs collapse to one entry."""
    if a.k != b.k:
        raise ValueError("cannot merge sketches of different sizes")
    return _bottom_k(a.k, np.concatenate((a.ranks, b.ranks)),
                     np.concatenate((a.pair_nodes, b.pair_nodes)),
                     np.concatenate((a.pair_sims, b.pair_sims)))


def merged_seed_sketch(sketches: SketchSet, seeds) -> NodeSketch:
    """Bottom-k of the seeds' merged sketches; one seed keeps its own."""
    seeds = as_seed_tuple(len(sketches.sketches), seeds)
    if len(seeds) == 1:
        return sketches.sketches[seeds[0]]
    cuts = [slice(sketches.start[v], sketches.start[v + 1]) for v in seeds]
    return _bottom_k(sketches.k, *(np.concatenate([flat[c] for c in cuts])
                                   for flat in (sketches.ranks, sketches.pair_nodes,
                                                sketches.pair_sims)))


def sketch_query(sketches: SketchSet, seeds, ell: int) -> float:
    """Averaging-oracle estimate of a seed set from its merged sketches."""
    if int(ell) != sketches.ell:
        raise ValueError("ell must match the pool size used at build time")
    merged = merged_seed_sketch(sketches, seeds)
    if merged.size < sketches.k:
        # Nothing was truncated: the pairs are the exact reachable pairs, and
        # they are unique, so a node's pair count is its activation count.
        # count_pool_averages adds the weighted counts in node order, as the
        # plain averaging oracle does (its one pool is a lone output, which
        # node_weighted_sums pads), so the value matches it bit for bit.
        counts = np.bincount(merged.pair_nodes, minlength=sketches.node_weights.shape[0])
        return float(count_pool_averages(counts[None, :], sketches.node_weights,
                                         sketches.ell)[0])
    total_weight = (sketches.k - 1) / float(merged.ranks[sketches.k - 1])
    return total_weight / sketches.ell

