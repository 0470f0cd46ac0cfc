"""Combined bottom-k reachability sketches over a pool of simulations.

Every ``(node u, simulation i)`` pair receives an exponential rank with
rate ``w(u)`` (rate 1 for unit weights), drawn from a keyed stream so the
same pair always ranks identically.  The sketch of node ``v`` keeps the
``k`` smallest ranks among pairs whose node is reachable from ``v``
within ``tau`` steps in that pair's simulation.  Builds offer the pairs in
rank order, each through a reverse search (Cohen, Delling, Pajor and
Werneck, CIKM 2014), over a prefix of the order, one bit per position in
bit-parallel propagations over the reversed graph; only the nodes that
prefix leaves short of ``k`` are propagated forward, each from itself,
and scan the rest of the order.  Seed-set queries merge
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
from .models import (DiffusionModel, pack_rows, reach_mask_batch, reverse_reach_set,
                     sample_pool, set_reaches, start_mask)
from .estimators import count_pool_averages
from . import models, rng

MIN_SKETCH_SIZE = 3
# Words per gather of a sketch build's rank-prefix scan: 2^16 uint64, 512 kB.
_SCAN_CELLS = 1 << 16
# Bool cells per gather of a reverse pass's live rows, which pack_rows
# transposes.  Per (position, edge) cell, on a 2-core Xeon VM (numpy 2.4.6):
# 3,200 x 800 cells take 3.6 ms at once and 1.2 ms in 2^18-cell pieces,
# 2,000 x 1,000 take 2.6 and 0.94 ms, and 2,000 x 400 take 0.63 and 0.49 ms;
# 2^16, 2^17 and 2^19 cells were slower on all three.
_GATHER_CELLS = 1 << 18
# A reverse pass costs about 60-70 us of numpy calls whatever its length,
# about what gathering 2^17 bytes costs, so a later pass is made long enough
# that the forward scan bytes it saves beyond its own cover this.  Builds
# against the forward-only path on the same VM at 2^16, 2^17, 2^18 and 2^19:
# perfbench sketch_tau2 0.59, 0.45, 0.51 and 0.81 of its time;
# gen_random_ic(200, 800) at 128 simulations, tau 2, k 16: 0.51, 0.48, 0.80
# and 0.42; gen_random_ic(50, 100 or 200) at 64 simulations (k 16 at tau 1,
# k 64 at tau 2): 0.90-1.07, 0.85-1.00, 0.82-1.33 and 0.89-1.86.
_PASS_BYTES = 1 << 17


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
                count: np.ndarray, need: np.ndarray, lo: int) -> np.ndarray:
    """Rank positions of each row's first ``min(count[j], need[j])`` hits
    from position ``lo`` on, row by row and in rank order within a row.

    Rank position ``f`` hits row ``j`` of the ``(b, cells)`` reach words when
    bit ``bits[f]`` of ``words[j, cells[f]]`` is set, and row ``j`` has
    ``count[j]`` hits from ``lo`` on.  The rows scan a rank prefix sized so
    that every row with more hits than it needs expects twice its need in
    it (the rest of the order when no row has more), take hits up to their
    remaining need, and continue over a prefix twice as long, both counted
    from ``lo``, until every row is full.  Each later prefix copies the
    rows that are not yet full once, at most the size of ``words``, and
    gathers from that copy.
    """
    total, scan_start = cells.size, lo
    left = np.minimum(count, need)
    active = np.flatnonzero(left)
    dense = count > left
    hi = total
    if dense.any():
        hi = min(total, lo + int((-(-2 * left[dense] * (total - lo) // count[dense])).max()))
    rows, picks = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    while active.size:
        block = words if active.size == left.size else words[active]
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
        lo, hi = hi, min(total, 2 * hi - scan_start)
    return np.concatenate(picks)[np.argsort(np.concatenate(rows), kind="stable")]


def _reverse_hits(graph, live: np.ndarray, nodes_o: np.ndarray, sims_o: np.ndarray,
                  tau: int, k: int):
    """Each node's first ``k`` hits among a prefix of the rank order of
    ``nodes_o`` and ``sims_o``, from one reverse search per position (Cohen,
    Delling, Pajor and Werneck, CIKM 2014).

    The first pass covers ``2 k`` positions rounded up to whole words, at
    most the whole order.  For each position a pass gathers a bool live
    cell per edge and reads a hit bit per node, about ``m + n`` bytes, where
    a forward scan of the position reads one 8-byte word per source, so a
    later pass runs only while more than ``(m + n) / 8`` nodes are short of
    ``k``.  Each later pass is as long as the prefix before it, or longer,
    so that the scan bytes it saves beyond its own cover ``_PASS_BYTES``.
    A pass runs in blocks of whole words, each one propagation over
    :attr:`Graph.reversed` holding at most ``models._BLOCK_CELLS`` words x
    ``max(m, n)``, as a :func:`set_reaches` block does.  Bit ``f`` of a
    block starts at ``nodes_o[f]`` and reads the live edges of simulation
    ``sims_o[f]``, so bit ``f`` of node ``v``'s row is set when ``v``
    reaches pair ``f``.  The live words are packed ``_GATHER_CELLS`` bool
    cells at a time.  A popcount per hit word counts each node's hits, and
    only the words up to each node's last needed hit are unpacked, 64 bytes
    each; each holds a hit that is kept, and all of a node's hold at most
    63 hits past its need.  So beyond its ``(n, words)`` counts a block's
    memory grows with the hits it keeps, at most ``k`` per node, and not
    with ``n`` x positions.

    Returns the hits kept as lists of node and position arrays, one pair
    per block, each node by node and in rank order within a node; every
    node's hit count, cut at ``k``; and the end of the prefix.
    """
    n, total, m = graph.num_nodes, nodes_o.size, live.shape[1]
    block = 64 * max(1, models._BLOCK_CELLS // max(m, n, 1))
    gather = max(64, _GATHER_CELLS // max(m, 1) // 64 * 64)
    got = np.zeros(n, dtype=np.int64)
    nodes, picks = [], []
    # The first pass always runs.  Against the forward-only build, medians
    # on a 2-core Xeon VM (numpy 2.4.6), on gen_random_ic(100, 1000) at 100
    # simulations, 10 edges per node: 0.7-0.8 against 3.7-4.1 ms at tau 99
    # and k 16, 0.73 of the time at tau 2 and k 16, and 7-21% more at tau 1
    # and k 16, at tau 2 and k 64 and at tau 99 keeping every pair; on
    # fixed_outdegree_model(30, 9) at 70 simulations, 0.55 against 0.88 ms at
    # tau 29 and k 8, and 28% more at tau 1 and k 32.
    lo, hi = 0, min(total, -(-2 * k // 64) * 64)
    while lo < hi:
        for a in range(lo, hi, block):
            z = min(hi, a + block)
            words = np.concatenate([pack_rows(live[sims_o[b:min(b + gather, z)]])
                                    for b in range(a, z, gather)], axis=1)
            mask = reach_mask_batch(graph.reversed, words, start_mask(n, nodes_o[a:z]), tau)
            count = np.bitwise_count(mask)
            before = np.cumsum(count, axis=1, dtype=np.int64)
            found = before[:, -1].copy()
            before -= count
            need = k - got
            node, word = np.nonzero((count > 0) & (before < need[:, None]))
            hits = np.unpackbits(mask[node, word].view(np.uint8).reshape(-1, 8), axis=1,
                                 bitorder="little")
            hit = np.flatnonzero(hits.view(bool))
            row = hit >> 6
            node, pos = node[row], (word * 64 + a)[row] + (hit & 63)
            if (found > need).any():
                first = np.searchsorted(node, np.arange(n))
                keep = np.arange(node.size) - first[node] < need[node]
                node, pos = node[keep], pos[keep]
            nodes.append(node)
            picks.append(pos)
            got += np.minimum(found, need)
        lo = hi
        short = int(np.count_nonzero(got < k))
        # Medians on the same VM with this rule, then with later passes
        # never and always run: perfbench sketch_tau2 (100 nodes, 4 edges
        # per node, where the rule runs them) 1.38, 2.38 and 1.34 ms;
        # gen_random_ic(100, 1000) at 100 simulations (where it never does)
        # at tau 1 and 2 with k 16: 3.5, 3.6 and 9.8 ms, and 1.6, 1.6 and
        # 7.3 ms.
        if 8 * short > m + n:
            step = max(hi, _PASS_BYTES // (8 * short - m - n))
            hi = min(total, hi + -(-step // 64) * 64)
    return nodes, picks, got, lo


def build_sketches(model: DiffusionModel, pool, tau: int, k: int,
                   rank_seed: int) -> SketchSet:
    """Sketch every node against one pool of simulations.

    ``pool`` is a ``(ell, m)`` boolean live matrix.  Node ``v``'s sketch holds
    the first ``k`` pairs ``(u, i)``, in increasing ``(rank, node, sim)``
    order and with finite rank, such that ``u`` is reachable from ``v``
    within ``tau`` steps of simulation ``i``.

    Pairs are offered in rank order by reverse searches over a prefix of
    the order (:func:`_reverse_hits`): ``2 k`` positions rounded up to
    whole words, then longer passes while enough nodes are short of ``k``
    for a pass to cost less than scanning its positions forward.  Each node
    keeps its first ``min(k, hits)`` of them, already in rank order.
    When the prefix is short of the whole order, the nodes still short of
    ``k`` go forward: their single-source reaches come from
    :func:`set_reaches`, a block of sources at a time; a popcount of a
    source's finite-rank reach bits counts its pairs, and
    :func:`_first_hits` scans the rank order from the prefix's end on for
    the rest of each need, reading doubling prefixes, the first sized for
    twice the need of every source with more pairs than it needs.  No
    gather exceeds ``_SCAN_CELLS`` words (512 kB).  Each node's reverse
    picks, then its forward ones, in node order, are the set's flat arrays,
    and each node's pair count gives its offsets in
    :attr:`SketchSet.start`; no per-node object is built.
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
    total = order.size
    k_scan = min(k, total)
    nodes, picks, got, end = _reverse_hits(g, live, nodes_o, sims_o, tau, k_scan)
    short = np.flatnonzero(got < k_scan) if end < total else np.empty(0, np.int64)
    if short.size:
        # Pair f of the rank order is bit bits[f] of cell cells[f] of a
        # source's (n, width) reach words.  The finite-rank bits leave out
        # the padding of a partial last word, which a source's own row sets.
        cells = nodes_o * -(-ell // 64) + (sims_o >> 6)
        bits = np.left_shift(np.uint64(1), (sims_o & 63).astype(np.uint64))
        finite_bits = pack_rows(np.isfinite(ranks))
        taken = np.zeros_like(got)
        lo = 0
        for reach in set_reaches(g, pack_rows(live), tau, short[:, None]):
            rows = short[lo:lo + reach.shape[0]]
            lo += rows.size
            count = np.bitwise_count(reach & finite_bits).sum(axis=(1, 2), dtype=np.int64)
            count -= got[rows]
            need = k_scan - got[rows]
            picks.append(_first_hits(reach.reshape(rows.size, -1), cells, bits, count,
                                     need, end))
            taken[rows] = np.minimum(count, need)
        nodes.append(np.repeat(short, taken[short]))
        got += taken
    # Each node's reverse picks, then its forward ones, in rank order.
    picks = np.concatenate(picks or [np.empty(0, np.int64)])
    if len(nodes) > 1:
        picks = picks[np.argsort(np.concatenate(nodes), kind="stable")]
    start = np.zeros(g.num_nodes + 1, dtype=np.int64)
    np.cumsum(got, out=start[1:])
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

