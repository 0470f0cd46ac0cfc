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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import as_seed_tuple
# reverse_reach_set is no longer called here; it stays a module attribute
# because perfbench/layers.py wraps it at this site.
from .models import (DiffusionModel, pack_rows, reach_mask_batch,
                     reverse_reach_set, sample_pool)
from .estimators import OracleConfig, count_pool_averages
from . import rng

MIN_SKETCH_SIZE = 3
_POOL_RANK_PURPOSE = 0x6B
# Upper bound on words x max(edges, nodes) of one block of tiled sources,
# which bounds every packed array the build propagates at once.
_BLOCK_CELLS = 1 << 18


@dataclass(frozen=True, eq=False)
class NodeSketch:
    """Up to ``k`` smallest ranks among one node's reachable pairs."""
    k: int
    ranks: np.ndarray
    pair_nodes: np.ndarray
    pair_sims: np.ndarray
    node: int | None = None

    @property
    def size(self) -> int:
        return int(self.ranks.shape[0])


@dataclass(frozen=True, eq=False)
class SketchSet:
    """Per-node sketches built from one pool of simulations."""
    k: int
    tau: int
    ell: int
    rank_seed: int
    node_weights: np.ndarray
    sketches: tuple[NodeSketch, ...]


def pair_ranks(rank_seed: int, ell: int, node_weights: np.ndarray) -> np.ndarray:
    """Rank matrix: ``ranks[i, u] ~ Exp(w(u))``; infinite for weight zero."""
    n = node_weights.shape[0]
    u = rng.uniforms(rank_seed, rng.STREAM_RANKS, 0, ell * n).reshape(ell, n)
    with np.errstate(divide="ignore"):
        return -np.log1p(-u) / node_weights


def build_sketches(model: DiffusionModel, pool, tau: int, k: int,
                   rank_seed: int) -> SketchSet:
    """Sketch every node against one pool of simulations.

    ``pool`` is a ``(ell, m)`` boolean live matrix.  Node ``v``'s sketch holds
    the first ``k`` pairs ``(u, i)``, in increasing ``(rank, node, sim)``
    order and with finite rank, such that ``u`` is reachable from ``v``
    within ``tau`` steps of simulation ``i``.  The reachable pairs come from
    forward propagations on the packed kernel, one row per ``(source,
    simulation)``: the pool is packed once and tiled for a block of
    sources, each source padded to whole words, with the source set in its
    own rows only.
    """
    if k < MIN_SKETCH_SIZE:
        raise ValueError(f"sketch size must be at least {MIN_SKETCH_SIZE}")
    g = model.graph
    n, m = g.num_nodes, g.num_edges
    live = np.asarray(pool, dtype=bool)
    if live.ndim != 2 or live.shape[1] != m:
        raise ValueError(f"pool must be a (simulations, {m}) live matrix")
    ell = live.shape[0]
    if ell < 1:
        raise ValueError("pool must contain at least one simulation")
    ranks = pair_ranks(rank_seed, ell, g.node_weights)
    # Rank order with (node, sim) tie-break; pairs of infinite rank are
    # never kept.
    sims_ix, nodes_ix = np.divmod(np.arange(ell * n), n)
    flat = ranks.reshape(-1)
    order = np.lexsort((sims_ix, nodes_ix, flat))
    order = order[np.isfinite(flat[order])]
    ranks_o, nodes_o, sims_o = flat[order], nodes_ix[order], sims_ix[order]
    # Pair f of the rank order is bit bits[f] of cell cells[f] of a source's
    # (width, n) reach words.
    cells = (sims_o >> 6) * n + nodes_o
    bits = np.left_shift(np.uint64(1), (sims_o & 63).astype(np.uint64))
    words = pack_rows(live)
    width = words.shape[0]
    block = max(1, _BLOCK_CELLS // (width * max(m, n, 1)))
    sketches = []
    for lo in range(0, n, block):
        sources = np.arange(lo, min(lo + block, n))
        # Each source is set in all of its rows; its padding rows have no
        # live edges and are never read.
        start = np.zeros((sources.size, width, n), dtype=np.uint64)
        start[np.arange(sources.size), :, sources] = ~np.uint64(0)
        tiled = np.tile(words, (sources.size, 1))
        reach = reach_mask_batch(g, tiled, start.reshape(-1, n), tau)
        reach = reach.reshape(sources.size, width * n)
        for b, v in enumerate(sources):
            first = (reach[b, cells] & bits).nonzero()[0][:k]
            sketches.append(NodeSketch(k, ranks_o[first], nodes_o[first], sims_o[first],
                                       node=int(v)))
    return SketchSet(k, int(tau), ell, int(rank_seed), g.node_weights, tuple(sketches))


def merge_sketches(a: NodeSketch, b: NodeSketch) -> NodeSketch:
    """Bottom-k of the union; duplicate pairs collapse to one entry."""
    if a.k != b.k:
        raise ValueError("cannot merge sketches of different sizes")
    ranks = np.concatenate([a.ranks, b.ranks])
    nodes = np.concatenate([a.pair_nodes, b.pair_nodes])
    sims = np.concatenate([a.pair_sims, b.pair_sims])
    order = np.lexsort((sims, nodes, ranks))
    ranks, nodes, sims = ranks[order], nodes[order], sims[order]
    if ranks.size:
        keep = np.ones(ranks.size, dtype=bool)
        same = (nodes[1:] == nodes[:-1]) & (sims[1:] == sims[:-1])
        keep[1:] = ~same
        ranks, nodes, sims = ranks[keep], nodes[keep], sims[keep]
    return NodeSketch(a.k, ranks[:a.k], nodes[:a.k], sims[:a.k])


def merged_seed_sketch(sketches: SketchSet, seeds) -> NodeSketch:
    seeds = as_seed_tuple(len(sketches.sketches), seeds)
    merged = sketches.sketches[seeds[0]]
    for v in seeds[1:]:
        merged = merge_sketches(merged, sketches.sketches[v])
    return merged


def sketch_query(sketches: SketchSet, seeds, ell: int) -> float:
    """Averaging-oracle estimate of a seed set from its merged sketches."""
    if int(ell) != sketches.ell:
        raise ValueError("ell must match the pool size used at build time")
    merged = merged_seed_sketch(sketches, seeds)
    if merged.size < sketches.k:
        # Nothing was truncated: the pairs are the exact reachable pairs.
        # Reconstruct per-simulation masks, count them and reduce the counts
        # like the plain averaging oracle, so the value matches it bit for bit.
        n = sketches.node_weights.shape[0]
        mask = np.zeros((sketches.ell, n), dtype=bool)
        mask[merged.pair_sims, merged.pair_nodes] = True
        counts = mask.sum(axis=0, dtype=np.int64)[None, :]
        return float(count_pool_averages(counts, sketches.node_weights, sketches.ell)[0])
    total_weight = (sketches.k - 1) / float(merged.ranks[sketches.k - 1])
    return total_weight / sketches.ell


class SketchOracle:
    """Median-of-pools oracle whose pools answer from sketches."""

    def __init__(self, model: DiffusionModel, config: OracleConfig, k: int,
                 rank_seed: int, sketch_sets: tuple[SketchSet, ...]):
        self.model = model
        self.config = config
        self.k = int(k)
        self.rank_seed = int(rank_seed)
        self.sketch_sets = sketch_sets

    @property
    def num_nodes(self) -> int:
        return self.model.num_nodes

    def pool_estimates(self, seeds) -> np.ndarray:
        return np.array([sketch_query(ss, seeds, self.config.pool_size)
                         for ss in self.sketch_sets])

    def query(self, seeds) -> float:
        return float(np.median(self.pool_estimates(seeds)))


def build_sketch_oracle(model: DiffusionModel, config: OracleConfig, k: int,
                        rank_seed: int, threads: int = 1) -> SketchOracle:
    """Sample the same simulation grid as :func:`build_oracle`, sketched per pool."""
    live, _ = sample_pool(model, config.master_seed, config.total_simulations,
                          threads=threads)
    sets = []
    for pool in range(config.pools):
        rows = live[pool * config.pool_size:(pool + 1) * config.pool_size]
        pool_seed = rng.derive_seed(rank_seed, _POOL_RANK_PURPOSE, pool)
        sets.append(build_sketches(model, rows, config.tau, k, pool_seed))
    return SketchOracle(model, config, k, rank_seed, tuple(sets))
