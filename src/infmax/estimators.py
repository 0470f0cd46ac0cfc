"""Simulation-averaging influence oracles and reverse-reachability baselines.

An oracle is built once from ``pools x pool_size`` i.i.d. simulations and
then answers influence queries deterministically: each pool contributes
the average reachability value of the query set over its simulations, and
the oracle reports the median of the pool averages.  A single pool is the
plain averaging estimator; many pools trade a constant-factor sample
increase for exponentially better confidence.

Sizing follows two rules, with the constants kept verbatim and exposed:

* averaging:          ``pool_size >= c / (eps^2 * delta)`` with one pool;
* median-of-averages: ``pool_size >= 4 * c / eps^2`` with the smallest odd
  number of pools ``>= 28 * ln(1/delta)``.

Here ``c`` is the scale of the variance bound
``Var[R(T)] <= c * I(T) * max(I(T), opt1)`` for the model at hand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

# reverse_reach_set is no longer called here; it stays a module attribute
# because perfbench/layers.py wraps it at this site.
from .models import (DiffusionModel, _block_uniforms, _sample_live_block,
                     ic_model, pack_rows, reach_mask_batch, reverse_reach_set,
                     sample_pool, start_mask, unpack_rows)
from .models import Graph
from . import rng

POOL_SIZE_FACTOR = 4
POOL_COUNT_FACTOR = 28
TOTAL_SAMPLE_FACTOR = POOL_SIZE_FACTOR * POOL_COUNT_FACTOR  # 112

# query_many keeps all single-source reaches while they fit here, and
# reduces as many sets per call as fit their masks and counts here.
_EXPLICIT_CACHE_BYTES = 1 << 27
_SCORE_BLOCK_BYTES = 1 << 20

AVERAGING = "averaging"
MEDIAN_OF_AVERAGES = "median_of_averages"

FULL_SIMULATION = "full_simulation"
MARGINAL = "marginal"


@dataclass(frozen=True)
class OracleConfig:
    """Pool layout of an oracle: ``pools`` pools of ``pool_size`` simulations."""
    pools: int
    pool_size: int
    tau: int
    master_seed: int = 0

    def __post_init__(self):
        if self.pools < 1:
            raise ValueError("pool count must be at least 1")
        if self.pools > 1 and self.pools % 2 == 0:
            raise ValueError("pool count must be odd when above 1")
        if self.pool_size < 1:
            raise ValueError("pool size must be at least 1")
        if self.tau < 0:
            raise ValueError("step limit must be nonnegative")
        rng.check_master_seed(self.master_seed)

    @property
    def total_simulations(self) -> int:
        return self.pools * self.pool_size


class Oracle:
    """Immutable median-of-pool-averages influence estimator.

    Pool ``i`` owns simulation indices ``i*pool_size .. (i+1)*pool_size-1``
    of the stream keyed by ``config.master_seed``.  ``live`` is either the
    ``(total_simulations, m)`` boolean live matrix, packed once here
    (:func:`pack_rows`), or its ``(ceil(total_simulations / 64), m)``
    ``uint64`` words, kept as given; only the packed words are held.
    ``components`` (from :func:`sample_pool`) is accepted but not kept.
    """

    def __init__(self, model: DiffusionModel, config: OracleConfig,
                 live: np.ndarray, components: np.ndarray | None):
        self.model = model
        self.config = config
        rows, m = config.total_simulations, model.graph.num_edges
        if isinstance(live, np.ndarray) and live.dtype == np.uint64:
            if live.shape != (-(-rows // 64), m):
                raise ValueError(f"packed live words must be {(-(-rows // 64), m)}, "
                                 f"got {live.shape}")
            self._live = live.view()
        else:
            live = np.asarray(live, dtype=bool)
            if live.shape != (rows, m):
                raise ValueError(f"live matrix must be {(rows, m)}, got {live.shape}")
            self._live = pack_rows(live)
        self._live.setflags(write=False)

    @property
    def num_nodes(self) -> int:
        return self.model.num_nodes

    def pool_averages(self, seeds) -> np.ndarray:
        """Average reachability value of ``seeds`` in each pool."""
        cfg = self.config
        mask = reach_mask_batch(self.model.graph, self._live, seeds, cfg.tau)
        return mask_pool_averages(mask, self.model.graph.node_weights,
                                  cfg.pools, cfg.pool_size)

    def query(self, seeds) -> float:
        """Median over pools of the average reachability value of ``seeds``."""
        return float(np.median(self.pool_averages(seeds)))

    @cached_property
    def _single_reaches(self) -> np.ndarray | None:
        """``(n, words, n)`` reach masks of every single node, in id order,
        or ``None`` when they would exceed ``_EXPLICIT_CACHE_BYTES``."""
        g, words, n = self.model.graph, self._live.shape[0], self.num_nodes
        if n * words * 8 * n > _EXPLICIT_CACHE_BYTES:
            return None
        singles = np.empty((n, words, n), dtype=np.uint64)
        for u in range(n):
            singles[u] = reach_mask_batch(g, self._live, (u,), self.config.tau)
        return singles

    def query_many(self, seed_sets) -> np.ndarray:
        """:meth:`query` of each of ``seed_sets`` (equal-size tuples of ids),
        bit for bit, read a block at a time.  A set's mask is the OR of its
        members' cached single-source reaches, or its own propagation when
        the cache would not fit; a block goes through one
        :func:`mask_pool_averages` call, each row reduced on its own."""
        g, cfg = self.model.graph, self.config
        n, words = g.num_nodes, self._live.shape[0]
        block = max(1, _SCORE_BLOCK_BYTES // ((words + cfg.pools + 1) * max(n, 1) * 8))
        seed_sets, values = iter(seed_sets), [np.empty(0)]
        while sets := list(islice(seed_sets, block)):
            ids = _id_block(sets, n)
            singles = self._single_reaches
            if singles is None:
                masks = np.stack([reach_mask_batch(g, self._live, row, cfg.tau)
                                  for row in ids])
            else:
                masks = singles[ids[:, 0]]
                for j in range(1, ids.shape[1]):
                    masks |= singles[ids[:, j]]
            values.append(np.median(mask_pool_averages(masks, g.node_weights, cfg.pools,
                                                       cfg.pool_size), axis=-1))
        return np.concatenate(values)


def _id_block(seed_sets: list, n: int) -> np.ndarray:
    """``(C, k)`` ids of ``C`` seed sets of one size ``k >= 1``, all in ``[0, n)``."""
    try:
        ids = np.array(seed_sets)
    except ValueError:  # ragged
        ids = np.empty(0)
    if ids.ndim != 2 or ids.shape[1] == 0 or ids.dtype.kind not in "iu":
        raise ValueError("seed sets must be non-empty, equal-size tuples of integer ids")
    if ids.min() < 0 or ids.max() >= n:
        raise ValueError("seed id out of range")
    return ids


# _LOW_BITS[b] keeps the low b bits of a word.
_LOW_BITS = (np.uint64(1) << np.arange(64, dtype=np.uint64)) - np.uint64(1)
_LOW_BITS.setflags(write=False)


def pool_counts(mask: np.ndarray, pools: int, pool_size: int) -> np.ndarray:
    """Per-pool activation counts of a packed ``(..., words, n)`` node mask.

    Row ``r`` is bit ``r % 64`` of word ``r // 64``; rows split into
    ``pools`` consecutive pools of ``pool_size``.  Returns the
    ``(..., pools, n)`` int64 count of rows in each pool that activate each
    node; leading axes are a batch of masks, each counted on its own.  Pool
    boundaries may fall inside a word, and bits past the last pool
    (padding) are never counted.
    """
    *lead, words, n = mask.shape
    prefix = np.zeros((*lead, words + 1, n), dtype=np.int64)
    np.cumsum(np.bitwise_count(mask), axis=-2, out=prefix[..., 1:, :])
    pool_size = int(pool_size)
    word, bit = np.divmod(np.arange(0, (pools + 1) * pool_size, pool_size), 64)
    below = prefix[..., word, :]
    below += np.bitwise_count(mask[..., np.minimum(word, words - 1), :] & _LOW_BITS[bit, None])
    return below[..., 1:, :] - below[..., :-1, :]


def count_pool_averages(counts: np.ndarray, node_weights: np.ndarray,
                        pool_size: int) -> np.ndarray:
    """Pool averages ``(counts @ node_weights) / pool_size`` of a
    ``(..., pools, n)`` count table, shaped ``(..., pools)``.

    Every simulation-backed value (oracle queries, brute force, greedy and
    lossless sketch queries) ends in this one expression, so equal counts
    give values equal bit for bit, for any node weights.  Each row is
    summed on its own over the contiguous last axis, so its sum does not
    depend on the leading axes: a BLAS product may order a row's sum
    differently depending on how many rows it is given.
    """
    return (counts * node_weights).sum(axis=-1) / pool_size


def mask_pool_averages(mask: np.ndarray, node_weights: np.ndarray, pools: int,
                       pool_size: int) -> np.ndarray:
    """Per-pool average reach value ``(..., pools)`` of a packed
    ``(..., words, n)`` node mask."""
    return count_pool_averages(pool_counts(mask, pools, pool_size), node_weights,
                               pool_size)


def build_oracle(model: DiffusionModel, config: OracleConfig, threads: int = 1) -> Oracle:
    """Sample the oracle's simulation grid; identical for any ``threads``."""
    words, comps = sample_pool(model, config.master_seed, config.total_simulations,
                               threads=threads, packed=True)
    return Oracle(model, config, words, comps)


def required_pools(delta: float) -> int:
    """Smallest odd pool count >= 28 ln(1/delta)."""
    pools = max(1, math.ceil(POOL_COUNT_FACTOR * math.log(1.0 / delta)))
    return pools if pools % 2 == 1 else pools + 1


def size_for_guarantee(epsilon: float, delta: float, c: float, mode: str,
                       tau: int = 0, master_seed: int = 0) -> OracleConfig:
    """Pool layout guaranteeing an (epsilon, delta) approximation.

    ``tau`` and ``master_seed`` are passed through to the config so the
    result can be handed straight to :func:`build_oracle`.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if c < 1.0:
        raise ValueError("variance-bound scale c must be at least 1")
    if mode == AVERAGING:
        pool_size = math.ceil(c / (epsilon * epsilon * delta))
        return OracleConfig(1, pool_size, tau, master_seed)
    if mode == MEDIAN_OF_AVERAGES:
        pool_size = math.ceil(POOL_SIZE_FACTOR * c / (epsilon * epsilon))
        return OracleConfig(required_pools(delta), pool_size, tau, master_seed)
    raise ValueError(f"unknown oracle mode {mode!r}")


def check_eps_approx(estimate: float, truth: float, opt1: float, epsilon: float) -> bool:
    """Relative error above ``opt1``, additive error ``epsilon * opt1`` below it."""
    return abs(estimate - truth) <= epsilon * max(truth, opt1)


# ---------------------------------------------------------------------------
# Reverse-reachability search baselines

def marginal_edge_model(model: DiffusionModel) -> DiffusionModel:
    """Independent-edge model at the marginal probabilities.

    This is the model a dependence-ignoring estimator effectively samples;
    its exact influence values are the expectations of the ``marginal``
    reverse-search estimates.
    """
    g = model.graph
    return ic_model(Graph(g.num_nodes, g.tails, g.heads, model.marginal_edge_probs,
                          np.full(g.num_edges, -1, dtype=np.int64),
                          g.node_weights, g.labels))


_RRS_CHUNK = 8192


def _rrs_live_words(model: DiffusionModel, mode: str, master_seed: int, lo: int,
                    count: int) -> np.ndarray:
    """Packed live rows of searches ``lo .. lo+count-1``; the uniforms behind
    them are freed on return."""
    if mode == FULL_SIMULATION:
        live, _ = _sample_live_block(model, master_seed, lo, count)
    else:
        flips = _block_uniforms(master_seed, rng.STREAM_RRS_EDGES, lo, count,
                                model.graph.num_edges)
        live = flips < model.marginal_edge_probs
    return pack_rows(live)


def rrs_estimate(model: DiffusionModel, mode: str, num_searches: int, tau: int,
                 master_seed: int) -> np.ndarray:
    """Per-node influence estimates from reverse reachability searches.

    ``full_simulation`` draws one fresh full simulation per search and is
    unbiased for any model.  ``marginal`` flips each encountered edge
    independently with its marginal probability, which is cheap but
    deliberately ignores dependence between edges.

    Search ``t`` picks a uniform target node and credits its weight to
    every node that reaches it within ``tau`` live steps.  Each chunk of
    searches runs as one reverse propagation on the packed kernel, one
    search per row with its target set in that row only; the credits are
    added search by search, in order, like a loop over scalar searches.
    """
    if mode not in (FULL_SIMULATION, MARGINAL):
        raise ValueError(f"unknown search mode {mode!r}")
    if num_searches < 1:
        raise ValueError("need at least one search")
    num_searches = int(num_searches)
    g = model.graph
    n = g.num_nodes
    w = g.node_weights
    acc = np.zeros(n, dtype=np.float64)
    for lo in range(0, num_searches, _RRS_CHUNK):
        count = min(_RRS_CHUNK, num_searches - lo)
        u = _block_uniforms(master_seed, rng.STREAM_RRS_TARGET, lo, count, 1)[:, 0]
        targets = np.minimum((u * n).astype(np.int64), n - 1)
        words = _rrs_live_words(model, mode, master_seed, lo, count)
        mask = reach_mask_batch(g, words, start_mask(n, targets), tau, reverse=True)
        # An axis-0 reduce over C-contiguous rows adds them in row order,
        # so the sums equal the scalar loop's ``acc[reached] += w[t]``.
        contrib = unpack_rows(mask, count) * w[targets][:, None]
        contrib[0] += acc
        acc = np.add.reduce(contrib, axis=0)
    return n * acc / float(num_searches)
