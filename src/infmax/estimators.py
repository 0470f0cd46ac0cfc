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
from functools import cached_property, lru_cache
from itertools import islice

import numpy as np

from .graph import Graph, as_seed_tuple
# reverse_reach_set is no longer called here; it stays a module attribute
# because perfbench/layers.py wraps it at this site.
from .models import (DiffusionModel, _total_dtype, _unit_weights, _word_sampler,
                     ball_edges, node_weighted_sums, pack_rows, reach_mask_batch, reach_rows,
                     reach_table, reverse_reach_set, sample_pool, set_reaches, start_mask,
                     unpack_rows)
from . import models, rng

POOL_SIZE_FACTOR = 4
POOL_COUNT_FACTOR = 28
TOTAL_SAMPLE_FACTOR = POOL_SIZE_FACTOR * POOL_COUNT_FACTOR  # 112

# query_many reduces as many sets per call as fit their masks and counts here,
# and extension_values as many candidates as fit their reach rows and counts.
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
    ``(total_simulations, m)`` boolean live matrix, packed once here, or its
    ``(m, ceil(total_simulations / 64))`` ``uint64`` edge rows
    (:func:`pack_rows`), kept as given; only the packed words are held.
    ``components`` (from :func:`sample_pool`) is accepted but not kept.

    On first use the oracle caches what its batched queries read: for
    :meth:`extension_values` the sparse :func:`reach_rows` of every node,
    and for :meth:`query_many` their dense :func:`reach_table`, each only
    while it fits ``models._EXPLICIT_CACHE_BYTES``.
    """

    def __init__(self, model: DiffusionModel, config: OracleConfig,
                 live: np.ndarray, components: np.ndarray | None):
        self.model = model
        self.config = config
        rows, m = config.total_simulations, model.graph.num_edges
        if isinstance(live, np.ndarray) and live.dtype == np.uint64:
            if live.shape != (m, -(-rows // 64)):
                raise ValueError(f"packed live words must be {(m, -(-rows // 64))}, "
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
        return float(pool_median(self.pool_averages(seeds)))

    @cached_property
    def _single_reaches(self) -> np.ndarray | None:
        """The :func:`reach_table` of this oracle's simulations."""
        return reach_table(self.model.graph, self._live, self.config.tau)

    @cached_property
    def _rows(self) -> tuple | None:
        """Every node's :func:`reach_rows`, ``(start, nodes, rows)`` with the
        rows of node ``u`` at ``start[u]:start[u + 1]``, computed a block of
        sources at a time (:meth:`_computed_blocks`).  ``None``, with no
        block kept, as soon as the rows so far, at their mean bytes per
        source, would pass ``models._EXPLICIT_CACHE_BYTES`` for all ``n``
        sources: a cache too large to keep is not built first.  Each block
        is copied into the end of one pair of buffers, which
        ``ndarray.resize`` grows in place, so no block is kept past its
        copy."""
        n, words = self.num_nodes, self._live.shape[1]
        start = np.zeros(n + 1, dtype=np.int64)
        nodes, rows = np.empty(0, dtype=np.int64), np.empty((0, words), dtype=np.uint64)
        done = 0
        for at, cols, block in self._computed_blocks(np.arange(n)):
            fill = start[done]
            start[done + 1:done + at.size] = fill + at[1:]
            done += at.size - 1
            if start[done] * (8 + 8 * words) * n > models._EXPLICIT_CACHE_BYTES * done:
                return None
            nodes.resize(start[done], refcheck=False)
            rows.resize((start[done], words), refcheck=False)
            nodes[fill:start[done]] = cols
            rows[fill:start[done]] = block
        return start, nodes, rows

    def _computed_blocks(self, sources: np.ndarray, per_source: int = 0):
        """Yield the :func:`reach_rows` ``(start, nodes, rows)`` of
        consecutive blocks of ``sources``.  A block holds as many sources as
        fit ``_SCORE_BLOCK_BYTES`` at ``per_source`` bytes each plus their
        rows, counted at the mean row count of the blocks so far (``n`` per
        source before the first)."""
        g, live = self.model.graph, self._live
        row_bytes, lo, seen = live.shape[1] * 8, 0, 0
        while lo < len(sources):
            mean = seen / lo if lo else g.num_nodes
            hi = lo + max(1, int(_SCORE_BLOCK_BYTES // (mean * row_bytes + per_source)))
            block = reach_rows(g, live, self.config.tau, sources[lo:hi])
            yield block
            lo, seen = min(hi, len(sources)), seen + block[1].size

    def _cached_blocks(self, per_source: int = 0):
        """Yield ``(start, nodes, rows)`` as :meth:`_computed_blocks` does
        for every node in id order, as views of the cached :attr:`_rows`."""
        start, nodes, rows = self._rows
        n = start.size - 1
        cost = start * (rows.shape[1] * 8) + np.arange(n + 1) * per_source
        lo = 0
        while lo < n:
            hi = max(lo + 1, int(np.searchsorted(cost, cost[lo] + _SCORE_BLOCK_BYTES,
                                                 side="right")) - 1)
            at = start[lo:hi + 1]
            yield at - at[0], nodes[at[0]:at[-1]], rows[at[0]:at[-1]]
            lo = hi

    def query_many(self, seed_sets) -> np.ndarray:
        """:meth:`query` of each of ``seed_sets`` (equal-size tuples of ids),
        bit for bit, read a block at a time.  Reachability is a coverage
        function, so a set's mask is the OR of its members' rows of the
        cached :func:`reach_table`, itself scattered from :func:`reach_rows`;
        without a table the block's sets propagate together
        (:func:`set_reaches`).  The masks go through
        :func:`mask_pool_averages`, each row reduced on its own."""
        g, cfg = self.model.graph, self.config
        n, words = g.num_nodes, self._live.shape[1]
        block = max(1, _SCORE_BLOCK_BYTES // ((words + cfg.pools + 1) * max(n, 1) * 8))
        table = self._single_reaches
        seed_sets, values = iter(seed_sets), [np.empty(0)]
        while sets := list(islice(seed_sets, block)):
            ids = _id_block(sets, n)
            if table is None:
                blocks = set_reaches(g, self._live, cfg.tau, ids)
            else:
                blocks = [table[ids[:, 0]]]
                for column in ids.T[1:]:
                    blocks[0] |= table[column]
            values.extend(pool_median(mask_pool_averages(masks, g.node_weights, cfg.pools,
                                                         cfg.pool_size))
                          for masks in blocks)
        return np.concatenate(values)

    def extension_values(self, base, candidates) -> np.ndarray:
        """:meth:`query_many` of ``base`` plus each node of ``candidates``,
        in order, bit for bit; ``base`` may be empty.

        The mask ``M`` of ``base`` is the scatter of its members'
        :func:`reach_rows`, and a candidate changes only the columns of its
        own rows, so only those are recounted, a block of candidates at a
        time.  The rows are read from the cache (:attr:`_rows`), which
        scores every node and reads out the candidates, or else computed
        for the candidates alone (:meth:`_computed_blocks`).  With unit
        weights a candidate's pool totals are ``M``'s plus the popcounts of
        its rows' bits outside ``M`` (:func:`_unit_counts`), summed per
        candidate.  Otherwise its ``(pools, n)`` count table is ``M``'s with
        its columns replaced by the counts of ``M[col] | row``, reduced by
        :func:`count_pool_averages` over all ``n`` nodes in node order.
        Either way its pool averages equal :func:`mask_pool_averages` of the
        grown set's mask bit for bit.
        """
        g, cfg, live = self.model.graph, self.config, self._live
        n, pools, pool_size = g.num_nodes, cfg.pools, cfg.pool_size
        base, candidates = _node_ids(base, n), _node_ids(candidates, n)
        cache = self._rows
        if cache is None:
            start, nodes, rows = reach_rows(g, live, cfg.tau, base)
            members = range(base.size)
        else:
            (start, nodes, rows), members = cache, base.tolist()
        mask = np.zeros((n, live.shape[1]), dtype=np.uint64)
        for u in members:
            mask[nodes[start[u]:start[u + 1]]] |= rows[start[u]:start[u + 1]]
        dtype = _total_dtype(n * pool_size)
        unit = dtype is not None and _unit_weights(g.node_weights)
        if unit:
            totals = _unit_totals(mask, pools, pool_size, dtype)
            per_source = 0
        else:
            counts = pool_counts(mask, pools, pool_size)
            per_source = pools * n * 8
        blocks = (self._computed_blocks(candidates, per_source) if cache is None
                  else self._cached_blocks(per_source))
        values = [np.empty(0)]
        for start, nodes, rows in blocks:
            columns = mask.take(nodes, axis=0)
            if unit:
                np.invert(columns, out=columns)
                columns &= rows
                gains = np.add.reduceat(_unit_counts(columns, pools, pool_size), start[:-1],
                                        axis=0, dtype=dtype)
                averages = (totals + gains.sum(axis=-1, dtype=dtype)) / pool_size
            else:
                columns |= rows
                table = np.repeat(counts[None], start.size - 1, axis=0)
                owner = np.repeat(np.arange(start.size - 1), np.diff(start))
                table[owner, :, nodes] = pool_counts(columns, pools, pool_size).T
                averages = count_pool_averages(table, g.node_weights, pool_size)
            values.append(pool_median(averages))
        values = np.concatenate(values)
        return values if cache is None else values[candidates]


def _node_ids(ids, n: int) -> np.ndarray:
    """A collection of node ids as an int64 array, each in ``[0, n)``."""
    ids = np.asarray(ids)
    if ids.size == 0:
        return np.zeros(0, dtype=np.int64)
    if ids.ndim != 1 or ids.dtype.kind not in "iu":
        raise ValueError("node ids must be a flat collection of integers")
    if ids.min() < 0 or ids.max() >= n:
        raise ValueError("seed id out of range")
    return ids.astype(np.int64)


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


# _LOW_BITS[b] keeps the low b bits of a word, for b in 0 .. 64.
_LOW_BITS = np.append((np.uint64(1) << np.arange(64, dtype=np.uint64)) - np.uint64(1),
                      ~np.uint64(0))
_LOW_BITS.setflags(write=False)


@lru_cache(maxsize=32)
def _pool_segments(pools: int, pool_size: int) -> tuple:
    """Rows ``0 .. pools*pool_size-1`` cut at every word boundary and every
    pool boundary into segments, ``runs`` per pool: ``(word, bits, runs)``,
    where segment ``i * runs + j`` holds the rows of pool ``i`` set in its
    ``bits`` of word ``word``.  A pool cut into fewer segments is padded
    with empty ones (no bits of word 0)."""
    rows = pools * pool_size
    cuts = np.union1d(np.arange(0, rows + 1, pool_size), np.arange(0, rows, 64))
    lo, hi = cuts[:-1], cuts[1:]
    pool, at = lo // pool_size, lo // 64
    slot = np.arange(lo.size) - np.searchsorted(lo, pool * pool_size)
    runs = int(slot.max()) + 1
    word = np.zeros((pools, runs), dtype=np.int64)
    bits = np.zeros((pools, runs), dtype=np.uint64)
    word[pool, slot] = at
    bits[pool, slot] = _LOW_BITS[hi - 64 * at] & ~_LOW_BITS[lo - 64 * at]
    word, bits = word.reshape(-1), bits.reshape(-1)
    word.setflags(write=False)
    bits.setflags(write=False)
    return word, bits, runs


def _unit_counts(mask: np.ndarray, pools: int, pool_size: int) -> np.ndarray:
    """``uint8`` popcounts ``(..., n, pools, runs)`` of a packed ``(..., n,
    words)`` node mask, read as given, every pool a run of ``runs`` units:
    when ``g = gcd(pool_size, 64)`` is at least 8, the words read as
    ``uint{g}``, ``pool_size // g`` per pool, else the
    :func:`_pool_segments` of each pool, gathered and masked.  Bits past
    the last pool (padding) are counted in no pool."""
    g = math.gcd(pool_size, 64)
    if g >= 8:
        runs = pool_size // g
        # Whole rows count faster than a strided slice of them; the units
        # past the last pool are cut off after the count.
        counts = np.bitwise_count(mask.view(f"<u{g // 8}"))[..., :pools * runs]
    else:
        word, bits, runs = _pool_segments(pools, pool_size)
        units = mask[..., word]
        units &= bits
        counts = np.bitwise_count(units)
    return counts.reshape(counts.shape[:-1] + (pools, runs))


def pool_counts(mask: np.ndarray, pools: int, pool_size: int) -> np.ndarray:
    """Per-pool activation counts of a packed ``(..., n, words)`` node mask.

    Simulation ``r`` is bit ``r % 64`` of word ``r // 64``; simulations
    split into ``pools`` consecutive pools of ``pool_size``.  Returns the
    ``(..., pools, n)`` int64 count of simulations in each pool that
    activate each node; leading axes are a batch of masks, each counted on
    its own.  Pool boundaries may fall inside a word, and bits past the last
    pool (padding) are never counted.

    The units of each pool (:func:`_unit_counts`) move node-first as their
    counts widen to int64, and the result views that node-major memory,
    which the weighted sum of :func:`count_pool_averages` reads in place.
    """
    pools, pool_size = int(pools), int(pool_size)
    counts = np.moveaxis(_unit_counts(mask, pools, pool_size), -3, 0)
    runs = counts.shape[-1]
    # A sum along each run costs per pool; runs no longer than the pool
    # count are added instead as strided columns of whole pools, one add
    # per unit of a run.
    if runs > pools:
        totals = counts.sum(axis=-1, dtype=np.int64, out=np.empty(counts.shape[:-1], np.int64))
    else:
        totals = counts[..., 0].astype(np.int64, order="C")
        for j in range(1, runs):
            totals += counts[..., j]
    return np.moveaxis(totals, 0, -1)


def count_pool_averages(counts: np.ndarray, node_weights: np.ndarray,
                        pool_size: int) -> np.ndarray:
    """Pool averages ``sum_v node_weights[v] * counts[..., v] / pool_size``
    of a ``(..., pools, n)`` count table, shaped ``(..., pools)``.

    Every simulation-backed value (oracle queries, brute force, greedy and
    lossless sketch queries) ends in this one expression, so equal counts
    give values equal bit for bit, for any node weights.  The weighted sum is
    :func:`node_weighted_sums` over the node-major counts, which adds each
    pool's terms in node order, the order :func:`row_values` uses, whatever
    the leading axes and the other pools hold; with unit weights it is the
    integer total of each pool's counts.
    """
    # The same node-first view as np.moveaxis(counts, -1, 0), at an eighth of
    # its call cost.
    nodes_first = counts.transpose(-1, *range(counts.ndim - 1))
    return node_weighted_sums(node_weights, nodes_first) / pool_size


def mask_pool_averages(mask: np.ndarray, node_weights: np.ndarray, pools: int,
                       pool_size: int) -> np.ndarray:
    """Per-pool average reach value ``(..., pools)`` of a packed
    ``(..., n, words)`` node mask: :func:`count_pool_averages` of its
    :func:`pool_counts`, bit for bit.

    With unit weights a pool's value is its activation total over
    ``pool_size``: the popcounts of its units (:func:`_unit_counts`) are
    summed over nodes and runs in an integer accumulator
    (:func:`_total_dtype` of ``n * pool_size``), with no node-major count
    table and no float sum.  That total is exactly the node-order float sum
    of the counts, so no bit moves; other weights take the weighted sum.
    """
    pools, pool_size = int(pools), int(pool_size)
    dtype = _total_dtype(mask.shape[-2] * pool_size)
    if dtype is not None and _unit_weights(node_weights):
        return _unit_totals(mask, pools, pool_size, dtype) / pool_size
    return count_pool_averages(pool_counts(mask, pools, pool_size), node_weights,
                               pool_size)


def _unit_totals(mask: np.ndarray, pools: int, pool_size: int, dtype) -> np.ndarray:
    """Per-pool activation totals ``(..., pools)`` of a packed ``(..., n,
    words)`` node mask, summed in ``dtype`` from its :func:`_unit_counts`."""
    # Nodes first: a sum over two axes at once is slow when runs > 1.
    totals = _unit_counts(mask, pools, pool_size).sum(axis=-3, dtype=dtype)
    return totals.sum(axis=-1, dtype=dtype)


def pool_median(averages: np.ndarray) -> np.ndarray:
    """Median over the last axis of an odd number of pool averages: its
    middle order statistic, equal to ``np.median(averages, axis=-1)`` bit
    for bit when the values are not NaN."""
    mid = averages.shape[-1] // 2
    return np.partition(averages, mid, axis=-1)[..., mid]


def build_oracle(model: DiffusionModel, config: OracleConfig, threads: int = 1) -> Oracle:
    """Sample the oracle's simulation grid; identical for any ``threads``."""
    words, comps = sample_pool(model, config.master_seed, config.total_simulations,
                               threads=threads, packed=True)
    return Oracle(model, config, words, comps)


def seed_set_pool_averages(model: DiffusionModel, config: OracleConfig, seeds,
                           threads: int = 1) -> np.ndarray:
    """``build_oracle(model, config).pool_averages(seeds)``, bit for bit.

    Only the columns of the ``tau``-ball of ``seeds`` (:func:`ball_edges`)
    are sampled, which draws only their units, and they propagate over the
    graph of those edges; a ball of every edge takes the oracle's pool.
    """
    g = model.graph
    seeds = as_seed_tuple(g.num_nodes, seeds)
    ball = ball_edges(model, config.tau, seeds)
    edges = None if ball.all() else ball
    words, _ = sample_pool(model, config.master_seed, config.total_simulations,
                           threads=threads, packed=True, edges=edges)
    if edges is not None:
        g = Graph(g.num_nodes, g.tails[ball], g.heads[ball], g.probs[ball],
                  np.full(words.shape[0], -1, dtype=np.int64), g.node_weights)
    mask = reach_mask_batch(g, words, seeds, config.tau)
    return mask_pool_averages(mask, g.node_weights, config.pools, config.pool_size)


def required_pools(delta: float) -> int:
    """Smallest odd pool count >= 28 ln(1/delta)."""
    pools = POOL_COUNT_FACTOR * math.log(1.0 / delta)
    if not math.isfinite(pools):
        raise ValueError("the pool count is not a finite number: delta is too small")
    pools = max(1, math.ceil(pools))
    return pools if pools % 2 == 1 else pools + 1


def _pool_size(numerator: float, denominator: float) -> int:
    """``ceil(numerator / denominator)``, or ``ValueError`` when the ratio is
    not a finite number, a denominator that underflowed to 0 included."""
    size = numerator / denominator if denominator > 0.0 else math.inf
    if not math.isfinite(size):
        raise ValueError("the pool size is not a finite number: "
                         "epsilon or delta is too small")
    return math.ceil(size)


def size_for_guarantee(epsilon: float, delta: float, c: float, mode: str,
                       tau: int = 0, master_seed: int = 0) -> OracleConfig:
    """Pool layout guaranteeing an (epsilon, delta) approximation.

    Raises ``ValueError`` when ``epsilon`` or ``delta`` is so small that the
    layout is not a finite number.  ``tau`` and ``master_seed`` are passed
    through to the config so the result can be handed straight to
    :func:`build_oracle`.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if c < 1.0:
        raise ValueError("variance-bound scale c must be at least 1")
    if mode == AVERAGING:
        return OracleConfig(1, _pool_size(c, epsilon * epsilon * delta), tau, master_seed)
    if mode == MEDIAN_OF_AVERAGES:
        return OracleConfig(required_pools(delta),
                            _pool_size(POOL_SIZE_FACTOR * c, epsilon * epsilon), tau,
                            master_seed)
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
    reverse-search estimates.  It is built once per model.
    """
    return model._marginal_edge_model


_RRS_CELLS = 1 << 20  # searches x nodes per chunk: 8 MB of weighted float64 credits


def rrs_estimate(model: DiffusionModel, mode: str, num_searches: int, tau: int,
                 master_seed: int) -> np.ndarray:
    """Per-node influence estimates from reverse reachability searches.

    ``full_simulation`` draws one fresh full simulation per search and is
    unbiased for any model.  ``marginal`` flips each encountered edge
    independently with its marginal probability, which is cheap but
    deliberately ignores dependence between edges.

    Search ``t`` picks a uniform target node and credits its weight to
    every node that reaches it within ``tau`` live steps.  Each chunk of
    searches runs as one propagation over ``Graph.reversed``, one search
    per row with its target set in that row only; the credits are added
    search by search, in order, like a loop over scalar searches.  With
    unit weights a node's credit is the number of searches it reaches, the
    popcount of its row of the chunk's mask, added as an integer: every
    partial sum of the scalar loop is that integer count, exact below the
    ``2**33`` searches the counter allows.
    """
    if mode not in (FULL_SIMULATION, MARGINAL):
        raise ValueError(f"unknown search mode {mode!r}")
    if num_searches < 1:
        raise ValueError("need at least one search")
    num_searches = int(num_searches)
    rng.check_range(0, num_searches)
    g = model.graph
    n = g.num_nodes
    w = g.node_weights
    unit = _unit_weights(w)
    acc = np.zeros(n, dtype=np.int64 if unit else np.float64)
    # A full search reads a simulation of the model; a marginal one, of its
    # marginal_edge_model on the marginal-flip stream.
    if mode == FULL_SIMULATION:
        draw, _ = model._edge_sampler
    else:
        draw, _ = _word_sampler(marginal_edge_model(model), np.arange(g.num_edges),
                                rng.STREAM_RRS_EDGES)
    # Chunks of whole words where they hold more than one.
    chunk = max(1, _RRS_CELLS // max(n, 1))
    if chunk > 64:
        chunk -= chunk % 64
    for lo in range(0, num_searches, chunk):
        count = min(chunk, num_searches - lo)
        u = rng.sim_uniforms(master_seed, rng.STREAM_RRS_TARGET, lo, count)
        targets = np.minimum((u * n).astype(np.int64), n - 1)
        words, _ = draw(master_seed, lo, count)
        mask = reach_mask_batch(g.reversed, words, start_mask(n, targets), tau)
        if unit:
            # Padding bits never spread from the start mask's zero padding.
            acc += np.bitwise_count(mask).sum(axis=1, dtype=np.int64)
            continue
        # An axis-0 reduce over C-contiguous rows adds them in row order,
        # so the sums equal the scalar loop's ``acc[reached] += w[t]``.
        contrib = unpack_rows(mask, count) * w[targets][:, None]
        contrib[0] += acc
        acc = np.add.reduce(contrib, axis=0)
    return n * acc.astype(np.float64) / float(num_searches)
