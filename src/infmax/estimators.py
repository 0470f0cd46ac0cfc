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

import numpy as np

from .models import (DiffusionModel, Simulation, ic_model, reach_mask_batch,
                     reverse_reach_set, sample_pool, ReachScratch)
from .models import Graph
from . import rng

POOL_SIZE_FACTOR = 4
POOL_COUNT_FACTOR = 28
TOTAL_SAMPLE_FACTOR = POOL_SIZE_FACTOR * POOL_COUNT_FACTOR  # 112

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
    of the stream keyed by ``config.master_seed``.
    """

    def __init__(self, model: DiffusionModel, config: OracleConfig,
                 live: np.ndarray, components: np.ndarray | None):
        self.model = model
        self.config = config
        live.setflags(write=False)
        self._live = live
        self._components = components

    @property
    def num_nodes(self) -> int:
        return self.model.num_nodes

    @cached_property
    def simulations(self) -> tuple[Simulation, ...]:
        cfg = self.config
        return tuple(
            Simulation(self._live[i], cfg.master_seed, i,
                       int(self._components[i]) if self._components is not None else None)
            for i in range(cfg.total_simulations))

    def pool_simulations(self, pool: int) -> np.ndarray:
        size = self.config.pool_size
        return self._live[pool * size:(pool + 1) * size]

    def pool_averages(self, seeds) -> np.ndarray:
        """Average reachability value of ``seeds`` in each pool."""
        mask = reach_mask_batch(self.model.graph, self._live, seeds, self.config.tau)
        return mask_pool_averages(mask, self.model.graph.node_weights, self.config.pools)

    def query(self, seeds) -> float:
        """Median over pools of the average reachability value of ``seeds``."""
        return float(np.median(self.pool_averages(seeds)))


def mask_pool_averages(mask: np.ndarray, node_weights: np.ndarray, pools: int) -> np.ndarray:
    """Per-pool average reach value of a ``(rows, n)`` active-node mask.

    Rows split into ``pools`` consecutive pools of equal size.  Every
    simulation-backed value (oracle queries, brute force, greedy and
    lossless sketch queries) goes through this one reduction, which keeps
    them equal bit for bit.
    """
    values = mask @ node_weights
    pool_size = values.shape[0] // pools
    return values.reshape(pools, pool_size).sum(axis=1) / pool_size


def build_oracle(model: DiffusionModel, config: OracleConfig, threads: int = 1) -> Oracle:
    """Sample the oracle's simulation grid; identical for any ``threads``."""
    live, comps = sample_pool(model, config.master_seed, config.total_simulations,
                              threads=threads)
    return Oracle(model, config, live, comps)


def query(oracle, seeds) -> float:
    return oracle.query(seeds)


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


def rrs_estimate(model: DiffusionModel, mode: str, num_searches: int, tau: int,
                 master_seed: int) -> np.ndarray:
    """Per-node influence estimates from reverse reachability searches.

    ``full_simulation`` draws one fresh full simulation per search and is
    unbiased for any model.  ``marginal`` flips each encountered edge
    independently with its marginal probability, which is cheap but
    deliberately ignores dependence between edges.
    """
    if mode not in (FULL_SIMULATION, MARGINAL):
        raise ValueError(f"unknown search mode {mode!r}")
    if num_searches < 1:
        raise ValueError("need at least one search")
    num_searches = int(num_searches)
    g = model.graph
    n, m = g.num_nodes, g.num_edges
    w = g.node_weights
    marg = model.marginal_edge_probs if mode == MARGINAL else None
    acc = np.zeros(n, dtype=np.float64)
    scratch = ReachScratch(n)
    from .models import _block_uniforms, _sample_live_block
    for lo in range(0, num_searches, _RRS_CHUNK):
        count = min(_RRS_CHUNK, num_searches - lo)
        u = _block_uniforms(master_seed, rng.STREAM_RRS_TARGET, lo, count, 1)[:, 0]
        targets = np.minimum((u * n).astype(np.int64), n - 1)
        if mode == FULL_SIMULATION:
            live, _ = _sample_live_block(model, master_seed, lo, count)
        else:
            flips = _block_uniforms(master_seed, rng.STREAM_RRS_EDGES, lo, count, m)
            live = flips < marg
        for t in range(count):
            reached = reverse_reach_set(g, live[t], int(targets[t]), tau, scratch)
            acc[reached] += w[targets[t]]
    return n * acc / float(num_searches)
