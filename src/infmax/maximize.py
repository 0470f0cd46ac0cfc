"""Seed-set optimization over influence oracles.

Brute force enumerates all subsets up to the budget; greedy adds the node
of maximum marginal oracle value at each step (ties to the lowest id).
``maximize_im`` wires greedy/brute force to a median-of-averages oracle
sized so the returned set is near-optimal with high probability, and
``adaptive_maximize`` wraps either base algorithm in a doubling schedule
that validates candidates on small independent oracles and stops early
when the data allows it.

Brute force and greedy accept any object with ``num_nodes`` and
``query``.  On a simulation :class:`Oracle` they share the single-source
reach masks (packed 64 simulations per word), score a set as the union
of its members' masks, and reduce a whole block of candidate unions per
call through ``mask_pool_averages``, whose leading axis is the candidate,
then take the median over pools.  Each row is reduced on its own as
``oracle.query`` reduces it, so their values equal ``oracle.query`` bit
for bit.  A block holds as many candidates as fit in
``_SCORE_BLOCK_BYTES``; the first maximum of a block replaces the best
candidate only when strictly larger, which keeps the one-by-one scan's
tie rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, islice

import numpy as np

from .models import DiffusionModel, reach_mask_batch
from .estimators import (AVERAGING, MEDIAN_OF_AVERAGES, Oracle, OracleConfig,
                         build_oracle, mask_pool_averages, required_pools,
                         size_for_guarantee)
from .exact import c_value
from . import rng

BRUTE_FORCE_BUDGET = 10**6
_EXPLICIT_CACHE_BYTES = 1 << 27
_SCORE_BLOCK_BYTES = 1 << 20

_PURPOSE_ROUND_ORACLE = 0x0A
_PURPOSE_ROUND_VALIDATION = 0x0B


@dataclass(frozen=True)
class GreedyStep:
    node: int
    gain: float
    value: float


@dataclass(frozen=True, eq=False)
class MaximizerResult:
    seeds: tuple[int, ...]
    oracle_value: float
    simulations_used: int
    method: str
    trace: tuple[GreedyStep, ...] = ()
    validation_simulations: int = 0
    rounds: tuple = ()


def _oracle_sims(oracle) -> int:
    config = getattr(oracle, "config", None)
    return config.total_simulations if config is not None else 0


def _explicit_reach(oracle: Oracle):
    """Blocked candidate scoring over the oracle's packed simulations.

    The reach of a set is the union of its members' single-source reaches,
    so ``mask_values`` of a ``(C, words, n)`` stack of such unions
    reproduces ``oracle.query`` of each of the ``C`` sets bit for bit.
    Returns ``(singles, reach, mask_values, block)``.  ``singles`` is the
    ``(n, words, n)`` array of all single-source reaches, computed here in
    id order, or ``None`` when it would exceed ``_EXPLICIT_CACHE_BYTES``;
    ``reach(seeds)`` computes the reach of a seed tuple afresh.  ``block``
    is how many candidates to score per call, so that a block's masks and
    counts stay within ``_SCORE_BLOCK_BYTES``.
    """
    g = oracle.model.graph
    live = oracle._live
    cfg = oracle.config
    n = g.num_nodes
    words = live.shape[0]

    def reach(seeds: tuple[int, ...]) -> np.ndarray:
        return reach_mask_batch(g, live, seeds, cfg.tau)

    singles = None
    if n * words * live.itemsize * n <= _EXPLICIT_CACHE_BYTES:
        singles = np.empty((n, words, n), dtype=np.uint64)
        for u in range(n):
            singles[u] = reach((u,))

    def mask_values(masks: np.ndarray) -> np.ndarray:
        return np.median(mask_pool_averages(masks, g.node_weights, cfg.pools,
                                            cfg.pool_size), axis=-1)

    block = max(1, _SCORE_BLOCK_BYTES // ((words + cfg.pools + 1) * n * 8))
    return singles, reach, mask_values, block


def _blocks(items, size: int):
    """Consecutive lists of at most ``size`` items."""
    items = iter(items)
    while chunk := list(islice(items, size)):
        yield chunk


def _first_max(blocks, scores):
    """``(item, value)`` of the first maximum score over blocks of candidates.

    A block's first maximum replaces the best only when strictly larger,
    so the result is the one a one-by-one scan with ``>`` would keep.
    """
    best, best_value = None, -math.inf
    for items in blocks:
        vals = scores(items)
        k = int(np.argmax(vals))
        if vals[k] > best_value:
            best, best_value = items[k], float(vals[k])
    return best, best_value


def brute_force_max(oracle, s: int) -> MaximizerResult:
    """Exact argmax of the oracle over subsets of size <= s, lexicographic ties.

    On a simulation :class:`Oracle` each size's subsets are scored a block
    at a time, in lexicographic order; any other oracle is queried one
    subset at a time.
    """
    n = oracle.num_nodes
    s = min(int(s), n)
    if s < 1:
        raise ValueError("seed budget must be at least 1")
    if math.comb(n, s) > BRUTE_FORCE_BUDGET:
        raise ValueError("subset count exceeds the brute-force budget")
    if isinstance(oracle, Oracle):
        singles, reach, mask_values, block = _explicit_reach(oracle)

        def scores(subsets):
            if singles is None:
                return mask_values(np.stack([reach(subset) for subset in subsets]))
            idx = np.array(subsets, dtype=np.intp)
            masks = singles[idx[:, 0]]
            for j in range(1, idx.shape[1]):
                masks |= singles[idx[:, j]]
            return mask_values(masks)
    else:
        block = 1

        def scores(subsets):
            return [oracle.query(subset) for subset in subsets]
    best_seeds, best_value = _first_max(
        chain.from_iterable(_blocks(combinations(range(n), size), block)
                            for size in range(1, s + 1)), scores)
    return MaximizerResult(best_seeds, best_value, _oracle_sims(oracle), "brute")


def greedy_max(oracle, s: int) -> MaximizerResult:
    """Greedy maximization: repeatedly add the node of largest oracle value.

    Ties go to the lowest id.  On a simulation :class:`Oracle` the reach
    mask of the chosen set is kept explicitly and the unchosen candidates
    ``u`` are scored a block at a time, in id order, from
    ``reach(S) | reach(u)`` through the oracle's own reduction, so the
    trace matches from-scratch queries bit for bit.  Any other oracle is
    queried with each candidate set.
    """
    if int(s) < 1:
        raise ValueError("seed budget must be at least 1")
    n = oracle.num_nodes
    chosen: list[int] = []
    explicit = isinstance(oracle, Oracle)
    if explicit:
        singles, reach, mask_values, block = _explicit_reach(oracle)
        reached = np.zeros((oracle._live.shape[0], n), dtype=np.uint64)

        def scores(nodes):
            if singles is None:
                masks = np.stack([reach((u,)) for u in nodes])
            else:
                masks = singles[nodes]
            masks |= reached
            return mask_values(masks)
    else:
        block = 1

        def scores(nodes):
            return [oracle.query(tuple(sorted(chosen + [u]))) for u in nodes]
    current = 0.0
    trace = []
    for _ in range(min(int(s), n)):
        candidates = [u for u in range(n) if u not in chosen]
        best_node, best_value = _first_max(_blocks(candidates, block), scores)
        chosen.append(best_node)
        if explicit:
            reached |= reach((best_node,)) if singles is None else singles[best_node]
        trace.append(GreedyStep(best_node, best_value - current, best_value))
        current = best_value
    return MaximizerResult(tuple(sorted(chosen)), current, _oracle_sims(oracle),
                           "greedy", tuple(trace))


def im_oracle_config(num_nodes: int, s: int, tau: int, epsilon: float, delta: float,
                     c: float, master_seed: int = 0) -> OracleConfig:
    """Median-of-averages layout sized for a uniform guarantee over all
    size-s seed sets (confidence split across the subset count)."""
    pool_size = size_for_guarantee(epsilon, delta, c, MEDIAN_OF_AVERAGES).pool_size
    delta_ma = delta / math.comb(num_nodes, min(int(s), num_nodes))
    return OracleConfig(required_pools(delta_ma), pool_size, tau, master_seed)


def maximize_im(model: DiffusionModel, s: int, tau: int, epsilon: float, delta: float,
                master_seed: int = 0, threads: int = 1) -> MaximizerResult:
    """End-to-end maximization with the worst-case oracle size.

    Uses brute force whenever the subset count fits the budget, so the
    quality of the answer reflects the oracle itself rather than greedy's
    approximation ratio; otherwise falls back to greedy.
    """
    c = c_value(model, tau)
    config = im_oracle_config(model.num_nodes, s, tau, epsilon, delta, c, master_seed)
    oracle = build_oracle(model, config, threads=threads)
    if math.comb(model.num_nodes, min(int(s), model.num_nodes)) <= BRUTE_FORCE_BUDGET:
        result = brute_force_max(oracle, s)
    else:
        result = greedy_max(oracle, s)
    return MaximizerResult(result.seeds, result.oracle_value, config.total_simulations,
                           "moa-" + result.method, result.trace)


@dataclass(frozen=True)
class AdaptiveRound:
    budget: int
    validation_budget: int
    seeds: tuple[int, ...]
    oracle_value: float
    validated_value: float
    accepted: bool


def adaptive_schedule(n0: int, worst_case: int) -> list[int]:
    """Doubling budgets capped so their sum stays within twice the worst case."""
    budgets = []
    b = max(1, int(n0))
    while b * 2 <= worst_case:
        budgets.append(b)
        b *= 2
    budgets.append(worst_case)
    return budgets


def adaptive_maximize(model: DiffusionModel, s: int, tau: int, epsilon: float,
                      delta: float, base: str = "greedy", master_seed: int = 0,
                      threads: int = 1) -> MaximizerResult:
    """Doubling-budget maximization with independent validation oracles.

    Round ``i`` optimizes over an averaging oracle of ``n0 * 2**i``
    simulations, then checks the candidate on a fresh median-of-averages
    oracle sized for a single set at confidence ``delta / (2 * (i+1)^2)``.
    A candidate is accepted when its validated estimate reaches
    ``(1 - 2 * epsilon)`` times its optimization-oracle value.  The final
    round unconditionally uses the worst-case construction, and the
    schedule keeps total optimization simulations at most twice the
    worst-case budget; validation simulations are accounted separately.
    """
    if base not in ("greedy", "brute"):
        raise ValueError("base algorithm must be 'greedy' or 'brute'")
    c = c_value(model, tau)
    worst_config = im_oracle_config(model.num_nodes, s, tau, epsilon, delta, c)
    worst_case = worst_config.total_simulations
    n0 = size_for_guarantee(epsilon, delta, c, AVERAGING).pool_size
    budgets = adaptive_schedule(n0, worst_case)
    threshold = 1.0 - 2.0 * epsilon
    rounds: list[AdaptiveRound] = []
    opt_used = 0
    val_used = 0
    for i, budget in enumerate(budgets):
        final = i == len(budgets) - 1
        opt_seed = rng.derive_seed(master_seed, _PURPOSE_ROUND_ORACLE, i)
        if final:
            config = OracleConfig(worst_config.pools, worst_config.pool_size, tau, opt_seed)
        else:
            config = OracleConfig(1, budget, tau, opt_seed)
        oracle = build_oracle(model, config, threads=threads)
        if base == "brute" and math.comb(model.num_nodes,
                                         min(int(s), model.num_nodes)) <= BRUTE_FORCE_BUDGET:
            candidate = brute_force_max(oracle, s)
        else:
            candidate = greedy_max(oracle, s)
        opt_used += config.total_simulations
        delta_i = delta / (2.0 * (i + 1) ** 2)
        val_seed = rng.derive_seed(master_seed, _PURPOSE_ROUND_VALIDATION, i)
        val_config = size_for_guarantee(epsilon, delta_i, c, MEDIAN_OF_AVERAGES,
                                        tau=tau, master_seed=val_seed)
        validation = build_oracle(model, val_config, threads=threads)
        validated = validation.query(candidate.seeds)
        val_used += val_config.total_simulations
        accepted = final or validated >= threshold * candidate.oracle_value
        rounds.append(AdaptiveRound(config.total_simulations,
                                    val_config.total_simulations,
                                    candidate.seeds, candidate.oracle_value,
                                    validated, accepted))
        if accepted:
            return MaximizerResult(candidate.seeds, validated, opt_used,
                                   "adaptive-" + base, candidate.trace,
                                   validation_simulations=val_used,
                                   rounds=tuple(rounds))
    raise AssertionError("unreachable: final round always accepts")
