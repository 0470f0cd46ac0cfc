"""Seed-set optimization over influence oracles.

Brute force enumerates all subsets up to the budget; greedy adds the node
of maximum marginal oracle value at each step (ties to the lowest id).
``maximize_im`` wires greedy/brute force to a median-of-averages oracle
sized so the returned set is near-optimal with high probability, and
``adaptive_maximize`` wraps either base algorithm in a doubling schedule
that validates candidates on small independent oracles and stops early
when the data allows it.

Brute force and greedy accept any object with ``num_nodes`` and
``query``.  On a simulation :class:`Oracle` they share memoized
single-source reach masks, score a set as the union of its members'
masks, and reduce that union through ``mask_pool_averages`` as
``oracle.query`` does, so their values equal ``oracle.query`` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .graph import as_seed_tuple
from .models import DiffusionModel, reach_mask_batch
from .estimators import (AVERAGING, MEDIAN_OF_AVERAGES, Oracle, OracleConfig,
                         build_oracle, mask_pool_averages, required_pools,
                         size_for_guarantee)
from .exact import c_value
from . import rng

BRUTE_FORCE_BUDGET = 10**6
_EXPLICIT_CACHE_BYTES = 1 << 27

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
    """Single-source reach masks over the oracle's simulations.

    ``reach(S)`` is the union of its members' single-source reaches, so
    ``mask_value(reach(S))`` reproduces ``oracle.query(S)`` bit for bit.
    Returns ``(single_reach, mask_value, cached)``: masks are memoized while
    all ``n`` of them fit in ``_EXPLICIT_CACHE_BYTES``, and ``cached``
    says whether they do.
    """
    g = oracle.model.graph
    live = oracle._live
    n = g.num_nodes
    cache: dict[int, np.ndarray] | None = {}
    if n * live.shape[0] * n > _EXPLICIT_CACHE_BYTES:
        cache = None

    def single_reach(u: int) -> np.ndarray:
        if cache is not None and u in cache:
            return cache[u]
        mask = reach_mask_batch(g, live, (u,), oracle.config.tau)
        if cache is not None:
            cache[u] = mask
        return mask

    def mask_value(mask: np.ndarray) -> float:
        return float(np.median(mask_pool_averages(mask, g.node_weights,
                                                  oracle.config.pools)))

    return single_reach, mask_value, cache is not None


def brute_force_max(oracle, s: int) -> MaximizerResult:
    """Exact argmax of the oracle over subsets of size <= s, lexicographic ties."""
    n = oracle.num_nodes
    s = min(int(s), n)
    if s < 1:
        raise ValueError("seed budget must be at least 1")
    if math.comb(n, s) > BRUTE_FORCE_BUDGET:
        raise ValueError("subset count exceeds the brute-force budget")
    value_of = oracle.query
    if isinstance(oracle, Oracle):
        single_reach, mask_value, cached = _explicit_reach(oracle)
        if cached:
            def value_of(subset):
                mask = single_reach(subset[0])
                for v in subset[1:]:
                    mask = mask | single_reach(v)
                return mask_value(mask)
    best_seeds, best_value = None, -math.inf
    for size in range(1, s + 1):
        for subset in combinations(range(n), size):
            value = value_of(subset)
            if value > best_value:
                best_seeds, best_value = subset, value
    return MaximizerResult(best_seeds, best_value, _oracle_sims(oracle), "brute")


def greedy_max(oracle, s: int) -> MaximizerResult:
    """Greedy maximization: repeatedly add the node of largest oracle value.

    Ties go to the lowest id.  On a simulation :class:`Oracle` the reach
    mask of the chosen set is kept explicitly and each candidate ``u`` is
    scored from ``reach(S) | reach(u)`` through the oracle's own
    reduction, so the trace matches from-scratch queries bit for bit.
    Any other oracle is queried with the candidate set.
    """
    if int(s) < 1:
        raise ValueError("seed budget must be at least 1")
    n = oracle.num_nodes
    explicit = isinstance(oracle, Oracle)
    if explicit:
        single_reach, mask_value, _ = _explicit_reach(oracle)
        reached = np.zeros((oracle._live.shape[0], n), dtype=bool)
    chosen: list[int] = []
    current = 0.0
    trace = []
    for _ in range(min(int(s), n)):
        best_node, best_value = -1, -math.inf
        for u in range(n):
            if u in chosen:
                continue
            if explicit:
                candidate = mask_value(reached | single_reach(u))
            else:
                candidate = oracle.query(tuple(sorted(chosen + [u])))
            if candidate > best_value:
                best_node, best_value = u, candidate
        chosen.append(best_node)
        if explicit:
            reached |= single_reach(best_node)
        trace.append(GreedyStep(best_node, best_value - current, best_value))
        current = best_value
    return MaximizerResult(tuple(sorted(chosen)), current, _oracle_sims(oracle),
                           "greedy", tuple(trace))


def im_oracle_config(num_nodes: int, s: int, tau: int, epsilon: float, delta: float,
                     c: float, master_seed: int = 0) -> OracleConfig:
    """Median-of-averages layout sized for a uniform guarantee over all
    size-s seed sets (confidence split across the subset count)."""
    delta_ma = delta / math.comb(num_nodes, min(int(s), num_nodes))
    pool_size = math.ceil(4 * c / (epsilon * epsilon))
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
