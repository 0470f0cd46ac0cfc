"""Seed-set optimization over influence oracles.

Brute force enumerates all subsets up to the budget; greedy adds the node
of maximum marginal oracle value at each step (ties to the lowest id).
``maximize_im`` wires greedy/brute force to a median-of-averages oracle
sized so the returned set is near-optimal with high probability, and
``adaptive_maximize`` wraps either base algorithm in a doubling schedule
that validates candidates on small independent oracles and stops early
when the data allows it.

Brute force and greedy accept any object with ``num_nodes`` and
``query``.  Each subset size is scored by one ``subset_values`` call
where the oracle has it (``Oracle`` does: it grows each prefix by the
nodes above it), else by one ``query_many`` call where it has that
(``ExactInfluence`` does), else by one ``query`` per set.  Each greedy
step is scored by one ``extension_values`` call where the oracle has it
(``Oracle`` does: it looks up only the columns each candidate reaches),
else in the same way as a subset size.  The first maximum wins ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

# reach_mask_batch is no longer called here; it stays a module attribute
# because perfbench/layers.py wraps it at this site.
from .models import DiffusionModel, reach_mask_batch  # noqa: F401
from .estimators import (AVERAGING, MEDIAN_OF_AVERAGES, OracleConfig, build_oracle,
                         pool_median, required_pools, seed_set_pool_averages,
                         size_for_guarantee)
from .exact import c_value
from . import rng

BRUTE_FORCE_BUDGET = 10**6

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


def _values(oracle, seed_sets) -> np.ndarray:
    """Oracle values of ``seed_sets``, in order: one ``query_many`` call when
    the oracle has it, else one ``query`` per set."""
    query_many = getattr(oracle, "query_many", None)
    if query_many is not None:
        return query_many(seed_sets)
    return np.array([oracle.query(seeds) for seeds in seed_sets], dtype=np.float64)


def brute_force_fits(num_nodes: int, s: int) -> bool:
    """Whether the subsets of every size from 1 to ``s``, all of which
    :func:`brute_force_max` scores, fit in ``BRUTE_FORCE_BUDGET``.  The sum
    of ``C(n, j)`` stops at the first term past the budget."""
    total, count = 0, 1
    for j in range(1, min(int(s), num_nodes) + 1):
        count = count * (num_nodes - j + 1) // j
        total += count
        if total > BRUTE_FORCE_BUDGET:
            return False
    return True


def brute_force_max(oracle, s: int) -> MaximizerResult:
    """Exact argmax of the oracle over subsets of size <= s, lexicographic ties.

    Each size's subsets are scored in one batch, in lexicographic order
    (the oracle's ``subset_values`` where it has one, else :func:`_values`);
    a size's first maximum replaces the best only when strictly larger.
    """
    n = oracle.num_nodes
    s = min(int(s), n)
    if s < 1:
        raise ValueError("seed budget must be at least 1")
    if not brute_force_fits(n, s):
        raise ValueError("subset count exceeds the brute-force budget")
    subset_values = getattr(oracle, "subset_values", None)
    best_seeds, best_value = None, -math.inf
    for size in range(1, s + 1):
        if subset_values is not None:
            values = subset_values(size)
        else:
            values = _values(oracle, combinations(range(n), size))
        k = int(np.argmax(values))
        if values[k] > best_value:
            best_seeds = next(islice(combinations(range(n), size), k, None))
            best_value = float(values[k])
    return MaximizerResult(best_seeds, best_value, _oracle_sims(oracle), "brute")


def greedy_max(oracle, s: int) -> MaximizerResult:
    """Greedy maximization: repeatedly add the node of largest oracle value.

    Each step scores the chosen set plus each unchosen node, in id order,
    in one batch: the oracle's ``extension_values`` of the chosen set where
    it has one, else the values of the grown sets (:func:`_values`).  So
    ties go to the lowest id and the trace matches from-scratch queries bit
    for bit.
    """
    if int(s) < 1:
        raise ValueError("seed budget must be at least 1")
    n = oracle.num_nodes
    extension_values = getattr(oracle, "extension_values", None)
    chosen: list[int] = []
    current, trace = 0.0, []
    for _ in range(min(int(s), n)):
        candidates = [u for u in range(n) if u not in chosen]
        if extension_values is not None:
            values = extension_values(chosen, candidates)
        else:
            values = _values(oracle, (tuple(sorted(chosen + [u])) for u in candidates))
        k = int(np.argmax(values))
        node, value = candidates[k], float(values[k])
        chosen.append(node)
        trace.append(GreedyStep(node, value - current, value))
        current = value
    return MaximizerResult(tuple(sorted(chosen)), current, _oracle_sims(oracle),
                           "greedy", tuple(trace))


def im_oracle_config(num_nodes: int, s: int, tau: int, epsilon: float, delta: float,
                     c: float, master_seed: int = 0) -> OracleConfig:
    """Median-of-averages layout sized for a uniform guarantee over all
    size-s seed sets (confidence split across the subset count)."""
    if int(s) < 1:
        raise ValueError("seed budget must be at least 1")
    pool_size = size_for_guarantee(epsilon, delta, c, MEDIAN_OF_AVERAGES).pool_size
    try:
        pools = required_pools(delta / math.comb(num_nodes, min(int(s), num_nodes)))
    except (OverflowError, ZeroDivisionError, ValueError):
        raise ValueError(f"too many seed sets to split delta over: C(n={num_nodes}, "
                         f"s={int(s)}) exceeds the float range") from None
    return OracleConfig(pools, pool_size, tau, master_seed)


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
    if brute_force_fits(model.num_nodes, s):
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
        if base == "brute" and brute_force_fits(model.num_nodes, s):
            candidate = brute_force_max(oracle, s)
        else:
            candidate = greedy_max(oracle, s)
        opt_used += config.total_simulations
        delta_i = delta / (2.0 * (i + 1) ** 2)
        val_seed = rng.derive_seed(master_seed, _PURPOSE_ROUND_VALIDATION, i)
        val_config = size_for_guarantee(epsilon, delta_i, c, MEDIAN_OF_AVERAGES,
                                        tau=tau, master_seed=val_seed)
        validated = float(pool_median(
            seed_set_pool_averages(model, val_config, candidate.seeds, threads)))
        val_used += val_config.total_simulations
        accepted = final or validated >= threshold * candidate.oracle_value
        rounds.append(AdaptiveRound(config.total_simulations,
                                    val_config.total_simulations,
                                    candidate.seeds, candidate.oracle_value,
                                    validated, accepted))
        if accepted:
            return MaximizerResult(candidate.seeds, validated, opt_used,
                                   "adaptive-" + candidate.method, candidate.trace,
                                   validation_simulations=val_used,
                                   rounds=tuple(rounds))
    raise AssertionError("unreachable: final round always accepts")
