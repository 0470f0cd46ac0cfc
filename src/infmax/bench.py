"""Acceptance benchmark: one runner per shipped guarantee.

Each criterion function performs a self-contained experiment with its own
derived seeds and returns a :class:`CriterionResult` whose ``metrics`` are
pure functions of ``(master_seed,)`` -- wall-clock time is reported
separately so two runs can be compared numerically.
"""

from __future__ import annotations

import math
import time
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .graph import Graph, as_seed_tuple
from .models import (DiffusionModel, ic_model, lt_model, bdep_model, mixture_model,
                     reach_mask_batch, row_values, sample_pool)
from .exact import (audit_variance_bound, c_value, depth_profile, exact_influence_map,
                    exact_report, exact_values)
from .estimators import (AVERAGING, MEDIAN_OF_AVERAGES, FULL_SIMULATION, MARGINAL,
                         OracleConfig, build_oracle, check_eps_approx,
                         marginal_edge_model, pool_median, rrs_estimate,
                         seed_set_pool_averages, size_for_guarantee)
from .sketches import build_sketches, sketch_query
from .maximize import adaptive_maximize, greedy_max, im_oracle_config, maximize_im
from . import families
from . import rng

_Z99 = 2.3263478740408408  # one-sided 99% normal quantile


@dataclass
class CriterionResult:
    name: str
    passed: bool
    runtime_s: float
    metrics: dict
    notes: str = ""


def wilson_upper(failures: int, trials: int, z: float = _Z99) -> float:
    """One-sided Wilson upper confidence bound on a failure proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = failures / trials
    z2 = z * z
    center = phat + z2 / (2 * trials)
    rad = z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials))
    return (center + rad) / (1 + z2 / trials)


# ---------------------------------------------------------------------------
# Random instance families for the audits (harness-local, keyed)

def _random_lt(seed: int) -> DiffusionModel:
    g = rng.stream(seed, rng.STREAM_FAMILY, 1)
    n = 6 + int(g.integers(0, 4))
    m = int(g.integers(6, 13))
    codes = g.choice(n * (n - 1), size=min(m, n * (n - 1)), replace=False)
    codes.sort()
    raw = g.uniform(0.1, 0.9, size=codes.size)
    tails, heads = [], []
    for code in codes:
        t, off = divmod(int(code), n - 1)
        tails.append(t)
        heads.append(off if off < t else off + 1)
    sums = np.zeros(n)
    for h, p in zip(heads, raw):
        sums[h] += p
    probs = [p * min(1.0, 0.9 / sums[h]) for h, p in zip(heads, raw)]
    edges = list(zip(tails, heads, probs))
    return lt_model(Graph.from_edges(n, edges))


def _random_bdep(seed: int, b: int) -> DiffusionModel:
    g = rng.stream(seed, rng.STREAM_FAMILY, 2)
    n = 6 + int(g.integers(0, 4))
    used = set()
    edges = []
    gid = 0
    for t in g.choice(n, size=3, replace=False):
        t = int(t)
        others = [h for h in range(n) if h != t]
        size = int(g.integers(2, b + 1))
        picks = g.choice(len(others), size=min(size, len(others)), replace=False)
        p = float(g.uniform(0.2, 0.8))
        for ix in picks:
            h = others[int(ix)]
            if (t, h) not in used:
                used.add((t, h))
                edges.append((t, h, p, gid))
        gid += 1
    for _ in range(4):
        t, h = int(g.integers(0, n)), int(g.integers(0, n))
        if t != h and (t, h) not in used:
            used.add((t, h))
            edges.append((t, h, float(g.uniform(0.1, 0.9))))
    return bdep_model(Graph.from_edges(n, edges), b=b)


def _random_mixture(seed: int) -> DiffusionModel:
    g = rng.stream(seed, rng.STREAM_FAMILY, 3)
    n = 6 + int(g.integers(0, 3))
    w = round(float(g.uniform(0.3, 0.7)), 3)
    c1 = families.gen_random_ic(n, int(g.integers(5, 9)), seed=rng.derive_seed(seed, 31))
    c2 = families.gen_random_ic(n, int(g.integers(5, 9)), seed=rng.derive_seed(seed, 32))
    return mixture_model([(c1, w), (c2, 1.0 - w)])


def _audit_instances(master_seed: int):
    instances = []
    for j in range(14):
        s = rng.derive_seed(master_seed, 2, j)
        g = rng.stream(s, rng.STREAM_FAMILY, 4)
        n = 6 + int(g.integers(0, 4))
        m = int(g.integers(6, 13))
        instances.append(("ic", families.gen_random_ic(n, m, seed=s)))
    for j in range(13):
        instances.append(("lt", _random_lt(rng.derive_seed(master_seed, 2, 100 + j))))
    for j in range(13):
        b = 2 if j % 2 == 0 else 3
        instances.append((f"bdep{b}", _random_bdep(rng.derive_seed(master_seed, 2, 200 + j), b)))
    for j in range(12):
        instances.append(("mixture", _random_mixture(rng.derive_seed(master_seed, 2, 300 + j))))
    return instances


# ---------------------------------------------------------------------------
# Criterion 1: tree family variance

def _tree_reach_distribution(depth: int) -> np.ndarray:
    """Exact distribution of the root's full reach in gen_tree(depth).

    Left and right subtrees are independent, so the distribution is the
    (shifted) self-convolution of `dead-or-subtree`; this enumerates the
    full outcome space without visiting 2^m bitmasks.
    """
    dist = np.array([0.0, 1.0])
    for _ in range(depth):
        child = 0.5 * dist
        child[0] += 0.5
        conv = np.convolve(child, child)
        dist = np.concatenate([[0.0], conv])
    return dist


def criterion_tree_variance(master_seed: int = 0, threads: int = 1) -> CriterionResult:
    start = time.perf_counter()
    metrics: dict = {}
    ok = True
    # Convention (checked for every depth): the closed forms mean(tau) = tau,
    # var(tau) = tau*(tau-1)*(2*tau-1)/12 count node levels, so a tree with
    # `depth` edge levels realizes them at tau = depth + 1.
    for depth in (2, 3, 4, 5):
        dist = _tree_reach_distribution(depth)
        values = np.arange(dist.size)
        # Correctly rounded sums, so the closed forms hold to the last bit.
        mean = math.fsum(values * dist)
        var = math.fsum(values * values * dist) - mean * mean
        tau_formula = depth + 1
        formula_mean = float(tau_formula)
        formula_var = tau_formula * (tau_formula - 1) * (2 * tau_formula - 1) / 12.0
        model = families.gen_tree(depth)
        if depth <= 3:
            report = exact_report(model, (0,), depth)
            enum_ok = (abs(report.influence - mean) <= 1e-9
                       and abs(report.variance - var) <= 1e-9)
        else:
            enum_ok = True
        live, _ = sample_pool(model, rng.derive_seed(master_seed, 1, depth), 100_000,
                              threads=threads, packed=True)
        vals = row_values(model.graph, reach_mask_batch(model.graph, live, (0,), depth),
                          100_000)
        mc_var = float(vals.var(ddof=1))
        mc_ok = abs(mc_var / var - 1.0) <= 0.05
        formula_ok = (abs(var - formula_var) <= 1e-9 and abs(mean - formula_mean) <= 1e-9)
        ok = ok and enum_ok and mc_ok and formula_ok
        metrics[f"depth{depth}"] = {
            "exact_mean": mean, "exact_var": var,
            "formula_tau": tau_formula, "formula_var": formula_var,
            "mc_var": mc_var, "enum_cross_check": enum_ok,
            "formula_match": formula_ok, "mc_within_5pct": mc_ok,
        }
    runtime = time.perf_counter() - start
    ok = ok and runtime < 120
    return CriterionResult(
        "tree-variance", ok, runtime, metrics,
        "closed forms hold at tau = edge-depth + 1 (node-level count); "
        "enumeration cross-checked at depth <= 3, Monte Carlo at 1e5 draws")


# ---------------------------------------------------------------------------
# Criterion 2: variance-bound audit across model families

def criterion_variance_audits(master_seed: int = 0, threads: int = 1) -> CriterionResult:
    start = time.perf_counter()
    instances = _audit_instances(master_seed)
    violations = 0
    audits = 0
    min_slack = math.inf
    for j, (kind, model) in enumerate(instances):
        n = model.num_nodes
        g = rng.stream(rng.derive_seed(master_seed, 2, 400 + j), rng.STREAM_FAMILY, 5)
        multi = tuple(sorted(int(v) for v in g.choice(n, size=3, replace=False)))
        for tau in (1, 2, 3):
            c = c_value(model, tau)
            seed_sets = [(v,) for v in range(n)] + [multi]
            for seeds in seed_sets:
                audit = audit_variance_bound(model, seeds, tau, c)
                audits += 1
                if not audit.holds:
                    violations += 1
                if audit.rhs > 0:
                    min_slack = min(min_slack, 1.0 - audit.lhs / audit.rhs)
    runtime = time.perf_counter() - start
    ok = violations == 0 and len(instances) >= 50 and runtime < 300
    return CriterionResult(
        "variance-bound-audit", ok, runtime,
        {"instances": len(instances), "audits": audits, "violations": violations,
         "min_relative_slack": min_slack},
        "Var <= c*I*max(I, opt1) with c from c_value, exact enumeration both sides")


# ---------------------------------------------------------------------------
# Criteria 3 and 4: averaging and median-of-averages guarantees

def rebuild_failures(model, config, truth, opt1, epsilon, rebuilds, master_seed,
                     purpose, threads):
    """How many of ``rebuilds`` oracles laid out as ``config`` estimate the
    root set ``(0,)`` off ``truth`` by more than ``epsilon * max(truth, opt1)``.
    Build ``i`` reseeds ``config`` with ``derive_seed(master_seed, purpose, i)``."""
    failures = 0
    for i in range(rebuilds):
        seeded = replace(config, master_seed=rng.derive_seed(master_seed, purpose, i))
        estimate = float(pool_median(seed_set_pool_averages(model, seeded, (0,), threads)))
        if not check_eps_approx(estimate, truth, opt1, epsilon):
            failures += 1
    return failures


def _tree_guarantee(mode, master_seed, purpose, threads):
    """Criteria 3 and 4's tree half: 1000 rebuilds of a ``mode`` oracle sized
    for eps 0.5, delta 0.1 and c 3 on ``gen_tree(3)`` at tau 3.  Returns the
    sized config, the root's exact report, whether the failures' Wilson
    bound is within delta, and the failure metrics."""
    model = families.gen_tree(3)
    epsilon, delta, c, tau = 0.5, 0.1, 3.0, 3
    report = exact_report(model, (0,), tau)
    config = size_for_guarantee(epsilon, delta, c, mode, tau=tau)
    rebuilds = 1000
    failures = rebuild_failures(model, config, report.influence, report.opt1, epsilon,
                                rebuilds, master_seed, purpose, threads)
    upper = wilson_upper(failures, rebuilds)
    return config, report, upper <= delta, {"rebuilds": rebuilds, "failures": failures,
                                            "wilson_upper_99": upper}


def criterion_averaging_guarantee(master_seed: int = 0, threads: int = 1) -> CriterionResult:
    start = time.perf_counter()
    config, report, bounded, metrics = _tree_guarantee(AVERAGING, master_seed, 3, threads)
    runtime = time.perf_counter() - start
    ok = config.pool_size == 120 and bounded and runtime < 120
    return CriterionResult(
        "averaging-guarantee", ok, runtime,
        {"pool_size": config.pool_size, **metrics,
         "truth": report.influence, "opt1": report.opt1},
        "single-pool oracle, failure fraction Wilson-bounded by delta")


def criterion_moa_guarantee(master_seed: int = 0, threads: int = 1) -> CriterionResult:
    start = time.perf_counter()
    config, _, bounded, metrics = _tree_guarantee(MEDIAN_OF_AVERAGES, master_seed, 4,
                                                  threads)

    # Equal-total-simulation comparison on a heavy-tailed instance.
    poly = families.gen_polysimu(300)
    ptau, p_eps = 2, 0.5
    moa_cfg = size_for_guarantee(p_eps, 0.05, c_value(poly, ptau), MEDIAN_OF_AVERAGES,
                                 tau=ptau)
    total = moa_cfg.total_simulations
    singles = exact_values(poly, ptau, [(v,) for v in range(poly.num_nodes)])
    truth, opt1 = float(singles[0]), float(singles.max())
    trials = 200
    moa_failures = rebuild_failures(poly, moa_cfg, truth, opt1, p_eps, trials,
                                    master_seed, 41, threads)
    avg_failures = rebuild_failures(poly, OracleConfig(1, total, ptau), truth, opt1, p_eps,
                                    trials, master_seed, 42, threads)
    runtime = time.perf_counter() - start
    ok = (config.pool_size == 48 and config.pools >= 28 * math.log(10.0)
          and bounded and moa_failures <= avg_failures and runtime < 300)
    return CriterionResult(
        "median-amplification", ok, runtime,
        {"pool_size": config.pool_size, "pools": config.pools, **metrics,
         "equal_total": total, "moa_failures": moa_failures,
         "avg_failures": avg_failures, "comparison_trials": trials,
         "poly_truth": truth, "poly_opt1": opt1},
        "pool medians amplify confidence; equal-budget comparison on the "
        "high-variance gadget")


# ---------------------------------------------------------------------------
# Criterion 5: end-to-end sample bound for maximization

def criterion_im_guarantee(master_seed: int = 0, threads: int = 1) -> CriterionResult:
    start = time.perf_counter()
    s, tau, epsilon, delta = 2, 2, 0.25, 0.1
    model = families.gen_random_ic(12, 20, seed=rng.derive_seed(master_seed, 5, 0))
    influence = exact_influence_map(model, tau, s)
    opt_seeds, opt = max(influence.items(), key=lambda kv: (kv[1], [-v for v in kv[0]]))
    trials = 100
    successes = 0
    sims_used = None
    for t in range(trials):
        result = maximize_im(model, s, tau, epsilon, delta,
                             master_seed=rng.derive_seed(master_seed, 5, 1 + t),
                             threads=threads)
        sims_used = result.simulations_used
        if influence[result.seeds] >= (1.0 - 2.0 * epsilon) * opt:
            successes += 1
    runtime = time.perf_counter() - start
    ok = successes >= 95 and runtime < 600
    return CriterionResult(
        "im-sample-bound", ok, runtime,
        {"trials": trials, "successes": successes, "opt": opt,
         "opt_seeds": list(opt_seeds), "simulations_per_trial": sims_used},
        "guarantee requires >= 90 of 100 at delta = 0.1; the oracle is far "
        "inside its worst case on this instance, so >= 95 is asserted")


# ---------------------------------------------------------------------------
# Criterion 6: greedy under adversarial uniform oracle error

class _PerturbedOracle:
    """Exact values of every small seed set plus a signed uniform eps_A
    relative/additive error."""

    def __init__(self, influence: dict, num_nodes: int, eps_a: float, opt1: float, sign_fn):
        self.influence = influence
        self.num_nodes = num_nodes
        self.eps_a = eps_a
        self.opt1 = opt1
        self.sign_fn = sign_fn

    def query(self, seeds) -> float:
        seeds = as_seed_tuple(self.num_nodes, seeds)
        value = self.influence[seeds]
        return value + self.sign_fn(seeds) * self.eps_a * max(value, self.opt1)


def criterion_perturbed_greedy(master_seed: int = 0, threads: int = 1) -> CriterionResult:
    start = time.perf_counter()
    epsilon = 0.3
    tau = 2
    instances = 100
    worst_ratio = math.inf
    failures = 0
    for j in range(instances):
        s = 2 if j % 2 == 0 else 3
        eps_a = epsilon * (1.0 - epsilon) / (14.0 * s)
        inst_seed = rng.derive_seed(master_seed, 6, j)
        g = rng.stream(inst_seed, rng.STREAM_FAMILY, 6)
        n = 6 + int(g.integers(0, 5))
        m = min(int(g.integers(7, 13)), n * (n - 1))
        model = families.gen_random_ic(n, m, seed=inst_seed)
        influence = exact_influence_map(model, tau, s)
        opt = max(influence.values())
        opt1 = max(influence[(v,)] for v in range(n))
        best_single = max(range(n), key=lambda v: (influence[(v,)], -v))
        ratio_bound = (1.0 - (1.0 - 1.0 / s) ** s) * (1.0 - epsilon)

        def hash_sign(seeds, _seed=inst_seed):
            data = (str(_seed) + ":" + ",".join(map(str, seeds))).encode()
            return 1.0 if zlib.crc32(data) & 1 else -1.0

        def adversarial_sign(seeds, _best=best_single):
            # Deflate everything touching the genuinely best first pick.
            return -1.0 if _best in seeds else 1.0

        for sign_fn in (hash_sign, adversarial_sign):
            perturbed = _PerturbedOracle(influence, n, eps_a, opt1, sign_fn)
            result = greedy_max(perturbed, s)
            achieved = influence[result.seeds]
            worst_ratio = min(worst_ratio, achieved / opt)
            if achieved < ratio_bound * opt - 1e-12:
                failures += 1
    runtime = time.perf_counter() - start
    ok = failures == 0 and runtime < 60
    return CriterionResult(
        "perturbed-greedy", ok, runtime,
        {"instances": instances, "failures": failures, "worst_ratio": worst_ratio},
        "uniform eps(1-eps)/(14s) error, hash-signed and adversarially signed")


# ---------------------------------------------------------------------------
# Criterion 7: sketch estimator coefficient of variation

def criterion_sketch_cv(master_seed: int = 0, threads: int = 1) -> CriterionResult:
    start = time.perf_counter()
    # One deterministic simulation of a 200-node star: exactly 200 reachable
    # (node, simulation) pairs from the center.
    leaves = 199
    edges = [(0, v, 1.0) for v in range(1, leaves + 1)]
    model = ic_model(Graph.from_edges(leaves + 1, edges))
    pool, _ = sample_pool(model, master_seed, 1)
    truth = build_oracle(model, OracleConfig(1, 1, 1, master_seed)).query((0,))
    k = 102
    redraws = 1000
    estimates = np.empty(redraws)
    for j in range(redraws):
        sk = build_sketches(model, pool, 1, k, rng.derive_seed(master_seed, 7, j))
        estimates[j] = sketch_query(sk, (0,), 1)
    cv = float(estimates.std(ddof=1) / estimates.mean())
    lossless = build_sketches(model, pool, 1, 300, rng.derive_seed(master_seed, 7, redraws))
    lossless_equal = sketch_query(lossless, (0,), 1) == truth
    runtime = time.perf_counter() - start
    ok = 0.08 <= cv <= 0.12 and lossless_equal and runtime < 60
    return CriterionResult(
        "sketch-cv", ok, runtime,
        {"k": k, "pairs": leaves + 1, "redraws": redraws, "cv": cv,
         "mean_estimate": float(estimates.mean()), "truth": truth,
         "lossless_bit_exact": bool(lossless_equal)},
        "cv measured as std/mean over rank redraws; nominal 1/sqrt(k-2) = 0.1")


# ---------------------------------------------------------------------------
# Criterion 8: reverse-search bias on the two-world mixture

def criterion_rrs_bias(master_seed: int = 0, threads: int = 1) -> CriterionResult:
    start = time.perf_counter()
    model = families.gen_two_world_mixture()
    tau = families.TWO_WORLD_TAU
    n = model.num_nodes
    singles = [(v,) for v in range(n)]
    truth = exact_values(model, tau, singles)
    marg_expect = exact_values(marginal_edge_model(model), tau, singles)
    true_argmax = int(np.argmax(truth))
    marg_argmax = int(np.argmax(marg_expect))
    searches = 100_000
    full = rrs_estimate(model, FULL_SIMULATION, searches, tau,
                        rng.derive_seed(master_seed, 8, 0))
    marg = rrs_estimate(model, MARGINAL, searches, tau,
                        rng.derive_seed(master_seed, 8, 1))

    def within_4sigma(est, expect):
        q = expect / n
        sigma = n * np.sqrt(q * (1 - q) / searches)
        return bool(np.all(np.abs(est - expect) <= 4 * sigma + 1e-12))

    full_ok = within_4sigma(full, truth) and int(np.argmax(full)) == true_argmax
    marg_ok = (within_4sigma(marg, marg_expect)
               and int(np.argmax(marg)) == marg_argmax)
    runtime = time.perf_counter() - start
    ok = (marg_argmax != true_argmax) and full_ok and marg_ok and runtime < 120
    return CriterionResult(
        "rrs-bias", ok, runtime,
        {"true_influence": truth.tolist(), "marginal_expectation": marg_expect.tolist(),
         "true_argmax": true_argmax, "marginal_argmax": marg_argmax,
         "full_estimates": full.tolist(), "marginal_estimates": marg.tolist(),
         "searches": searches},
        "full-simulation searches are unbiased and recover the maximizer; "
        "marginal flips select a different node")


# ---------------------------------------------------------------------------
# Criterion 9: adaptive wrapper budget and quality

def _adaptive_run(model, s, base, values, seed, threads) -> dict:
    """One adaptive run at tau 1 and eps = delta = 0.1, scored by the exact
    ``values`` of the seed sets of size <= ``s`` and against the worst-case
    optimization budget."""
    epsilon, delta = 0.1, 0.1
    worst = im_oracle_config(model.num_nodes, s, 1, epsilon, delta,
                             c_value(model, 1)).total_simulations
    result = adaptive_maximize(model, s, 1, epsilon, delta, base=base, master_seed=seed,
                               threads=threads)
    achieved, opt = values[result.seeds], max(values.values())
    frac = result.simulations_used / worst
    ok = (frac <= 0.1 and achieved >= (1 - 5 * epsilon) * opt
          and result.simulations_used <= 2 * worst)
    return {"budget_fraction": frac, "achieved": achieved, "opt": opt,
            "opt_sims": result.simulations_used,
            "validation_sims": result.validation_simulations,
            "worst_case": worst, "rounds": len(result.rounds), "ok": ok}


def criterion_adaptive(master_seed: int = 0, threads: int = 1) -> CriterionResult:
    start = time.perf_counter()
    cover = ic_model(Graph.from_edges(5, [(0, 1, 1.0), (0, 2, 1.0), (3, 4, 1.0)]))
    # Exact one-step influence of the star in closed form: the center covers
    # itself plus 200 half-probability leaves; every leaf covers itself.
    star_values = {(v,): 101.0 if v == 0 else 1.0 for v in range(201)}
    runs = {"max_cover": _adaptive_run(cover, 2, "brute", exact_influence_map(cover, 1, 2),
                                       rng.derive_seed(master_seed, 9, 0), threads),
            "independent_star": _adaptive_run(families.gen_star(200, dependent=False), 1,
                                              "greedy", star_values,
                                              rng.derive_seed(master_seed, 9, 1), threads)}
    runtime = time.perf_counter() - start
    ok = all(run["ok"] for run in runs.values()) and runtime < 180
    return CriterionResult(
        "adaptive-budget", ok, runtime, runs,
        "early acceptance uses <= 10% of the worst-case optimization budget; "
        "validation simulations accounted separately")


# ---------------------------------------------------------------------------
# Criterion 11: step-limited influence approximates unrestricted influence

def criterion_depth_profile(master_seed: int = 0, threads: int = 1) -> CriterionResult:
    start = time.perf_counter()
    instances = _audit_instances(master_seed)[:20]
    violations = 0
    checks = 0
    for j, (kind, model) in enumerate(instances):
        n = model.num_nodes
        g = rng.stream(rng.derive_seed(master_seed, 11, j), rng.STREAM_FAMILY, 7)
        seeds = tuple(sorted(int(v) for v in g.choice(n, size=2, replace=False)))
        profile = depth_profile(model, seeds)
        full = float(profile.influence_by_tau[-1])
        for eps in (0.5, 0.25):
            t = min(math.ceil(profile.mean_depth / eps), n - 1)
            checks += 1
            if profile.influence_by_tau[t] < (1 - eps) * full - 1e-9:
                violations += 1
    runtime = time.perf_counter() - start
    ok = violations == 0 and len(instances) == 20
    return CriterionResult(
        "depth-profile", ok, runtime,
        {"instances": len(instances), "checks": checks, "violations": violations},
        "influence at ceil(mean_depth/eps) steps retains a (1-eps) share of "
        "the unrestricted value")


ALL_CRITERIA = {
    1: criterion_tree_variance,
    2: criterion_variance_audits,
    3: criterion_averaging_guarantee,
    4: criterion_moa_guarantee,
    5: criterion_im_guarantee,
    6: criterion_perturbed_greedy,
    7: criterion_sketch_cv,
    8: criterion_rrs_bias,
    9: criterion_adaptive,
    11: criterion_depth_profile,
}


def run_all(master_seed: int = 0, threads: int = 1, only=None) -> list[CriterionResult]:
    """Criteria numbered in ``only`` (all if empty), each number checked first."""
    unknown = sorted(set(only or ()) - ALL_CRITERIA.keys())
    if unknown:
        raise ValueError(f"no criterion numbered {unknown}; "
                         f"criterion numbers are {sorted(ALL_CRITERIA)}")
    results = []
    for number in sorted(ALL_CRITERIA):
        if only and number not in only:
            continue
        results.append(ALL_CRITERIA[number](master_seed, threads))
    return results


def results_table(results) -> str:
    lines = []
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name:<{width}}  {r.runtime_s:8.2f}s")
    return "\n".join(lines)
