import math
from itertools import combinations

import numpy as np
import pytest

import infmax as im
from infmax import estimators, maximize, models


def max_cover_model():
    return im.ic_model(im.Graph.from_edges(5, [(0, 1, 1.0), (0, 2, 1.0), (3, 4, 1.0)]))


class GenericView:
    """Hides ``query_many``, so maximizers ask ``query`` once per set."""

    def __init__(self, oracle):
        self._oracle = oracle

    @property
    def num_nodes(self):
        return self._oracle.num_nodes

    def query(self, seeds):
        return self._oracle.query(seeds)


def test_brute_force_on_deterministic_cover():
    exact = im.ExactInfluence(max_cover_model(), 1)
    result = im.brute_force_max(exact, 2)
    assert result.seeds == (0, 3)
    assert result.oracle_value == 5.0


def test_brute_force_budget_and_ties():
    # strictly monotone utility: the full node set is the unique optimum
    g = im.Graph.from_edges(3, [], node_weights=[1.0, 2.0, 3.0])
    exact = im.ExactInfluence(im.ic_model(g), 1)
    result = im.brute_force_max(exact, 5)
    assert result.seeds == (0, 1, 2)
    assert result.oracle_value == 6.0
    big = im.ExactInfluence(im.families.gen_star(200, dependent=True), 1)
    with pytest.raises(ValueError, match="budget"):
        im.brute_force_max(big, 5)


def test_brute_force_star_picks_center():
    exact = im.ExactInfluence(im.families.gen_star(200, dependent=True), 1)
    result = im.brute_force_max(exact, 1)
    assert result.seeds == (0,)
    assert result.oracle_value == pytest.approx(101.0)


def test_brute_force_fast_path_matches_generic():
    model = im.families.gen_random_ic(9, 15, seed=8)
    oracle = im.build_oracle(model, im.OracleConfig(3, 20, 2, 5))
    fast = im.brute_force_max(oracle, 2)
    slow = im.brute_force_max(GenericView(oracle), 2)
    assert fast.seeds == slow.seeds
    assert fast.oracle_value == slow.oracle_value


def test_greedy_equals_brute_on_cover():
    exact = im.ExactInfluence(max_cover_model(), 1)
    result = im.greedy_max(exact, 2)
    assert result.seeds == (0, 3)
    assert [step.node for step in result.trace] == [0, 3]
    assert [step.gain for step in result.trace] == [3.0, 2.0]


def test_greedy_explicit_matches_naive_recomputation():
    # non-unit weights make the order of float summation observable
    for weights in [(1.0, 1.0), (0.5, 3.0)]:
        model = im.families.gen_random_ic(10, 18, weight_range=weights, seed=21)
        oracle = im.build_oracle(model, im.OracleConfig(3, 25, 2, 13))
        explicit = im.greedy_max(oracle, 3)
        naive = im.greedy_max(GenericView(oracle), 3)
        assert explicit.seeds == naive.seeds
        for a, b in zip(explicit.trace, naive.trace):
            assert a.node == b.node
            assert a.value == b.value  # bit-exact, not approximately equal
            assert a.gain == b.gain


def test_greedy_gains_non_increasing_on_submodular_oracle():
    model = im.families.gen_random_ic(9, 16, seed=30)
    oracle = im.build_oracle(model, im.OracleConfig(1, 40, 2, 7))
    result = im.greedy_max(oracle, 5)
    gains = [step.gain for step in result.trace]
    for earlier, later in zip(gains, gains[1:]):
        assert later <= earlier + 1e-9


def test_greedy_meets_classical_ratio_against_brute():
    for seed in (1, 2, 3):
        model = im.families.gen_random_ic(8, 13, seed=seed)
        exact = im.ExactInfluence(model, 2)
        for s in (2, 3):
            greedy = im.greedy_max(exact, s)
            brute = im.brute_force_max(exact, s)
            ratio = 1.0 - (1.0 - 1.0 / s) ** s
            assert exact.query(greedy.seeds) >= ratio * brute.oracle_value - 1e-9


def test_greedy_on_moa_oracle_meets_ratio_on_random_instance():
    # 20-node instance: greedy over a pooled oracle lands above the
    # classical ratio times (1 - eps) of the enumerated optimum in every
    # trial (the formal sizing for this claim is astronomically larger;
    # this checks the conclusion with a practical oracle)
    epsilon, s, tau = 0.3, 2, 2
    model = im.families.gen_random_ic(20, 20, seed=99)
    table = im.exact_influence_map(model, tau, s)
    opt = max(table.values())
    threshold = (1 - (1 - 1 / s) ** s) * (1 - epsilon) * opt
    for trial in range(100):
        oracle = im.build_oracle(model, im.OracleConfig(29, 128, tau, 7000 + trial))
        result = im.greedy_max(oracle, s)
        assert table[result.seeds] >= threshold


def test_maximize_im_sizing_arithmetic():
    config = im.im_oracle_config(10, 2, 2, 0.5, 0.1, 2.0)
    assert config.pool_size == 32
    assert config.pools == 173
    assert config.total_simulations == 5536


@pytest.mark.parametrize("eps,delta", [(0.0, 0.1), (0.5, 0.0), (1.5, 0.1), (-0.5, 0.1),
                                       (0.5, 2.0), (float("nan"), 0.1)])
def test_maximize_rejects_accuracy_outside_unit_interval(eps, delta):
    model = max_cover_model()
    with pytest.raises(ValueError, match="must be in"):
        im.maximize_im(model, 2, 1, eps, delta)
    with pytest.raises(ValueError, match="must be in"):
        im.im_oracle_config(model.num_nodes, 2, 1, eps, delta, 1.0)


def test_im_oracle_config_rejects_subset_counts_past_the_float_range():
    # C(2000, 400) has 433 digits: splitting delta over it cannot be done in
    # floats, so the sizing fails with a message naming n and s.
    with pytest.raises(ValueError, match=r"C\(n=2000, s=400\)"):
        im.im_oracle_config(2000, 400, 2, 0.25, 0.1, 2.0)
    assert im.im_oracle_config(2000, 40, 2, 0.25, 0.1, 2.0).pools == 5479


def test_maximize_rejects_seed_budget_below_one():
    for s in (0, -2):
        with pytest.raises(ValueError, match="at least 1"):
            im.maximize_im(max_cover_model(), s, 1, 0.5, 0.1)
        with pytest.raises(ValueError, match="at least 1"):
            im.im_oracle_config(5, s, 1, 0.5, 0.1, 1.0)


def test_maximize_im_on_deterministic_model():
    result = im.maximize_im(max_cover_model(), 2, 1, 0.5, 0.1, master_seed=3)
    assert result.seeds == (0, 3)
    assert result.method == "moa-brute"
    expected = im.im_oracle_config(5, 2, 1, 0.5, 0.1, 1.0)
    assert result.simulations_used == expected.total_simulations


def test_adaptive_accepts_deterministic_model_at_first_round():
    model = max_cover_model()
    result = im.adaptive_maximize(model, 2, 1, 0.1, 0.1, base="brute", master_seed=1)
    assert result.seeds == (0, 3)
    assert result.oracle_value == 5.0
    assert len(result.rounds) == 1
    n0 = im.size_for_guarantee(0.1, 0.1, 1.0, im.AVERAGING).pool_size
    assert result.simulations_used == n0
    assert result.validation_simulations > 0


def test_adaptive_brute_names_its_greedy_fallback(monkeypatch):
    # Over the subset budget, base="brute" runs greedy and says so.
    model = max_cover_model()
    monkeypatch.setattr(maximize, "BRUTE_FORCE_BUDGET", 5)
    result = im.adaptive_maximize(model, 2, 1, 0.1, 0.1, base="brute", master_seed=1)
    assert result.method == "adaptive-greedy"
    assert len(result.trace) == 2
    monkeypatch.undo()
    result = im.adaptive_maximize(model, 2, 1, 0.1, 0.1, base="brute", master_seed=1)
    assert (result.method, result.trace) == ("adaptive-brute", ())


def test_adaptive_schedule_total_within_twice_worst_case():
    for n0 in (1, 7, 100, 1000):
        for worst in (n0, n0 + 1, 8 * n0 + 3, 1000, 54321):
            if worst < n0:
                continue
            budgets = im.adaptive_schedule(n0, worst)
            assert budgets[-1] == worst
            assert sum(budgets) <= 2 * worst
            for a, b in zip(budgets, budgets[1:-1]):
                assert b == 2 * a


def test_adaptive_result_validates_its_value():
    model = im.families.gen_tree(3)
    result = im.adaptive_maximize(model, 1, 3, 0.3, 0.1, base="greedy", master_seed=5)
    final = result.rounds[-1]
    assert final.accepted
    assert result.oracle_value == final.validated_value
    assert final.validated_value >= (1 - 2 * 0.3) * final.oracle_value


def test_uniformly_perturbed_greedy_keeps_ratio():
    # single-instance version of the sweep in the acceptance suite
    epsilon, s = 0.3, 2
    model = im.families.gen_random_ic(8, 12, seed=77)
    base = im.ExactInfluence(model, 2)
    opt = im.brute_force_max(base, s).oracle_value
    opt1 = base.opt1()
    eps_a = epsilon * (1 - epsilon) / (14 * s)

    class Perturbed:
        num_nodes = model.num_nodes

        def query(self, seeds):
            value = base.query(seeds)
            sign = -1.0 if 0 in seeds else 1.0
            return value + sign * eps_a * max(value, opt1)

    result = im.greedy_max(Perturbed(), s)
    achieved = base.query(result.seeds)
    assert achieved >= (1 - (1 - 1 / s) ** s) * (1 - epsilon) * opt - 1e-12


def _hold_candidates(monkeypatch, oracle, count):
    """Size ``_SCORE_BLOCK_BYTES`` so a block holds ``count`` candidates."""
    cfg = oracle.config
    words = -(-cfg.total_simulations // 64)
    monkeypatch.setattr(estimators, "_SCORE_BLOCK_BYTES",
                        count * (words + cfg.pools + 1) * oracle.num_nodes * 8)
    reduce, seen = estimators.mask_pool_averages, []

    def recording(mask, *args):
        seen.append(mask.shape[0] if mask.ndim == 3 else 1)
        return reduce(mask, *args)

    with monkeypatch.context() as m:
        m.setattr(estimators, "mask_pool_averages", recording)
        oracle.query_many((u,) for u in range(oracle.num_nodes))
    assert max(seen) == count


@pytest.mark.parametrize("block", [1, 2, 3, None])
def test_blocked_scoring_matches_query_path(monkeypatch, block):
    for weights in [(1.0, 1.0), (0.5, 3.0)]:
        for pools in (1, 5):
            model = im.families.gen_random_ic(9, 16, weight_range=weights, seed=pools)
            # 23-simulation pools put pool boundaries inside words
            oracle = im.build_oracle(model, im.OracleConfig(pools, 23, 2, 4))
            if block is not None:
                _hold_candidates(monkeypatch, oracle, block)
            greedy = im.greedy_max(oracle, 4)
            naive = im.greedy_max(GenericView(oracle), 4)
            assert greedy.seeds == naive.seeds
            assert greedy.trace == naive.trace  # bit-exact gains and values
            for s in (1, 2, 3):
                fast = im.brute_force_max(oracle, s)
                slow = im.brute_force_max(GenericView(oracle), s)
                assert (fast.seeds, fast.oracle_value) == (slow.seeds, slow.oracle_value)


@pytest.mark.parametrize("block", [1, 2, 3, None])
def test_blocked_scoring_keeps_lowest_id_ties(monkeypatch, block):
    # no edges and unit weights: every set of one size has the same value
    model = im.ic_model(im.Graph.from_edges(6, []))
    oracle = im.build_oracle(model, im.OracleConfig(3, 10, 2, 0))
    if block is not None:
        _hold_candidates(monkeypatch, oracle, block)
    assert im.brute_force_max(oracle, 1).seeds == (0,)
    assert im.brute_force_max(oracle, 2).seeds == (0, 1)
    greedy = im.greedy_max(oracle, 4)
    assert [step.node for step in greedy.trace] == [0, 1, 2, 3]
    assert [step.value for step in greedy.trace] == [1.0, 2.0, 3.0, 4.0]


def _assert_same_maximizers(a, b):
    for s in (1, 2, 3):
        assert im.greedy_max(a, s).trace == im.greedy_max(b, s).trace
        fast, slow = im.brute_force_max(a, s), im.brute_force_max(b, s)
        assert (fast.seeds, fast.oracle_value) == (slow.seeds, slow.oracle_value)


def test_uncached_scoring_matches_cached(monkeypatch):
    # Cached, brute force and greedy read the reach rows; uncached, brute
    # force propagates its sets and greedy computes rows.
    for weights in [(1.0, 1.0), (0.5, 3.0)]:
        for pools in (1, 5):
            model = im.families.gen_random_ic(9, 16, weight_range=weights, seed=pools)
            config = im.OracleConfig(pools, 23, 2, 4)
            cached = im.build_oracle(model, config)
            _assert_same_maximizers(cached, GenericView(cached))
            assert cached._rows is not None
            with monkeypatch.context() as m:
                m.setattr(models, "_EXPLICIT_CACHE_BYTES", 0)
                uncached = im.build_oracle(model, config)
                _assert_same_maximizers(uncached, cached)
                _assert_same_maximizers(uncached, GenericView(uncached))
                assert uncached._rows is None


@pytest.mark.parametrize("cache", [True, False])
@pytest.mark.parametrize("block", [1, 300, None])
def test_greedy_extension_scoring_matches_per_set_queries(monkeypatch, cache, block):
    # Greedy scores through extension_values, from the cached rows or from
    # rows computed per block of candidates; block sizes _SCORE_BLOCK_BYTES
    # so that a block holds one source, a few, or (None) every one.
    if not cache:
        monkeypatch.setattr(models, "_EXPLICIT_CACHE_BYTES", 0)
    if block is not None:
        monkeypatch.setattr(estimators, "_SCORE_BLOCK_BYTES", block)
    for weights in [(1.0, 1.0), (0.5, 3.0)]:
        for pools in (1, 5):
            for seed in (0, 1):
                model = im.families.gen_random_ic(12, 30, weight_range=weights, seed=seed)
                # 23-simulation pools put pool boundaries inside words
                oracle = im.build_oracle(model, im.OracleConfig(pools, 23, 2, seed))
                greedy = im.greedy_max(oracle, 6)
                assert greedy.trace == im.greedy_max(GenericView(oracle), 6).trace
                assert (oracle._rows is not None) == cache
                chosen = list(greedy.seeds[:2])
                others = [v for v in range(12) if v not in chosen][::-1]
                expect = [oracle.query(chosen + [v]) for v in others]
                assert oracle.extension_values(chosen, others).tolist() == expect
    with pytest.raises(ValueError, match="out of range"):
        oracle.extension_values([], [12])
    with pytest.raises(ValueError, match="integers"):
        oracle.extension_values([0.5], [1])


@pytest.mark.parametrize("cache", [True, False])
def test_greedy_extension_ties_go_to_the_lowest_id(monkeypatch, cache):
    # Two equal stars, 0 -> {1, 2} and 3 -> {4, 5}, and a pair 6 -> 7, all
    # edges live: greedy takes 0 and 3, whose gains tie, in id order, then 6.
    if not cache:
        monkeypatch.setattr(models, "_EXPLICIT_CACHE_BYTES", 0)
    edges = [(0, 1, 1.0), (0, 2, 1.0), (3, 4, 1.0), (3, 5, 1.0), (6, 7, 1.0)]
    for weights in ([1.0] * 8, [0.5, 2.0, 0.25, 0.5, 2.0, 0.25, 1.0, 1.5]):
        model = im.ic_model(im.Graph.from_edges(8, edges, node_weights=weights))
        for pools in (1, 5):
            oracle = im.build_oracle(model, im.OracleConfig(pools, 23, 2, 0))
            trace = im.greedy_max(oracle, 4).trace
            assert [step.node for step in trace] == [0, 3, 6, 1]
            assert trace == im.greedy_max(GenericView(oracle), 4).trace
            assert trace[0].gain == trace[1].gain


@pytest.mark.parametrize("cache", [True, False])
@pytest.mark.parametrize("block", [1, 4000, None])
def test_brute_force_over_rows_matches_per_set_queries(monkeypatch, cache, block):
    # subset_values extends each (s - 1)-prefix in lexicographic order by the
    # nodes above it, from the cached rows, or without a cache through
    # query_many.  Pools of 23 (gcd with 64 is 1) count padded word
    # segments, pools of 24 and 32 whole 8- and 32-bit units.  A 1-byte
    # block grows one set per block and takes one shared column per chunk;
    # 4,000 bytes hold some prefixes whole and split others.
    if not cache:
        monkeypatch.setattr(models, "_EXPLICIT_CACHE_BYTES", 0)
    if block is not None:
        monkeypatch.setattr(estimators, "_SCORE_BLOCK_BYTES", block)
    scorer, calls = estimators.Oracle._grown_values, []

    def recording(self, keys, union, base, owner, *args):
        calls.append(len(owner))
        return scorer(self, keys, union, base, owner, *args)

    monkeypatch.setattr(estimators.Oracle, "_grown_values", recording)
    n = 10
    for weights in [(1.0, 1.0), (0.5, 3.0)]:
        for pools in (1, 5):
            model = im.families.gen_random_ic(n, 24, weight_range=weights, seed=pools)
            for pool_size in (23, 24, 32):
                oracle = im.build_oracle(model, im.OracleConfig(pools, pool_size, 2, 7))
                for s in (1, 2, 3):
                    sets = list(combinations(range(n), s))
                    expect = np.array([oracle.query(seeds) for seeds in sets])
                    calls.clear()
                    assert oracle.subset_values(s).tobytes() == expect.tobytes()
                    if cache:
                        assert sum(calls) == len(sets) - (s == 1 and weights[1] == 1.0) * n
                        if block == 1 and s > 1:
                            assert calls == [1] * len(sets)
                    else:
                        assert calls == []
                    fast = im.brute_force_max(oracle, s)
                    slow = im.brute_force_max(GenericView(oracle), s)
                    assert (fast.seeds, fast.oracle_value) == (slow.seeds, slow.oracle_value)
                assert (oracle._rows is not None) == cache
    with pytest.raises(ValueError, match="subset size"):
        oracle.subset_values(0)
    with pytest.raises(ValueError, match="subset size"):
        oracle.subset_values(n + 1)


@pytest.mark.parametrize("cache", [True, False])
def test_brute_force_ties_go_to_the_lowest_set(monkeypatch, cache):
    # Four equal stars, centres 1, 4, 7 and 10, all edges live: every set of
    # s centres ties, and brute force takes the first in lexicographic order.
    if not cache:
        monkeypatch.setattr(models, "_EXPLICIT_CACHE_BYTES", 0)
    monkeypatch.setattr(estimators, "_SCORE_BLOCK_BYTES", 1)
    edges = [(c, c + d, 1.0) for c in (1, 4, 7, 10) for d in (-1, 1)]
    for weights in ([1.0] * 12, [0.5, 2.0, 0.25] * 4):
        model = im.ic_model(im.Graph.from_edges(12, edges, node_weights=weights))
        for pools in (1, 5):
            oracle = im.build_oracle(model, im.OracleConfig(pools, 23, 2, 0))
            for s, seeds in ((1, (1,)), (2, (1, 4)), (3, (1, 4, 7))):
                result = im.brute_force_max(oracle, s)
                assert result.seeds == seeds
                assert result.oracle_value == oracle.query(seeds) == sum(weights[:3]) * s
                values = oracle.subset_values(s)
                assert values.max() == result.oracle_value
                assert np.flatnonzero(values == values.max()).size == math.comb(4, s)


def test_query_many_matches_query():
    model = im.families.gen_random_ic(8, 14, weight_range=(0.5, 3.0), seed=3)
    oracle = im.build_oracle(model, im.OracleConfig(5, 23, 2, 9))
    for size in (1, 2, 3):
        sets = list(combinations(range(8), size))
        expected = np.array([oracle.query(seeds) for seeds in sets])
        assert oracle.query_many(sets).tobytes() == expected.tobytes()
        assert oracle.query_many(iter(sets)).tobytes() == expected.tobytes()
    # members in any order, repeated or not, give the set's value
    for seeds in [(2, 0), (0, 2, 2)]:
        assert oracle.query_many([seeds]).tolist() == [oracle.query((0, 2))]
    assert oracle.query_many([]).shape == (0,)
    for bad in ([(-1,)], [(8,)], [()], [(0,), (1, 2)], [(0.5,)]):
        with pytest.raises(ValueError):
            oracle.query_many(bad)
