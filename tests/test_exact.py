import math
from itertools import combinations

import numpy as np
import pytest

import infmax as im


def test_dependent_star_influence_and_variance():
    # one fair coin decides all 200 edges: R is 201 or 1, each w.p. 1/2,
    # so E[R] = 101 and Var = (201^2 + 1)/2 - 101^2 = 10000
    model = im.families.gen_star(200, dependent=True)
    report = im.exact_report(model, (0,), 1)
    assert report.influence == pytest.approx(101.0)
    assert report.variance == pytest.approx(10000.0)
    assert report.opt1 == pytest.approx(101.0)
    assert report.enumeration_size == 2


def test_deterministic_path():
    model = im.ic_model(im.Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)]))
    report = im.exact_report(model, (0,), 2)
    assert report.influence == 3.0
    assert report.variance == 0.0
    assert report.step_probs[0, 0] == 1.0
    assert report.step_probs[1, 1] == 1.0
    assert report.step_probs[2, 2] == 1.0


def test_tree_matches_node_level_closed_forms():
    # with `depth` edge levels the closed forms hold at tau = depth + 1:
    # mean = depth + 1, variance = (depth+1) * depth * (2*depth+1) / 12
    for depth in (1, 2, 3):
        model = im.families.gen_tree(depth)
        report = im.exact_report(model, (0,), depth)
        tau = depth + 1
        assert report.influence == pytest.approx(tau)
        assert report.variance == pytest.approx(tau * (tau - 1) * (2 * tau - 1) / 12)


def test_step_probs_sum_to_at_most_one():
    model = im.families.gen_random_ic(8, 14, seed=5)
    report = im.exact_report(model, (0, 3), 3)
    assert report.step_probs.min() >= 0.0
    assert report.step_probs.sum(axis=0).max() <= 1.0 + 1e-12
    assert report.influence >= model.graph.node_weights[[0, 3]].sum() - 1e-12


def test_budget_errors():
    big_ic = im.families.gen_star(200, dependent=False)
    with pytest.raises(im.EnumerationBudgetError, match="too large"):
        im.exact_report(big_ic, (0,), 1)
    # threshold outcomes multiply per node: one node with indegree 40 is a
    # single 41-way choice and enumerates fine ...
    edges = [(v, 40, 0.01) for v in range(40)]
    im.exact_report(im.lt_model(im.Graph.from_edges(41, edges)), (0,), 1)
    # ... while 26 nodes with three choices each (3^26 outcomes) do not
    wide = []
    for v in range(1, 27):
        wide.append((0, v, 0.3))
        wide.append(((v + 1) % 27 or 1, v, 0.3))
    model = im.lt_model(im.Graph.from_edges(27, wide))
    with pytest.raises(im.EnumerationBudgetError):
        im.exact_report(model, (0,), 1)


def test_c_value_table():
    ic = im.families.gen_random_ic(6, 8, seed=1)
    assert im.c_value(ic, 4) == 4.0
    lt = im.lt_model(im.Graph.from_edges(3, [(0, 2, 0.4), (1, 2, 0.5)]))
    assert im.c_value(lt, 2) == 2.0
    bdep = im.families.gen_star(3, dependent=True)
    assert im.c_value(bdep, 2) == 12.0
    mix = im.mixture_model([(im.families.gen_random_ic(5, 5, seed=1), 0.25),
                            (im.families.gen_random_ic(5, 5, seed=2), 0.75)])
    assert im.c_value(mix, 3) == pytest.approx(16.0)
    with pytest.raises(ValueError):
        im.c_value(ic, 0)


def test_audit_on_deterministic_path_holds():
    model = im.ic_model(im.Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)]))
    audit = im.audit_variance_bound(model, (0,), 2, c=2.0)
    assert audit.lhs == 0.0
    assert audit.holds


def test_audit_binary_tree():
    model = im.families.gen_tree(3)
    audit = im.audit_variance_bound(model, (0,), 3, c=3.0)
    assert audit.holds
    assert audit.lhs == pytest.approx(7.0)


def test_audit_dependent_star_reports_actual_pair():
    # at c=1 the right side is 1 * 101 * 101 = 10201, marginally above the
    # exact variance 10000, so the audit still holds; the correct grouped
    # scale 2*b*tau is far larger
    model = im.families.gen_star(200, dependent=True)
    audit = im.audit_variance_bound(model, (0,), 1, c=1.0)
    assert audit.lhs == pytest.approx(10000.0)
    assert audit.rhs == pytest.approx(10201.0)
    assert audit.holds


def test_depth_profile_examples():
    path = im.ic_model(im.Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)]))
    profile = im.depth_profile(path, (0,))
    assert profile.mean_depth == pytest.approx(1.0)
    assert list(profile.influence_by_tau) == [1.0, 2.0, 3.0]

    lonely = im.ic_model(im.Graph.from_edges(1, []))
    assert im.depth_profile(lonely, (0,)).mean_depth == 0.0


def test_depth_profile_bounds_unrestricted_influence():
    model = im.families.gen_tree(3)
    profile = im.depth_profile(model, (0,))
    full = profile.influence_by_tau[-1]
    n = model.num_nodes
    for eps in (0.5, 0.25):
        t = min(math.ceil(profile.mean_depth / eps), n - 1)
        assert profile.influence_by_tau[t] >= (1 - eps) * full - 1e-12


@pytest.mark.parametrize("maker,seeds", [
    (lambda: im.families.gen_random_ic(8, 14, seed=5), (0, 3)),
    (lambda: im.families.gen_tree(3), (0,)),
    (lambda: im.families.gen_star(6, dependent=True), (0,)),
    (lambda: im.families.gen_two_world_mixture(), (0,)),
    (lambda: im.lt_model(im.Graph.from_edges(
        5, [(0, 1, 0.6), (2, 1, 0.3), (1, 3, 0.9), (3, 4, 0.5), (0, 4, 0.4)])), (0,)),
])
def test_depth_profile_matches_step_limited_reports(maker, seeds):
    # the profile reads every tau off one run whose propagation stops
    # early once a step activates nothing; each entry must still equal a
    # separate report at that step limit
    model = maker()
    profile = im.depth_profile(model, seeds)
    assert len(profile.influence_by_tau) == model.num_nodes
    for t, value in enumerate(profile.influence_by_tau):
        assert value == pytest.approx(im.exact_report(model, seeds, t).influence, rel=1e-12)


def test_exact_influence_monotone_and_submodular_exhaustively():
    model = im.families.gen_random_ic(6, 10, seed=9)
    tau = 3
    values = im.exact_influence_map(model, tau, 6)
    values[()] = 0.0
    universe = range(6)
    # monotone in the seed set
    for subset, value in values.items():
        for u in universe:
            if u in subset:
                continue
            assert values[tuple(sorted(set(subset) | {u}))] >= value - 1e-12
    # diminishing marginal returns
    for s_size in range(0, 3):
        for s_set in combinations(universe, s_size):
            for t_set in combinations(universe, s_size + 1):
                if not set(s_set) <= set(t_set):
                    continue
                for u in universe:
                    if u in t_set:
                        continue
                    gain_s = values[tuple(sorted(set(s_set) | {u}))] - values[s_set]
                    gain_t = values[tuple(sorted(set(t_set) | {u}))] - values[t_set]
                    assert gain_s >= gain_t - 1e-9
    # monotone in the step limit
    for t in range(0, 5):
        a = im.exact_report(model, (0,), t, compute_opt1=False).influence
        b = im.exact_report(model, (0,), t + 1, compute_opt1=False).influence
        assert b >= a - 1e-12


def test_two_world_exact_influences():
    model = im.families.gen_two_world_mixture()
    expected = [3.0, 2.5, 2.0, 1.5, 1.0, 2.5, 1.0, 1.0, 1.0, 2.0, 1.5, 1.0]
    got = [im.exact_report(model, (v,), 4, compute_opt1=False).influence
           for v in range(model.num_nodes)]
    assert got == pytest.approx(expected)


def test_monte_carlo_consistency_with_exact_moments():
    model = im.families.gen_tree(2)
    report = im.exact_report(model, (0,), 2, compute_opt1=False)
    trials, sims = 200, 400
    band = 4.0 * math.sqrt(report.variance / sims)
    failures = 0
    for t in range(trials):
        live, _ = im.sample_pool(model, 1000 + t, sims)
        mean = im.reach_values_batch(model.graph, live, (0,), 2).mean()
        if abs(mean - report.influence) > band:
            failures += 1
    assert failures / trials <= 0.01


def test_exact_influence_map_matches_reports():
    model = im.families.gen_random_ic(7, 11, seed=2)
    table = im.exact_influence_map(model, 2, 2)
    for subset in [(0,), (3,), (0, 4), (2, 6)]:
        direct = im.exact_report(model, subset, 2, compute_opt1=False).influence
        assert table[subset] == pytest.approx(direct, abs=1e-12)
