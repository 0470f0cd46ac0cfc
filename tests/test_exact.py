import gc
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import infmax as im
from infmax import exact, models
from scalar_reference import ball_edges_by_sets, reach_ids


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
    # 3^41 outcomes exceed 2^63: a radix product taken in int64 wraps to a
    # negative count that would pass the budget
    wider = []
    for v in range(1, 42):
        wider.append((0, v, 0.3))
        wider.append((v % 41 + 1, v, 0.3))
    model = im.lt_model(im.Graph.from_edges(42, wider))
    assert im.outcome_count(model) == 3 ** 41
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


def test_huge_step_limits_fail_before_allocating():
    # A (tau + 1) x n step profile over the budget is refused before any
    # enumeration, and nothing near its size is allocated.
    model = im.families.gen_tree(3)
    calls = [lambda tau: im.exact_report(model, (0,), tau),
             lambda tau: im.audit_variance_bound(model, (0,), tau, 1.0),
             lambda tau: im.depth_profile(model, (0,), tau)]
    for call in calls:
        for tau in (30_000_000, 10**12):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=f"{(tau + 1) * 15 * 8}-byte step profile"):
                    call(tau)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20
    # The largest admitted profile still runs.
    budget = exact._STEP_PROFILE_BYTES // (15 * 8) - 1
    assert im.exact_report(model, (0,), budget).step_probs.shape == (budget + 1, 15)


def test_default_depth_profile_meets_the_step_budget_at_n_squared(monkeypatch):
    # depth_profile's default tau = n - 1 needs an n x n step profile.
    def path(n):
        return im.ic_model(im.Graph.from_edges(n, [(v, v + 1, 1.0) for v in range(n - 1)]))

    with monkeypatch.context() as patched:
        patched.setattr(exact, "_STEP_PROFILE_BYTES", 40 * 40 * 8)
        assert im.depth_profile(path(40), (0,)).influence_by_tau.tolist() == list(range(1, 41))
        with pytest.raises(ValueError, match=f"{41 * 41 * 8}-byte step profile"):
            im.depth_profile(path(41), (0,))
    # The real budget admits the default on a 4,097-node path (134 MB) and
    # refuses it, before allocating, from 11,586 nodes on.
    assert 4097 * 4097 * 8 <= exact._STEP_PROFILE_BYTES
    n = math.isqrt(exact._STEP_PROFILE_BYTES // 8) + 1
    assert n == 11586
    model = path(n)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"{n * n * 8}-byte step profile"):
            im.depth_profile(model, (0,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_step_profile_is_built_once():
    # A tau = n - 1 report on a 1,500-node path of p = 1 edges holds one
    # 1,500 x 1,500 float64 step profile (17.2 MiB) and no second copy.
    n = 1500
    model = im.ic_model(im.Graph.from_edges(n, [(v, v + 1, 1.0) for v in range(n - 1)]))
    tracemalloc.start()
    try:
        report = im.exact_report(model, (0,), n - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.step_probs.nbytes == n * n * 8
    assert peak < 1.3 * report.step_probs.nbytes
    assert np.array_equal(report.step_probs, np.eye(n))


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
        a = im.exact_report(model, (0,), t).influence
        b = im.exact_report(model, (0,), t + 1).influence
        assert b >= a - 1e-12


def test_two_world_exact_influences():
    model = im.families.gen_two_world_mixture()
    expected = [3.0, 2.5, 2.0, 1.5, 1.0, 2.5, 1.0, 1.0, 1.0, 2.0, 1.5, 1.0]
    got = [im.exact_report(model, (v,), 4).influence
           for v in range(model.num_nodes)]
    assert got == pytest.approx(expected)


def test_monte_carlo_consistency_with_exact_moments():
    model = im.families.gen_tree(2)
    report = im.exact_report(model, (0,), 2)
    trials, sims = 200, 400
    band = 4.0 * math.sqrt(report.variance / sims)
    failures = 0
    for t in range(trials):
        live, _ = im.sample_pool(model, 1000 + t, sims, packed=True)
        mean = im.row_values(model.graph, im.reach_mask_batch(model.graph, live, (0,), 2),
                             sims).mean()
        if abs(mean - report.influence) > band:
            failures += 1
    assert failures / trials <= 0.01


def test_exact_influence_map_matches_reports():
    model = im.families.gen_random_ic(7, 11, seed=2)
    table = im.exact_influence_map(model, 2, 2)
    for subset in [(0,), (3,), (0, 4), (2, 6)]:
        direct = im.exact_report(model, subset, 2).influence
        assert table[subset] == pytest.approx(direct, abs=1e-12)


# -- enumeration chunks -------------------------------------------------------

def reference_outcome_chunks(model, chunk, weight=1.0, offset=0, width=None):
    """Per-kind loops filling bool ``(rows, width)`` live matrices, one unit,
    edge and slot at a time: the layout the unit table must reproduce."""
    g = model.graph
    m = g.num_edges
    if width is None:
        width = m
    if model.kind == im.MIXTURE:
        for part, part_weight, part_offset in model.parts:
            yield from reference_outcome_chunks(part, chunk, weight * part_weight,
                                                offset + part_offset, width)
        return

    def index_chunks(total):
        for lo in range(0, total, chunk):
            yield np.arange(lo, min(lo + chunk, total), dtype=np.int64)

    base = np.zeros(width, dtype=bool)
    if model.kind in (im.IC, im.BDEP):
        if model.kind == im.IC:
            random = np.flatnonzero((g.probs > 0.0) & (g.probs < 1.0))
            unit_edges = [(np.array([e]), float(g.probs[e])) for e in random]
            fixed_live = np.flatnonzero(g.probs >= 1.0)
        else:
            unit_edges = []
            fixed = []
            for gid in np.unique(g.groups[g.groups >= 0]):
                members = np.flatnonzero(g.groups == gid)
                p = float(g.probs[members[0]])
                if 0.0 < p < 1.0:
                    unit_edges.append((members, p))
                elif p >= 1.0:
                    fixed.append(members)
            for e in np.flatnonzero(g.groups < 0):
                p = float(g.probs[e])
                if 0.0 < p < 1.0:
                    unit_edges.append((np.array([e]), p))
                elif p >= 1.0:
                    fixed.append(np.array([e]))
            fixed_live = np.concatenate(fixed) if fixed else np.empty(0, np.int64)
        base[offset + fixed_live] = True
        u = len(unit_edges)
        unit_p = np.array([p for _, p in unit_edges], dtype=np.float64)
        for idx in index_chunks(1 << u):
            rows = idx.shape[0]
            live = np.broadcast_to(base, (rows, width)).copy()
            probs = np.full(rows, weight, dtype=np.float64)
            if u:
                bits = ((idx[:, None] >> np.arange(u)) & 1).astype(bool)
                probs *= np.where(bits, unit_p, 1.0 - unit_p).prod(axis=1)
                for j, (members, _) in enumerate(unit_edges):
                    for e in members:
                        live[:, offset + e] = bits[:, j]
            yield live, probs
        return

    choosers = []
    for v in range(g.num_nodes):
        edges = g.in_edges(v)
        if edges.size:
            p_in = g.probs[edges]
            none_p = max(0.0, 1.0 - float(p_in.sum()))
            choosers.append((edges, np.append(p_in, none_p)))
    radices = np.array([c[1].size for c in choosers], dtype=np.int64)
    total = int(np.prod(radices)) if choosers else 1
    places = np.ones(len(choosers), dtype=np.int64)
    for j in range(1, len(choosers)):
        places[j] = places[j - 1] * radices[j - 1]
    for idx in index_chunks(total):
        rows = idx.shape[0]
        live = np.broadcast_to(base, (rows, width)).copy()
        probs = np.full(rows, weight, dtype=np.float64)
        for j, (edges, branch_p) in enumerate(choosers):
            digit = (idx // places[j]) % radices[j]
            probs *= branch_p[digit]
            for slot, e in enumerate(edges):
                live[:, offset + e] = digit == slot
        yield live, probs


def ic_pinned_cases():
    # Random edges between edges pinned at p 0 and p 1.
    return im.ic_model(im.Graph.from_edges(5, [
        (0, 1, 0.3), (1, 2, 1.0), (2, 3, 0.0), (0, 3, 0.6), (3, 4, 1.0),
        (4, 0, 0.0), (1, 4, 0.45), (2, 0, 0.8)]))


def bdep_edge_cases():
    # Group ids out of order and sparse, groups at p 0 and 1, loose edges
    # interleaved with grouped ones; nodes 6-9 match lt_edge_cases.
    return im.bdep_model(im.Graph.from_edges(10, [
        (0, 1, 0.4, 7), (3, 5, 0.6), (0, 2, 0.4, 7), (1, 3, 0.0, 2),
        (1, 4, 0.0, 2), (4, 5, 0.25), (2, 5, 1.0, 9), (5, 0, 1.0), (2, 3, 0.5, 4),
        (5, 1, 0.0)]), b=2)


# Nine in-weights whose pairwise sum (numpy's, from 8 terms) differs from
# their left-to-right sum in the last bit.
WIDE_WEIGHTS = (0.056, 0.105, 0.016, 0.104, 0.034, 0.047, 0.091, 0.045, 0.06)


def lt_edge_cases():
    # Zero-weight edges first, inside and last; node 1's weights sum to
    # exactly 1; node 9 has in-degree 9.
    edges = [(0, 1, 0.0), (2, 1, 0.25), (3, 1, 0.0), (4, 1, 0.75), (5, 1, 0.0),
             (0, 2, 0.5), (1, 2, 0.2), (0, 3, 1.0), (1, 4, 0.1), (2, 4, 0.2),
             (3, 4, 0.7), (0, 5, 0.0)]
    edges += [(v, 9, w) for v, w in zip((0, 1, 2, 3, 4, 5, 6, 7, 8), WIDE_WEIGHTS)]
    return im.lt_model(im.Graph.from_edges(10, edges))


CHUNK_MODELS = {
    "ic": ic_pinned_cases,
    "bdep": bdep_edge_cases,
    "lt": lt_edge_cases,
    "two-world": im.families.gen_two_world_mixture,
    "lt-bdep-mixture": lambda: im.mixture_model([(lt_edge_cases(), 0.4),
                                                 (bdep_edge_cases(), 0.6)]),
}


@pytest.mark.parametrize("chunk", [64, 100])
@pytest.mark.parametrize("kind", sorted(CHUNK_MODELS))
def test_outcome_chunks_match_reference_loops(kind, chunk, monkeypatch):
    monkeypatch.setattr(exact, "_CHUNK", chunk)
    model = CHUNK_MODELS[kind]()
    expect = list(reference_outcome_chunks(model, chunk))
    # With every edge relevant the chunks cover the whole outcome space.
    got = list(exact._outcome_chunks(model, np.ones(model.graph.num_edges, dtype=bool)))
    assert len(got) == len(expect)
    assert sum(rows for _, rows, _ in got) == im.outcome_count(model)
    m = model.graph.num_edges
    # The reference multiplies an LT component's choices onto its mixture
    # weight; the unit table multiplies the product by the weight last.
    lt_rows = 0
    if kind == "lt-bdep-mixture":
        lt_rows = im.outcome_count(model.components[0])
    seen = 0
    for (words, rows, probs), (live, expect_probs) in zip(got, expect):
        assert words.dtype == np.uint64 and words.shape == (m, -(-rows // 64))
        assert rows == live.shape[0]
        assert np.array_equal(im.unpack_rows(words, rows), live)
        # padding bits past the last row stay zero
        assert np.array_equal(words, im.pack_rows(live))
        if seen < lt_rows:
            assert np.allclose(probs, expect_probs, rtol=1e-15, atol=0.0)
        else:
            assert probs.tobytes() == expect_probs.tobytes()
        seen += rows


def sequential_part_chunks(radices, choice_probs, edge_choice, weight, offset, m, width,
                           chunk):
    """Outcome by outcome: ``(live, probs)`` per chunk of ``chunk`` outcomes,
    each probability the product of its choices in unit order starting from
    1.0, times ``weight``; ``live`` is the bool ``(rows, width)`` matrix."""
    total = math.prod(radices)
    choices = sum(radices)
    for lo in range(0, total, chunk):
        rows = min(chunk, total - lo)
        live = np.zeros((rows, width), dtype=bool)
        probs = np.empty(rows, dtype=np.float64)
        for k in range(rows):
            rest, first, taken, p = lo + k, 0, {choices + 1}, 1.0
            for r in radices:
                rest, digit = divmod(rest, r)
                taken.add(first + digit)
                p *= float(choice_probs[first + digit])
                first += r
            probs[k] = weight * p
            live[k, offset:offset + m] = [c in taken for c in edge_choice.tolist()]
        yield live, probs


@settings(max_examples=150, deadline=None)
@given(radices=st.lists(st.integers(2, 5), max_size=8).filter(lambda r: math.prod(r) <= 4000),
       chunk=st.sampled_from([64, 96, 100, 1000]), seed=st.integers(0, 2**32 - 1))
@example(radices=[5, 5, 5, 5, 5, 2], chunk=1000, seed=1)  # the last stride, 3125, exceeds it
@example(radices=[5, 5, 3, 2], chunk=64, seed=2)
@example(radices=[3, 3, 3, 3, 3, 3, 3], chunk=96, seed=3)
@example(radices=[2] * 11, chunk=100, seed=4)
def test_part_chunks_match_the_sequential_product(radices, chunk, seed):
    rng = np.random.default_rng(seed)
    choices = sum(radices)
    choice_probs = rng.random(choices)
    # Edges on every choice, on the never-live and always-live slots, and
    # some choices with no edge.
    m = int(rng.integers(1, choices + 4))
    edge_choice = rng.integers(0, choices + 2, size=m)
    offset = int(rng.integers(0, 3))
    width = offset + m + int(rng.integers(0, 3))
    weight = float(rng.choice([1.0, rng.random()]))
    old_chunk = exact._CHUNK
    exact._CHUNK = chunk
    try:
        got = list(exact._part_chunks(np.array(radices, dtype=np.int64), choice_probs,
                                      edge_choice, weight, offset, m, width))
    finally:
        exact._CHUNK = old_chunk
    expect = list(sequential_part_chunks(radices, choice_probs, edge_choice, weight,
                                         offset, m, width, chunk))
    assert len(got) == len(expect)
    for (words, rows, probs), (live, expect_probs) in zip(got, expect):
        assert rows == live.shape[0]
        assert words.dtype == np.uint64 and words.tobytes() == im.pack_rows(live).tobytes()
        assert probs.tobytes() == expect_probs.tobytes()


# -- one enumeration pass for every exact set value ---------------------------

# Mixed sizes, unsorted members and duplicates; every id is below 5, the
# smallest node count in CHUNK_MODELS.
VALUE_SETS = [(3, 1), (0,), (2, 2, 4), (4, 0, 1, 3), (1, 3), (4,)]


@pytest.mark.parametrize("kind", sorted(CHUNK_MODELS))
def test_exact_values_match_reports(kind, monkeypatch):
    # Sixty-four outcomes per chunk, so every total runs over many chunks.
    monkeypatch.setattr(exact, "_CHUNK", 64)
    model = CHUNK_MODELS[kind]()
    for tau in range(4):
        got = im.exact_values(model, tau, VALUE_SETS)
        assert got.tolist() == [im.exact_report(model, s, tau).influence
                                for s in VALUE_SETS]
        report = im.exact_report(model, (0,), tau)
        oracle = im.ExactInfluence(model, tau)
        assert oracle.opt1() == report.opt1
        assert oracle.query((0,)) == report.influence
        assert [oracle.query(s) for s in VALUE_SETS] == got.tolist()


# -- enumeration over each seed set's tau-ball ---------------------------------

def lt_merge_case():
    # From node 0 within one step: node 2's in-edge from 1 can fire within
    # two steps, its earlier in-edge from 3 cannot, so that choice merges
    # into "none", after the kept one.
    return im.lt_model(im.Graph.from_edges(5, [
        (0, 1, 0.5), (3, 2, 0.4), (1, 2, 0.3), (2, 4, 0.6), (4, 3, 0.2)]))


def split_mixture():
    # Two IC components whose balls around node 0 hold different edges.
    forward = im.ic_model(im.Graph.from_edges(5, [
        (0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (3, 4, 0.5)]))
    backward = im.ic_model(im.Graph.from_edges(5, [
        (0, 4, 0.25), (4, 3, 0.75), (3, 2, 0.5), (2, 1, 0.5), (1, 0, 0.5)]))
    return im.mixture_model([(forward, 0.3), (backward, 0.7)])


BALL_MODELS = dict(CHUNK_MODELS, **{"lt-merge": lt_merge_case,
                                    "split-mixture": split_mixture})


def reference_report(model, seeds, tau):
    """Influence, variance and step profile over the whole outcome space,
    as laid out by :func:`reference_outcome_chunks`."""
    g = model.graph
    influence = second = 0.0
    step_probs = np.zeros((tau + 1, g.num_nodes))
    for live, probs in reference_outcome_chunks(model, 1 << 16):
        rows = live.shape[0]
        steps = im.propagation_steps(g, im.pack_rows(live), seeds, tau)
        for d, (newly, active) in enumerate(steps):
            step_probs[d] += probs @ im.unpack_rows(newly, rows)
        values = im.unpack_rows(active, rows) @ g.node_weights
        influence += float(probs @ values)
        second += float(probs @ (values * values))
    return influence, second - influence * influence, second, step_probs


@pytest.mark.parametrize("kind", sorted(BALL_MODELS))
def test_ball_reports_match_the_whole_outcome_space(kind):
    model = BALL_MODELS[kind]()
    for tau in range(4):
        for seeds in VALUE_SETS:
            report = im.exact_report(model, seeds, tau)
            influence, variance, second, step_probs = reference_report(model, seeds, tau)
            assert report.influence == pytest.approx(influence, rel=1e-12, abs=0.0)
            # The variance is a difference of moments, so its rounding
            # error scales with the second moment.
            assert report.variance == pytest.approx(variance, rel=1e-12, abs=1e-12 * second)
            np.testing.assert_allclose(report.step_probs, step_probs, rtol=1e-12, atol=0.0)
            assert report.enumeration_size == im.outcome_count(model)
            assert 1 <= report.outcomes_enumerated <= report.enumeration_size


def reference_distances(model, seeds, depth):
    """Each node's fewest ``p > 0`` edges from ``seeds``, the least over a
    mixture's components, from set searches of growing depth; ``None`` past
    ``depth``."""
    distance = [None] * model.num_nodes
    for k in range(depth, -1, -1):
        for part, _, _ in model.parts:
            for v in reach_ids(part.graph, part.graph.probs > 0.0, seeds, k).tolist():
                distance[v] = k
    return distance


# "fork" has fewer nodes than the largest tau, so a search runs out of
# nodes before it runs out of steps.
TAU_BALL_MODELS = dict(BALL_MODELS, tree=lambda: im.families.gen_tree(3),
                       star=lambda: im.families.gen_star(5, dependent=True),
                       fork=lambda: im.ic_model(im.Graph.from_edges(
                           3, [(0, 1, 0.5), (0, 2, 0.5), (2, 1, 0.3)])))


@pytest.mark.parametrize("kind", sorted(TAU_BALL_MODELS))
def test_ball_matches_the_set_search_and_bounds_the_step_profile(kind):
    model = TAU_BALL_MODELS[kind]()
    n = model.num_nodes
    for tau in range(5):
        for seeds in VALUE_SETS + [tuple(range(n))]:
            seeds = tuple(v for v in seeds if v < n) or (0,)
            distance, relevant = models.ball(model, tau, seeds)
            assert np.array_equal(relevant, ball_edges_by_sets(model, tau, seeds))
            assert np.array_equal(models.ball_edges(model, tau, seeds), relevant)
            expect = reference_distances(model, seeds, tau)
            assert distance.tolist() == [n if d is None else d for d in expect]
            # Step d first activates no node farther than d: those entries
            # are exact zeros, and so is every step past the seeds' own.
            step_probs = im.exact_report(model, seeds, tau).step_probs
            for d in range(tau + 1):
                far = [v for v in range(n) if expect[v] is None or expect[v] > d]
                assert (step_probs[d, far] == 0.0).all()
                if d:
                    assert (step_probs[d, list(set(seeds))] == 0.0).all()


def test_lt_choices_outside_the_ball_merge_into_none():
    model = lt_merge_case()
    relevant = im.ball_edges(model, 2, (0,))
    assert relevant.tolist() == [True, False, True, False, False]
    radices, choice_probs, edge_choice = exact._ball_units(model._units, relevant)
    # Node 1 keeps [edge 0, none]; node 2 keeps [edge 2, edge 1 + none].
    assert radices.tolist() == [2, 2]
    assert choice_probs.tolist() == [0.5, 0.5, 0.3, 0.4 + max(0.0, 1.0 - (0.4 + 0.3))]
    assert edge_choice.tolist() == [0, 4, 2, 4, 4]
    report = im.exact_report(model, (0,), 2)
    assert report.outcomes_enumerated == 4 and report.enumeration_size == 2 * 3 * 2 * 2
    assert report.influence == pytest.approx(1.0 + 0.5 + 0.5 * 0.3)
    # Zero-weight in-edges never fire: from node 0 in one step, only nodes
    # 2, 3 and 9 can activate, so nodes 1 and 5 (zero-weight edges from 0)
    # add no outcomes.
    assert im.exact_report(lt_edge_cases(), (0,), 1).outcomes_enumerated == 2 * 2 * 2


def test_mixture_components_restrict_to_their_own_balls():
    model = split_mixture()
    relevant = im.ball_edges(model, 2, (0,))
    # forward fires 0->1 and 1->2; backward fires 0->4 and 4->3.
    assert np.flatnonzero(relevant).tolist() == [0, 1, 4, 5]
    report = im.exact_report(model, (0,), 2)
    assert report.outcomes_enumerated == 4 + 4
    assert report.influence == pytest.approx(0.3 * 1.75 + 0.7 * (1.0 + 0.25 + 0.25 * 0.75))
    # At tau 0 no edge can fire, and each component walks one outcome.
    assert im.exact_report(model, (0,), 0).outcomes_enumerated == 2


def test_tree_balls_walk_only_the_subtree_in_reach():
    tree = im.families.gen_tree(3)
    counts = [im.exact_report(tree, (v,), 3).outcomes_enumerated for v in (0, 1, 3, 7)]
    # The root reaches all 14 edges, node 1 its 6, node 3 its 2, a leaf none.
    assert counts == [1 << 14, 1 << 6, 1 << 2, 1]
    assert im.exact_report(tree, (0,), 0).outcomes_enumerated == 1
    assert im.exact_report(tree, (0,), 1).outcomes_enumerated == 1 << 2


@pytest.mark.parametrize("kind", sorted(BALL_MODELS))
def test_set_values_do_not_depend_on_the_other_sets(kind):
    model = BALL_MODELS[kind]()
    sets = VALUE_SETS + [(v,) for v in range(model.num_nodes)] + [(0, 1), (1, 0)]
    for tau in range(4):
        together = im.exact_values(model, tau, sets).tolist()
        assert im.exact_values(model, tau, sets[::-1]).tolist() == together[::-1]
        order = np.random.default_rng(tau).permutation(len(sets))
        shuffled = im.exact_values(model, tau, [sets[i] for i in order]).tolist()
        assert shuffled == [together[i] for i in order]
        assert [im.exact_values(model, tau, [s])[0] for s in sets] == together


def test_row_values_add_active_weights_in_node_order():
    rng = np.random.default_rng(3)
    for n, m, seed in ((9, 12, 6), (40, 80, 7), (300, 600, 8)):
        g = im.families.gen_random_ic(n, m, weight_range=(0.5, 3.0), seed=seed).graph
        for rows in (1, 2, 63, 64, 65, 130, 1000):
            bits = rng.random((rows, n)) < 0.5
            expect = np.zeros(rows)
            for v in range(n):
                expect += g.node_weights[v] * bits[:, v]
            got = models.row_values(g, im.pack_rows(bits), rows)
            assert got.tobytes() == expect.tobytes()
            # A row's value does not depend on the rows around it.
            one = models.row_values(g, im.pack_rows(bits[:1]), 1)
            assert one.tobytes() == got[:1].tobytes()


# Prints the bytes of every exact output and of weighted row values.
_VALUE_BYTES_SCRIPT = """
import sys
import numpy as np
import infmax as im
model = im.families.gen_random_ic(8, 22, seed=0)
report = im.exact_report(model, (0, 3), 3)
profile = im.depth_profile(model, (0, 3), 3)
weighted = im.families.gen_random_ic(30, 80, weight_range=(0.5, 3.0), seed=1)
words, _ = im.sample_pool(weighted, 5, 5000, packed=True)
mask = im.reach_mask_batch(weighted.graph, words, (0, 3), 3)
parts = [np.float64(report.influence), np.float64(report.variance), report.step_probs,
         im.exact_values(model, 3, [(0,), (3,), (0, 3), (1, 6), (2, 7)]),
         np.float64(profile.mean_depth), profile.influence_by_tau,
         im.row_values(weighted.graph, mask, 5000)]
sys.stdout.write(b"".join(part.tobytes() for part in parts).hex())
"""


def test_values_do_not_depend_on_blas_threads():
    # A BLAS product may split a sum over its threads, so the thread count
    # would move the last bits of a value; no value goes through BLAS.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    runs = [subprocess.Popen([sys.executable, "-c", _VALUE_BYTES_SCRIPT],
                             env=dict(env, OPENBLAS_NUM_THREADS=threads),
                             stdout=subprocess.PIPE, text=True)
            for threads in ("1", "4")]
    out = [run.communicate()[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert out[0] == out[1]


def test_query_many_matches_the_influence_map_bit_for_bit():
    model = im.families.gen_random_ic(7, 11, weight_range=(0.5, 3.0), seed=2)
    for tau in (1, 2, 3):
        table = im.exact_influence_map(model, tau, 2)
        oracle = im.ExactInfluence(model, tau)
        assert oracle.query_many(list(table)).tolist() == list(table.values())
        assert [im.exact_report(model, s, tau).influence for s in list(table)[:9]] == \
            list(table.values())[:9]


def test_sets_sharing_a_ball_share_one_pass(monkeypatch):
    tree = im.families.gen_tree(3)
    passes = counting_calls(monkeypatch, "_outcome_chunks")
    leaves = [(v,) for v in range(7, 15)]
    im.exact_values(tree, 3, leaves)
    assert len(passes) == 1
    # {0, 1} fires exactly the root's edges, in any order.
    im.exact_values(tree, 3, [(0,), (0, 1), (1, 0)])
    assert len(passes) == 2
    # Singles: the root, two depth-1 subtrees, four depth-2 ones, the leaves.
    im.exact_values(tree, 3, [(v,) for v in range(tree.num_nodes)])
    assert len(passes) == 2 + 8


def test_exact_query_many_matches_query_with_one_pass_per_call(monkeypatch):
    model = im.families.gen_random_ic(6, 9, weight_range=(0.5, 3.0), seed=4)
    sets = [s for k in (1, 2) for s in combinations(range(6), k)]
    expected = [im.ExactInfluence(model, 2).query(s) for s in sets]
    passes = []

    def counting(*args):
        passes.append(args)
        return im.exact_values(*args)

    monkeypatch.setattr(exact, "exact_values", counting)
    oracle = im.ExactInfluence(model, 2)
    assert oracle.query_many(sets[:8]).tolist() == expected[:8]
    assert len(passes) == 1
    assert oracle.query_many(sets).tolist() == expected
    assert len(passes) == 2 and len(passes[1][2]) == len(sets)
    # sets in any member order
    assert oracle.query_many([(1, 0), [3], (5, 4)]).tolist() == [
        expected[sets.index(s)] for s in [(0, 1), (3,), (4, 5)]]
    assert len(passes) == 3
    assert oracle.query_many([]).shape == (0,)
    assert len(passes) == 4
    assert oracle.opt1() == max(expected[:6])


def test_exact_values_validate_input():
    model = ic_pinned_cases()
    with pytest.raises(ValueError, match="nonnegative"):
        im.exact_values(model, -1, [(0,)])
    with pytest.raises(ValueError, match="out of range"):
        im.exact_values(model, 1, [(0,), (5,)])
    with pytest.raises(ValueError, match="empty"):
        im.exact_values(model, 1, [()])
    assert im.exact_values(model, 1, []).shape == (0,)


def test_every_exact_entry_point_checks_the_budget():
    big_ic = im.families.gen_star(200, dependent=False)
    with pytest.raises(im.EnumerationBudgetError, match="too large"):
        im.exact_values(big_ic, 1, [(0,)])
    with pytest.raises(im.EnumerationBudgetError, match="too large"):
        im.ExactInfluence(big_ic, 1).query((0,))
    with pytest.raises(im.EnumerationBudgetError, match="too large"):
        im.exact_influence_map(big_ic, 1, 3)

    # The budget is checked before any seed set is read, so an over-budget
    # map fails before it lists its subsets.
    def unread_sets():
        raise AssertionError("seed sets read before the budget check")
        yield

    with pytest.raises(im.EnumerationBudgetError, match="too large"):
        im.exact_values(big_ic, 1, unread_sets())


def test_unit_tables_built_once_per_component(monkeypatch):
    model = CHUNK_MODELS["lt-bdep-mixture"]()
    built = []
    build = models._build_units

    def counting_build(part):
        built.append(part)
        return build(part)

    monkeypatch.setattr(models, "_build_units", counting_build)
    for _ in range(2):
        im.exact_report(model, (0,), 2)
        im.exact_values(model, 2, [(0,), (1, 2)])
    assert [id(part) for part in built] == [id(part) for part in model.components]


def test_exact_values_do_not_depend_on_block_cells(monkeypatch):
    # One-word chunks, their sets propagated as many to a block as the
    # default allows, one to a block, and three to a block.
    monkeypatch.setattr(exact, "_CHUNK", 64)

    def values(model, tau, sets):
        report = im.exact_report(model, (0, 2), tau)
        return (im.exact_values(model, tau, sets).tobytes(),
                im.ExactInfluence(model, tau).query_many(sets).tobytes(),
                report.influence, report.variance, report.opt1, report.step_probs.tobytes())

    for kind, make in sorted(CHUNK_MODELS.items()):
        model = make()
        sets = VALUE_SETS + [(v,) for v in range(model.num_nodes)]
        cells = max(model.graph.num_edges, model.num_nodes)
        for tau in range(4):
            default = values(model, tau, sets)
            for per_block in (1, 3):
                with monkeypatch.context() as m:
                    m.setattr(models, "_BLOCK_CELLS", per_block * cells)
                    # A fresh model, so its opt1 is not read from the first
                    # model's memo but computed under these blocks.
                    assert values(make(), tau, sets) == default, (kind, tau, per_block)


# -- opt1, memoized per model and step limit ----------------------------------

def counting_calls(monkeypatch, name):
    """Replace ``exact.<name>`` by a wrapper that records each call's
    arguments in the returned list."""
    calls = []
    original = getattr(exact, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(exact, name, counting)
    return calls


def test_audits_value_the_singles_once_per_step_limit(monkeypatch):
    model = im.families.gen_random_ic(8, 14, seed=5)
    n = model.num_nodes
    expected = float(im.exact_values(model, 2, [(v,) for v in range(n)]).max())
    passes = counting_calls(monkeypatch, "exact_values")
    c = im.c_value(model, 2)
    audits = [im.audit_variance_bound(model, (v,), 2, c) for v in range(n)]
    audits.append(im.audit_variance_bound(model, (0, 3, 5), 2, c))
    assert len(passes) == 1
    assert passes[0][2] == [(v,) for v in range(n)]
    assert {audit.opt1 for audit in audits} == {expected}


def test_report_without_opt1_read_runs_one_enumeration_pass(monkeypatch):
    model = CHUNK_MODELS["lt-bdep-mixture"]()
    chunk_passes = counting_calls(monkeypatch, "_outcome_chunks")
    value_passes = counting_calls(monkeypatch, "exact_values")
    report = im.exact_report(model, (0, 2), 3)
    assert len(chunk_passes) == 1 and not value_passes
    # The singles pass walks one restricted space per distinct ball; at
    # tau 3 each of the ten nodes has a ball of its own.
    balls = {im.ball_edges(model, 3, (v,)).tobytes() for v in range(model.num_nodes)}
    assert len(balls) == 10
    first = report.opt1
    assert len(chunk_passes) == 1 + len(balls) and len(value_passes) == 1
    assert im.exact_report(model, (1,), 3).opt1 == first
    assert len(chunk_passes) == 2 + len(balls) and len(value_passes) == 1


def test_opt1_depends_on_the_step_limit():
    # On the path 0 -> 1 -> 2 -> 3 node 0 reaches tau + 1 nodes.
    path = im.ic_model(im.Graph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]))
    assert [exact.opt1(path, tau) for tau in range(5)] == [1.0, 2.0, 3.0, 4.0, 4.0]
    assert [im.exact_report(path, (3,), tau).opt1 for tau in (0, 2)] == [1.0, 3.0]


def test_opt1_memo_does_not_keep_the_model_alive():
    model = im.families.gen_tree(2)
    assert im.exact_report(model, (0,), 2).opt1 == 3.0
    ref = weakref.ref(model)
    del model
    gc.collect()
    assert ref() is None
