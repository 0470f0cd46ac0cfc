import math
import weakref
from itertools import combinations

import numpy as np
import pytest

import infmax as im
from infmax import exact


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


# -- enumeration chunks -------------------------------------------------------

def reference_outcome_chunks(model, chunk, weight=1.0, offset=0, width=None):
    """Per-kind loops filling bool ``(rows, width)`` live matrices, one unit,
    edge and slot at a time: the layout the unit table must reproduce."""
    g = model.graph
    m = g.num_edges
    if width is None:
        width = m
    if model.kind == im.MIXTURE:
        for c, comp in enumerate(model.components):
            yield from reference_outcome_chunks(
                comp, chunk, weight * float(model.component_weights[c]),
                offset + int(model.component_offsets[c]), width)
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
    got = list(exact._outcome_chunks(model))
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
        assert words.dtype == np.uint64 and words.shape == (-(-rows // 64), m)
        assert rows == live.shape[0]
        assert np.array_equal(im.unpack_rows(words, rows), live)
        # padding bits past the last row stay zero
        assert np.array_equal(words, im.pack_rows(live))
        if seen < lt_rows:
            assert np.allclose(probs, expect_probs, rtol=1e-15, atol=0.0)
        else:
            assert probs.tobytes() == expect_probs.tobytes()
        seen += rows


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
        assert got.tolist() == [im.exact_report(model, s, tau, compute_opt1=False).influence
                                for s in VALUE_SETS]
        report = im.exact_report(model, (0,), tau)
        oracle = im.ExactInfluence(model, tau)
        assert oracle.opt1() == report.opt1
        assert oracle.query((0,)) == report.influence
        assert [oracle.query(s) for s in VALUE_SETS] == got.tolist()


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
    assert len(passes) == 2 and len(passes[1][2]) == len(sets) - 8
    # memoized sets, in any member order, need no pass
    assert oracle.query_many([(1, 0), [3], (5, 4)]).tolist() == [
        expected[sets.index(s)] for s in [(0, 1), (3,), (4, 5)]]
    assert oracle.query_many([]).shape == (0,)
    assert oracle.opt1() == max(expected[:6])
    assert len(passes) == 2


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
    calls = []
    units = exact._units

    def counting_units(part):
        calls.append(part)
        return units(part)

    monkeypatch.setattr(exact, "_units", counting_units)
    im.exact_report(model, (0,), 2)
    assert [id(part) for part in calls] == [id(part) for part in model.components]


def test_single_reaches_are_released_after_last_use(monkeypatch):
    # opt1 needs n single reaches per chunk; each is dropped once no later
    # set uses it, so at most the previous one is still alive at any call.
    model = CHUNK_MODELS["lt"]()
    made = []
    reach = exact.reach_mask_batch

    def tracked_reach(*args):
        alive = sum(ref() is not None for ref in made)
        assert alive <= 1, f"{alive} earlier reaches still held"
        mask = reach(*args)
        made.append(weakref.ref(mask))
        return mask

    monkeypatch.setattr(exact, "reach_mask_batch", tracked_reach)
    exact.exact_report(model, (0,), 2)
    assert len(made) == model.num_nodes
