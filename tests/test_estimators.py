import dataclasses
import math
from itertools import combinations
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import infmax as im
from infmax import estimators, models, rng
from scalar_reference import reach_ids
import stream_reference


def deterministic_path():
    return im.ic_model(im.Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)]))


# -- configuration ----------------------------------------------------------

def test_config_validation():
    im.OracleConfig(1, 1, 0)
    im.OracleConfig(3, 2, 1)
    with pytest.raises(ValueError, match="odd"):
        im.OracleConfig(4, 2, 1)
    with pytest.raises(ValueError):
        im.OracleConfig(0, 2, 1)
    with pytest.raises(ValueError):
        im.OracleConfig(1, 0, 1)


def test_pool_layout_owns_consecutive_indices():
    model = im.families.gen_random_ic(8, 14, seed=1)
    config = im.OracleConfig(3, 2, 2, master_seed=9)
    oracle = im.build_oracle(model, config)
    rows = np.array([im.sample_pool(model, 9, 1, i)[0][0] for i in range(6)])
    from_rows = im.Oracle(model, config, rows, None)
    for seeds in [(0,), (3,), (1, 5)]:
        pools = oracle.pool_averages(seeds)
        assert np.array_equal(pools, from_rows.pool_averages(seeds))
        for pool in range(3):
            words = im.pack_rows(rows[2 * pool:2 * pool + 2])
            values = im.row_values(model.graph, im.reach_mask_batch(model.graph, words, seeds, 2),
                                   2)
            assert pools[pool] == values.mean()


# -- query semantics --------------------------------------------------------

def test_query_on_deterministic_model_is_exact():
    oracle = im.build_oracle(deterministic_path(), im.OracleConfig(5, 4, 2, 0))
    assert oracle.query((0,)) == 3.0
    # one pool of one simulation degenerates to that simulation's value
    tiny = im.build_oracle(deterministic_path(), im.OracleConfig(1, 1, 2, 0))
    g = deterministic_path().graph
    live, _ = im.sample_pool(deterministic_path(), 0, 1, packed=True)
    assert tiny.query((1,)) == im.row_values(g, im.reach_mask_batch(g, live, (1,), 2), 1)[0]


@pytest.mark.parametrize("pools,pool_size", [(1, 50), (5, 7), (213, 32), (65, 128)])
def test_query_is_median_of_pool_averages(pools, pool_size):
    model = im.families.gen_random_ic(9, 16, seed=4)
    oracle = im.build_oracle(model, im.OracleConfig(pools, pool_size, 2, 3))
    sets = [(1, 4), (0, 2), (3, 8), (5, 6)]
    many = oracle.query_many(sets)
    for seeds, value in zip(sets, many):
        median = np.median(oracle.pool_averages(seeds))
        assert np.float64(oracle.query(seeds)).tobytes() == median.tobytes()
        assert value.tobytes() == median.tobytes()
    assert np.median([2.0, 5.0, 3.0]) == 3.0  # middle order statistic


def test_single_pool_query_is_plain_average():
    model = im.families.gen_random_ic(9, 16, seed=4)
    oracle = im.build_oracle(model, im.OracleConfig(1, 50, 2, 3))
    live, _ = im.sample_pool(model, 3, 50, packed=True)
    values = im.row_values(model.graph, im.reach_mask_batch(model.graph, live, (2,), 2), 50)
    assert oracle.query((2,)) == pytest.approx(values.sum() / 50)


def test_oracle_takes_bool_rows_or_packed_words_of_its_config_shape():
    model = im.families.gen_random_ic(9, 16, seed=4)
    config = im.OracleConfig(1, 100, 2, 3)
    m = model.graph.num_edges
    built = im.build_oracle(model, config)
    rows, _ = im.sample_pool(model, 3, 100)
    words = im.pack_rows(rows)
    for live in (rows, words):
        oracle = im.Oracle(model, config, live, None)
        assert np.array_equal(oracle.pool_averages((2, 5)), built.pool_averages((2, 5)))
    assert words.flags.writeable
    # Rows, words or edge columns that do not fit the config fail at
    # construction instead of skewing or breaking later queries.
    for live in (rows[:50], rows[:, :m - 1], np.zeros((101, m), dtype=bool),
                 im.pack_rows(rows[:64]), words[:m - 1],
                 np.zeros((m, 3), dtype=np.uint64)):
        with pytest.raises(ValueError, match="must be"):
            im.Oracle(model, config, live, None)


# Explicit layouts: single-word pools at bit offsets of 32, 64-aligned
# pools, and pools that straddle words.
@given(pools=st.sampled_from([1, 3, 5, 7, 29, 65]), pool_size=st.integers(1, 300),
       cols=st.integers(1, 6), density=st.floats(0.0, 1.0), seed=st.integers(0, 10**6))
@example(pools=65, pool_size=32, cols=3, density=0.5, seed=1)
@example(pools=7, pool_size=64, cols=2, density=0.5, seed=2)
@example(pools=5, pool_size=128, cols=4, density=0.3, seed=3)
@example(pools=65, pool_size=300, cols=6, density=0.7, seed=4)
@example(pools=29, pool_size=97, cols=1, density=1.0, seed=5)
@example(pools=1, pool_size=8, cols=3, density=0.5, seed=6)
@example(pools=1, pool_size=16, cols=2, density=0.5, seed=7)
@example(pools=1, pool_size=192, cols=4, density=0.4, seed=8)
@example(pools=1, pool_size=320, cols=5, density=0.6, seed=9)
def test_packed_pool_counts_match_bool_sums(pools, pool_size, cols, density, seed):
    mask = np.random.default_rng(seed).random((pools * pool_size, cols)) < density
    packed = im.pack_rows(mask)
    # set the padding bits of the last word: they must never be counted
    tail = (pools * pool_size) % 64
    if tail:
        packed[:, -1] |= ~((np.uint64(1) << np.uint64(tail)) - np.uint64(1))
    counts = im.pool_counts(packed, pools, pool_size)
    assert counts.shape == (pools, cols)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, mask.reshape(pools, pool_size, cols).sum(1))


@given(pools=st.sampled_from([1, 3, 7]), pool_size=st.integers(1, 300),
       cols=st.sampled_from([1, 2, 5, 130, 300]), batch=st.integers(1, 4),
       density=st.floats(0.0, 1.0), seed=st.integers(0, 10**6))
@example(pools=7, pool_size=32, cols=5, batch=3, density=0.5, seed=1)
@example(pools=3, pool_size=64, cols=2, batch=2, density=0.5, seed=2)
@example(pools=3, pool_size=128, cols=130, batch=2, density=0.4, seed=3)
@example(pools=7, pool_size=300, cols=300, batch=4, density=0.6, seed=4)
def test_batched_pool_reduction_equals_per_mask_calls(pools, pool_size, cols, batch,
                                                      density, seed):
    gen = np.random.default_rng(seed)
    masks = im.pack_rows(gen.random((pools * pool_size, batch * cols)) < density)
    masks = masks.reshape(batch, cols, -1)
    # set the padding bits of every last word: they must never be counted
    tail = (pools * pool_size) % 64
    if tail:
        masks[..., -1] |= ~((np.uint64(1) << np.uint64(tail)) - np.uint64(1))
    counts = im.pool_counts(masks, pools, pool_size)
    assert counts.shape == (batch, pools, cols)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, np.stack([im.pool_counts(m, pools, pool_size)
                                            for m in masks]))
    weights = gen.uniform(0.5, 3.0, cols)
    weights[gen.random(cols) < 0.3] = 0.0
    for w in (np.ones(cols), weights):
        batched = im.mask_pool_averages(masks, w, pools, pool_size)
        single = np.stack([im.mask_pool_averages(m, w, pools, pool_size) for m in masks])
        assert batched.tobytes() == single.tobytes()  # bit-exact
        # Unit weights take integer totals, which equal the node-order sum.
        expect = np.zeros(counts.shape[:-1])
        for v in range(cols):
            expect = expect + w[v] * counts[..., v]
        assert batched.tobytes() == (expect / pool_size).tobytes()


@pytest.mark.parametrize("pools,pool_size", [(1, 300), (1, 320), (7, 32), (5, 128), (3, 23)])
def test_weighted_pool_values_add_in_node_order(pools, pool_size):
    # Unit weights take integer totals.  Random weights on 40 nodes show a
    # sum in any other order.  Unit weights but for node 0, which the set
    # (0,) reaches in every simulation, at 2.0 or 0.0, take the weighted sum.
    unit = im.families.gen_random_ic(40, 120, seed=pool_size)
    weighted = im.families.gen_random_ic(40, 120, weight_range=(0.5, 3.0), seed=pool_size)
    for model in (unit, weighted, reweighted(unit, np.r_[2.0, np.ones(39)]),
                  reweighted(unit, np.r_[0.0, np.ones(39)])):
        _check_pool_values_add_in_node_order(model, pools, pool_size)


def _check_pool_values_add_in_node_order(model, pools, pool_size):
    g, config = model.graph, im.OracleConfig(pools, pool_size, 2, master_seed=5)
    oracle = im.build_oracle(model, config)
    for sets in ([(v,) for v in range(40)], [(0, 7), (3, 39), (12, 20), (5, 31)]):
        many = oracle.query_many(sets)
        assert many.tobytes() == np.array([oracle.query(s) for s in sets]).tobytes()
    live, _ = im.sample_pool(model, 5, config.total_simulations, packed=True)
    # k above a pool's 40 x pool_size pairs keeps every pool's sketches lossless.
    rows = im.unpack_rows(live, config.total_simulations)
    lossless = [im.build_sketches(model, rows[p * pool_size:(p + 1) * pool_size], 2,
                                  pool_size * 40 + 1, rank_seed=11 + p) for p in range(pools)]
    for seeds in [(0,), (3, 39), (1, 12, 20)]:
        counts = im.pool_counts(im.reach_mask_batch(g, live, seeds, 2), pools, pool_size)
        expect = np.zeros(pools)
        for v in range(40):
            expect = expect + g.node_weights[v] * counts[:, v]
        averages = oracle.pool_averages(seeds)
        assert averages.tobytes() == (expect / pool_size).tobytes()
        estimates = np.array([im.sketch_query(ss, seeds, pool_size) for ss in lossless])
        assert estimates.tobytes() == averages.tobytes()


def test_batched_values_do_not_depend_on_the_row_cache(monkeypatch):
    # 3 pools of 50: 150 simulations in three words, the last one partial.
    # query_many propagates the sets of a block together, as many to a
    # propagation as the default allows, one, or three.  extension_values
    # and subset_values read the cached reach rows, or without a cache
    # compute them or go through query_many, and give the same values.
    model = im.families.gen_random_ic(9, 20, weight_range=(0.5, 3.0), seed=6)
    n, m = model.num_nodes, model.graph.num_edges
    sets = [[(v,) for v in range(n)], [(0, 7), (3, 3), (8, 1), (5, 2)],
            [(2, 2, 0), (4, 6, 8), (1, 1, 1)], [(0, 1, 2, 3), (8, 8, 7, 8)]]
    bases = [(), (4,), (8, 1), (2, 2, 0)]
    for tau in (0, 1, 2, n - 1):
        config = im.OracleConfig(3, 50, tau, master_seed=5)
        cached = im.build_oracle(model, config)
        expect = [np.array([cached.query(s) for s in size]).tobytes() for size in sets]
        assert [cached.query_many(size).tobytes() for size in sets] == expect
        grown = [np.array([cached.query(base + (v,)) for v in range(n)]).tobytes()
                 for base in bases]
        assert [cached.extension_values(base, range(n)).tobytes()
                for base in bases] == grown
        subsets = [np.array([cached.query(s) for s in combinations(range(n), size)]).tobytes()
                   for size in (1, 2, 3)]
        assert [cached.subset_values(size).tobytes() for size in (1, 2, 3)] == subsets
        assert cached._rows is not None
        for cells in (models._BLOCK_CELLS, 3 * m, 3 * 3 * m):
            with monkeypatch.context() as patch:
                patch.setattr(models, "_EXPLICIT_CACHE_BYTES", 0)
                patch.setattr(models, "_BLOCK_CELLS", cells)
                uncached = im.build_oracle(model, config)
                assert [uncached.query_many(size).tobytes() for size in sets] == expect
                assert [uncached.extension_values(base, range(n)).tobytes()
                        for base in bases] == grown
                assert [uncached.subset_values(size).tobytes() for size in (1, 2, 3)] == subsets
                assert uncached._rows is None


def test_reach_row_cache_is_every_source_within_its_budget(monkeypatch):
    # The cached rows are every node's reach_rows, whether built in one
    # block or a source at a time, and kept up to exactly the budget when
    # one block holds every source.
    model = im.families.gen_random_ic(9, 20, seed=6)
    config = im.OracleConfig(3, 50, 2, master_seed=5)
    start, nodes, rows = im.build_oracle(model, config)._rows
    oracle = im.build_oracle(model, config)
    for u in range(9):
        at = slice(start[u], start[u + 1])
        one = models.reach_rows(model.graph, oracle._live, 2, [u])
        assert np.array_equal(nodes[at], one[1]) and np.array_equal(rows[at], one[2])
    with monkeypatch.context() as patch:
        patch.setattr(estimators, "_SCORE_BLOCK_BYTES", 1)
        blocked = im.build_oracle(model, config)._rows
        assert all(np.array_equal(a, b) for a, b in zip(blocked, (start, nodes, rows)))
    # Each row's key is counted beside its node id, and 8 bytes per pool
    # of each source's totals.
    size = 2 * nodes.nbytes + rows.nbytes + 9 * config.pools * 8
    monkeypatch.setattr(models, "_EXPLICIT_CACHE_BYTES", size)
    assert im.build_oracle(model, config)._rows is not None
    monkeypatch.setattr(models, "_EXPLICIT_CACHE_BYTES", size - 1)
    assert im.build_oracle(model, config)._rows is None


@given(seed=st.integers(0, 1000), pools=st.sampled_from([1, 3, 5]),
       pool_size=st.integers(1, 8))
def test_median_sandwich(seed, pools, pool_size):
    model = im.families.gen_random_ic(8, 14, seed=seed % 20)
    oracle = im.build_oracle(model, im.OracleConfig(pools, pool_size, 2, seed))
    averages = oracle.pool_averages((0,))
    value = oracle.query((0,))
    assert averages.min() <= value <= averages.max()


def test_query_rejects_empty_seeds():
    oracle = im.build_oracle(deterministic_path(), im.OracleConfig(1, 1, 1, 0))
    with pytest.raises(ValueError, match="empty seed set"):
        oracle.query(())


# -- sizing ------------------------------------------------------------------

def test_averaging_size_rule():
    config = im.size_for_guarantee(0.5, 0.1, 3.0, im.AVERAGING)
    assert (config.pools, config.pool_size) == (1, 120)


def test_median_of_averages_size_rule():
    config = im.size_for_guarantee(0.1, 0.01, 4.0, im.MEDIAN_OF_AVERAGES)
    assert config.pool_size == 1600
    assert config.pools == 129
    assert im.required_pools(math.exp(-1.0)) == 29


def test_size_rule_rejects_bad_parameters():
    for eps, delta, c in [(0.0, 0.1, 1.0), (1.0, 0.1, 1.0), (0.5, 0.0, 1.0),
                          (0.5, 1.0, 1.0), (0.5, 0.1, 0.5)]:
        with pytest.raises(ValueError):
            im.size_for_guarantee(eps, delta, c, im.AVERAGING)
    with pytest.raises(ValueError, match="mode"):
        im.size_for_guarantee(0.5, 0.1, 1.0, "bogus")


def test_check_eps_approx_examples():
    assert im.check_eps_approx(95.0, 100.0, 50.0, 0.1)
    assert im.check_eps_approx(2.0, 1.0, 100.0, 0.05)
    assert not im.check_eps_approx(120.0, 100.0, 50.0, 0.1)


# -- single-set pools from the tau-ball ---------------------------------------

def with_sink_and_isolated_node(model):
    """``model`` with two more nodes of weight 2: a sink, the head of a new
    edge from node 0 at p = 0.5, and a node that no edge touches."""
    if model.kind == im.models.MIXTURE:
        return im.mixture_model([(with_sink_and_isolated_node(c), w) for c, w in
                                 zip(model.components, model.component_weights)])
    g = model.graph
    return dataclasses.replace(model, graph=im.Graph(
        g.num_nodes + 2, np.append(g.tails, 0), np.append(g.heads, g.num_nodes),
        np.append(g.probs, 0.5), np.append(g.groups, -1),
        np.append(g.node_weights, [2.0, 2.0])))


def random_lt(n, m, seed):
    g = im.families.gen_random_ic(n, m, seed=seed).graph
    sums = np.bincount(g.heads, weights=g.probs, minlength=n)
    probs = g.probs * 0.9 / np.maximum(sums, 1.0)[g.heads]
    return im.lt_model(im.Graph(n, g.tails, g.heads, probs, g.groups, g.node_weights))


def random_bdep(n, m, seed):
    # Each node's out-edges in groups of two, at the first member's probability.
    g = im.families.gen_random_ic(n, m, seed=seed).graph
    edges = []
    for v in range(n):
        out = g.out_edges(v)
        for lo in range(0, out.size, 2):
            p = float(g.probs[out[lo]])
            edges += [(v, int(g.heads[e]), p, v * m + lo) for e in out[lo:lo + 2]]
    return im.bdep_model(im.Graph.from_edges(n, edges), b=2)


BALL_MODELS = {
    "ic": lambda: im.families.gen_random_ic(12, 30, seed=5),
    "lt": lambda: random_lt(12, 30, 6),
    "bdep": lambda: random_bdep(12, 30, 7),
    "mixture": lambda: im.mixture_model([(random_lt(12, 30, 6), 0.3),
                                         (random_bdep(12, 30, 7), 0.7)]),
    "two-world": im.families.gen_two_world_mixture,
    "polysimu": lambda: im.families.gen_polysimu(102),
    "tree": lambda: im.families.gen_tree(3),
}


@pytest.mark.parametrize("kind", sorted(BALL_MODELS))
def test_seed_set_pool_averages_equal_the_oracle_bit_for_bit(kind, monkeypatch):
    # One word of one test per chunk and block: several threads each fill
    # some blocks of every pool above 64 rows.
    monkeypatch.setattr(im.models, "_HASH_CELLS", 1)
    model = with_sink_and_isolated_node(BALL_MODELS[kind]())
    n = model.num_nodes
    sink, isolated = n - 2, n - 1
    seed_sets = [(0,), (sink,), (isolated,), (0, sink, isolated), (1, n // 2)]
    for tau in (0, 1, 2, 3, n - 1):
        # 11 pools of 93 and 192 end 65 simulations past a word boundary
        # and on one.
        for pool_size in (1, 63, 65, 93, 130, 192):
            config = im.OracleConfig(11, pool_size, tau, master_seed=tau + pool_size)
            oracle = im.build_oracle(model, config)
            for seeds in seed_sets:
                expect = oracle.pool_averages(seeds)
                for threads in (1, 2, 3):
                    got = im.seed_set_pool_averages(model, config, seeds, threads)
                    assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes()


# -- statistical behaviour ---------------------------------------------------

def test_averaging_oracle_is_unbiased():
    model = im.families.gen_tree(2)
    report = im.exact_report(model, (0,), 2)
    rebuilds, pool_size = 500, 20
    total = 0.0
    for i in range(rebuilds):
        oracle = im.build_oracle(model, im.OracleConfig(1, pool_size, 2, 50_000 + i))
        total += oracle.query((0,))
    grand_mean = total / rebuilds
    band = 4.0 * math.sqrt(report.variance / (rebuilds * pool_size))
    assert abs(grand_mean - report.influence) <= band


def test_averaging_oracle_unbiased_on_mixture():
    # one pool of 1000 simulations estimates every node of the two-world
    # mixture within four standard errors of its exact influence
    model = im.families.gen_two_world_mixture()
    tau = im.families.TWO_WORLD_TAU
    oracle = im.build_oracle(model, im.OracleConfig(1, 1000, tau, master_seed=2))
    for v in range(model.num_nodes):
        report = im.exact_report(model, (v,), tau)
        band = 4.0 * math.sqrt(max(report.variance, 1e-12) / 1000)
        assert abs(oracle.query((v,)) - report.influence) <= band


def test_moa_is_monotone_exhaustively():
    model = im.families.gen_random_ic(6, 10, seed=6)
    oracle = im.build_oracle(model, im.OracleConfig(5, 6, 2, 8))
    from itertools import combinations
    values = {}
    for size in range(1, 7):
        for subset in combinations(range(6), size):
            values[subset] = oracle.query(subset)
    for subset, value in values.items():
        for u in range(6):
            if u in subset:
                continue
            assert values[tuple(sorted(set(subset) | {u}))] >= value - 1e-12


def test_single_pool_oracle_is_monotone_and_submodular_exhaustively():
    model = im.families.gen_random_ic(6, 10, seed=6)
    oracle = im.build_oracle(model, im.OracleConfig(1, 25, 2, 8))
    from itertools import combinations
    values = {(): 0.0}
    for size in range(1, 7):
        for subset in combinations(range(6), size):
            values[subset] = oracle.query(subset)
    for subset, value in values.items():
        for u in range(6):
            if u in subset:
                continue
            assert values[tuple(sorted(set(subset) | {u}))] >= value - 1e-12
    for s_size in range(0, 3):
        for s_set in combinations(range(6), s_size):
            for t_set in combinations(range(6), s_size + 1):
                if not set(s_set) <= set(t_set):
                    continue
                for u in range(6):
                    if u in t_set:
                        continue
                    gain_s = values[tuple(sorted(set(s_set) | {u}))] - values[s_set]
                    gain_t = values[tuple(sorted(set(t_set) | {u}))] - values[t_set]
                    assert gain_s >= gain_t - 1e-9


# -- reverse-reachability searches -------------------------------------------

def test_rrs_full_simulation_on_deterministic_model():
    model = deterministic_path()
    truth = np.array([3.0, 2.0, 1.0])
    est = im.rrs_estimate(model, im.FULL_SIMULATION, 30_000, 2, master_seed=0)
    q = truth / 3.0
    sigma = 3.0 * np.sqrt(q * (1 - q) / 30_000)
    assert np.all(np.abs(est - truth) <= 4 * sigma + 1e-9)


def test_rrs_two_world_bias():
    model = im.families.gen_two_world_mixture()
    tau = im.families.TWO_WORLD_TAU
    n = model.num_nodes
    truth = np.array([im.exact_report(model, (v,), tau).influence
                      for v in range(n)])
    marg_truth = np.array(
        [im.exact_report(im.marginal_edge_model(model), (v,), tau).influence
         for v in range(n)])
    full = im.rrs_estimate(model, im.FULL_SIMULATION, 40_000, tau, master_seed=1)
    marg = im.rrs_estimate(model, im.MARGINAL, 40_000, tau, master_seed=1)
    assert int(np.argmax(truth)) == 0
    assert int(np.argmax(marg_truth)) == 5
    assert int(np.argmax(full)) == 0
    assert int(np.argmax(marg)) == 5


def test_rrs_marginal_equals_full_on_pure_ic():
    # with independent edges the marginal sampler is the model itself
    model = im.families.gen_random_ic(8, 14, seed=3)
    searches = 20_000
    full = im.rrs_estimate(model, im.FULL_SIMULATION, searches, 2, master_seed=5)
    marg = im.rrs_estimate(model, im.MARGINAL, searches, 2, master_seed=6)
    truth = np.array([im.exact_report(model, (v,), 2).influence
                      for v in range(8)])
    q = truth / 8.0
    sigma = 8.0 * np.sqrt(q * (1 - q) / searches)
    assert np.all(np.abs(full - marg) <= 4 * np.sqrt(2) * sigma + 1e-9)


def test_rrs_estimate_validation():
    model = deterministic_path()
    with pytest.raises(ValueError, match="mode"):
        im.rrs_estimate(model, "bogus", 10, 1, 0)
    with pytest.raises(ValueError, match="at least one"):
        im.rrs_estimate(model, im.FULL_SIMULATION, 0, 1, 0)
    with pytest.raises(ValueError, match="step limit"):
        im.rrs_estimate(model, im.FULL_SIMULATION, 10, -1, 0)


def test_rrs_estimate_rejects_searches_past_the_counter():
    with pytest.raises(ValueError, match="simulation index"):
        im.rrs_estimate(deterministic_path(), im.FULL_SIMULATION, rng.MAX_SIMULATIONS + 1, 1, 0)


def marginal_flips(model, master_seed, num_searches):
    """Live rows of the marginal mode's searches: one flip per edge with
    0 < p < 1 at its marginal probability, unit j for the j-th such edge in
    edge-id order, on the marginal-flip stream; edges at p = 0 or 1 flip
    nothing.  Up to 65 searches are flipped by the Python-int reference;
    more are read in one call of the marginal model's word sampler, which
    the reference checks at 65."""
    g = model.graph
    p = model.marginal_edge_probs
    if num_searches > 65:
        draw = im.models._word_sampler(im.marginal_edge_model(model),
                                       np.arange(g.num_edges), rng.STREAM_RRS_EDGES)[0]
        return im.unpack_rows(draw(master_seed, 0, num_searches)[0], num_searches)
    live = np.zeros((num_searches, g.num_edges), dtype=bool)
    live[:, p >= 1.0] = True
    for unit, e in enumerate(np.flatnonzero((p > 0.0) & (p < 1.0)).tolist()):
        live[:, e] = [stream_reference.less(master_seed, rng.STREAM_RRS_EDGES, unit, t,
                                            float(p[e])) for t in range(num_searches)]
    return live


def scalar_rrs_estimate(model, mode, num_searches, tau, master_seed):
    """Reference: one scalar reverse search per target, credits added in order."""
    g = model.graph
    n, w = g.num_nodes, g.node_weights
    acc = np.zeros(n, dtype=np.float64)
    # Targets and simulations are read by position, so one block holds them all.
    u = np.array([stream_reference.sim_uniform(master_seed, rng.STREAM_RRS_TARGET, t)
                  for t in range(num_searches)])
    targets = np.minimum((u * n).astype(np.int64), n - 1)
    if mode == im.FULL_SIMULATION:
        live, _ = im.sample_pool(model, master_seed, num_searches)
    else:
        live = marginal_flips(model, master_seed, num_searches)
    for t in range(num_searches):
        reached = im.reverse_reach_set(g, live[t], int(targets[t]), tau)
        acc[reached] += w[targets[t]]
    return n * acc / float(num_searches)


def reweighted(model, weights):
    g = model.graph
    graph = im.Graph(g.num_nodes, g.tails, g.heads, g.probs, g.groups, weights)
    return dataclasses.replace(model, graph=graph,
                               components=tuple(reweighted(c, weights)
                                                for c in model.components))


RRS_MODELS = {
    "ic": im.families.gen_random_ic(9, 20, seed=7),
    # Edges at p = 0 and 1 stay constant in marginal mode too.
    "ic-constant": im.ic_model(im.Graph.from_edges(
        6, [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 0.0), (3, 4, 0.7), (4, 5, 1.0),
            (5, 0, 0.3), (1, 4, 0.0), (2, 5, 0.6)])),
    "lt": im.lt_model(im.Graph.from_edges(
        6, [(0, 1, 0.6), (2, 1, 0.3), (1, 3, 0.9), (3, 4, 0.5), (0, 4, 0.4),
            (4, 5, 0.7), (5, 0, 0.8), (2, 5, 0.2)])),
    "bdep": im.bdep_model(im.Graph.from_edges(
        7, [(0, 1, 0.6, 0), (0, 2, 0.6, 0), (2, 3, 0.5, 1), (2, 4, 0.5, 1),
            (2, 5, 0.5, 1), (4, 0, 0.7), (5, 6, 0.4), (6, 2, 0.8), (3, 1, 0.3)]), 3),
    "mixture": im.families.gen_two_world_mixture(),
}


@pytest.mark.parametrize("mode", [im.FULL_SIMULATION, im.MARGINAL])
@pytest.mark.parametrize("kind", sorted(RRS_MODELS))
def test_rrs_estimate_matches_scalar_searches_bit_for_bit(kind, mode, monkeypatch):
    unit = RRS_MODELS[kind]
    n = unit.num_nodes
    weights = np.random.default_rng(n).uniform(0.5, 3.0, n)
    for model in (unit, reweighted(unit, weights)):
        for tau in range(6):
            for searches in (1, 63, 65):
                expect = scalar_rrs_estimate(model, mode, searches, tau, tau + 3)
                got = im.rrs_estimate(model, mode, searches, tau, tau + 3)
                assert got.tobytes() == expect.tobytes()
        # A second chunk, whose credits add onto the first chunk's sums.  The
        # default budget makes a chunk of 87,381 or more searches here, too
        # many for the scalar reference, so the budget is cut to 8,192.
        monkeypatch.setattr(estimators, "_RRS_CELLS", 8192 * n)
        chunk = estimators._RRS_CELLS // n
        for searches in (chunk + 1, chunk + 65):
            expect = scalar_rrs_estimate(model, mode, searches, 3, 11)
            got = im.rrs_estimate(model, mode, searches, 3, 11)
            assert got.tobytes() == expect.tobytes()
        monkeypatch.undo()


# At the default budget the 2,000-node instance's 589 searches fill two chunks
# (524 + 65); the mixture's 200 fit in one.
RRS_CHUNKED = {
    "ic-2000": (im.families.gen_random_ic(2000, 4000, seed=0), 589),
    "mixture": (im.families.gen_two_world_mixture(), 200),
}


@pytest.mark.parametrize("per_chunk", [1, 7, 64])
@pytest.mark.parametrize("kind", sorted(RRS_CHUNKED))
def test_rrs_estimate_bytes_do_not_depend_on_chunk_size(kind, per_chunk, monkeypatch):
    model, searches = RRS_CHUNKED[kind]
    n = model.num_nodes
    for mode in (im.FULL_SIMULATION, im.MARGINAL):
        expect = im.rrs_estimate(model, mode, searches, 2, 9)
        monkeypatch.setattr(estimators, "_RRS_CELLS", per_chunk * n)
        got = im.rrs_estimate(model, mode, searches, 2, 9)
        monkeypatch.undo()
        assert got.tobytes() == expect.tobytes()


def test_rrs_estimate_asks_for_no_bit_outside_the_searches_balls(monkeypatch):
    # Every bit a reverse search asks the stream for belongs to a unit that
    # some edge reads whose head lies within tau - 1 steps of the search's
    # target, over the p > 0 edges.  At tau 0, and on the two-world model's
    # full simulations, whose edges are all at p = 1, nothing is asked.
    asked = []
    less_words = rng.less_words

    def logged_less_words(master_seed, stream_id, units, x, word, undecided):
        asked.append((np.array(units), word, np.array(undecided)))
        return less_words(master_seed, stream_id, units, x, word, undecided)

    monkeypatch.setattr(rng, "less_words", logged_less_words)
    searches = 150
    cases = [(RRS_MODELS[kind], mode) for kind in ("ic", "ic-constant", "lt", "bdep")
             for mode in (im.FULL_SIMULATION, im.MARGINAL)]
    cases.append((RRS_MODELS["mixture"], im.MARGINAL))
    for model, mode in cases:
        g = model.graph
        sampled = model if mode == im.FULL_SIMULATION else im.marginal_edge_model(model)
        choice_unit, choice_end, hi_id, lo_id = sampled._draw_plan
        heads = {}
        for e, ids in enumerate(zip(hi_id.tolist(), lo_id.tolist())):
            for i in ids:
                if 0.0 < choice_end[i] < 1.0:
                    heads.setdefault(int(choice_unit[i]), set()).add(int(g.heads[e]))
        u = rng.sim_uniforms(5, rng.STREAM_RRS_TARGET, 0, searches)
        targets = np.minimum((u * g.num_nodes).astype(np.int64), g.num_nodes - 1)
        for tau in range(4):
            asked.clear()
            im.rrs_estimate(model, mode, searches, tau, 5)
            assert bool(asked) == (tau > 0)
            balls = [set(reach_ids(g.reversed, g.probs > 0.0, [t], tau - 1).tolist())
                     for t in targets.tolist()] if tau else []
            for units, word, undecided in asked:
                for (i, j), bits in np.ndenumerate(undecided):
                    for b in (b for b in range(64) if (int(bits) >> b) & 1):
                        sim = 64 * (word + j) + b
                        assert sim < searches and heads[int(units[i])] & balls[sim]
    for tau in range(6):
        asked.clear()
        im.rrs_estimate(RRS_MODELS["mixture"], im.FULL_SIMULATION, searches, tau, 5)
        assert not asked


def test_rrs_estimate_credit_memory_is_bounded():
    # One chunk of all 4,096 searches would hold a 65.5 MB float64 credit
    # matrix; unit weights count the reached searches instead.
    unit = RRS_CHUNKED["ic-2000"][0]
    for model in (unit, reweighted(unit, np.random.default_rng(3).uniform(0.5, 3.0, 2000))):
        tracemalloc.start()
        try:
            im.rrs_estimate(model, im.FULL_SIMULATION, 4096, 1, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20


def test_marginal_edge_model_of_mixture():
    model = im.families.gen_two_world_mixture()
    marg = im.marginal_edge_model(model)
    assert marg.kind == im.IC
    assert np.allclose(marg.graph.probs, 0.5)
