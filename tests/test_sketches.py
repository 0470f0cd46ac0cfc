import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import infmax as im
import infmax.sketches as sketch_module
from infmax import rng
from infmax.models import ReachScratch
from infmax.sketches import NodeSketch, pair_ranks


def star_model(leaves):
    edges = [(0, v, 1.0) for v in range(1, leaves + 1)]
    return im.ic_model(im.Graph.from_edges(leaves + 1, edges))


def test_minimum_sketch_size_guard():
    model = star_model(3)
    pool, _ = im.sample_pool(model, 0, 1)
    with pytest.raises(ValueError, match="at least 3"):
        im.build_sketches(model, pool, 1, 2, rank_seed=0)
    # one live row or a row of the wrong width is not a pool
    for bad in (pool[0], pool[:, :-1]):
        with pytest.raises(ValueError, match="live matrix"):
            im.build_sketches(model, bad, 1, 5, rank_seed=0)


def test_untruncated_sketch_holds_every_pair():
    path = im.ic_model(im.Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)]))
    pool, _ = im.sample_pool(path, 0, 1)
    sketches = im.build_sketches(path, pool, 2, 5, rank_seed=1)
    assert sketches.sketches[0].size == 3
    assert sketches.sketches[1].size == 2
    assert sketches.sketches[2].size == 1
    pool2, _ = im.sample_pool(path, 0, 2)
    sketches2 = im.build_sketches(path, pool2, 2, 10, rank_seed=1)
    assert sketches2.sketches[0].size == 6


def test_lossless_query_equals_averaging_oracle_bit_for_bit():
    # non-unit weights make the order of float summation observable
    for weights in [(1.0, 1.0), (0.5, 3.0)]:
        model = im.families.gen_random_ic(9, 16, weight_range=weights, seed=12)
        config = im.OracleConfig(1, 6, 2, master_seed=4)
        oracle = im.build_oracle(model, config)
        pool, _ = im.sample_pool(model, 4, 6)
        sketches = im.build_sketches(model, pool, 2, k=200, rank_seed=9)
        for seeds in [(0,), (3,), (0, 5), (1, 2, 7)]:
            assert im.sketch_query(sketches, seeds, 6) == oracle.query(seeds)


def test_lossless_subadditivity():
    model = im.families.gen_random_ic(9, 16, seed=12)
    pool, _ = im.sample_pool(model, 4, 4)
    sketches = im.build_sketches(model, pool, 2, k=200, rank_seed=9)
    ab = im.sketch_query(sketches, (0, 1), 4)
    a = im.sketch_query(sketches, (0,), 4)
    b = im.sketch_query(sketches, (1,), 4)
    assert ab <= a + b + 1e-12


def test_query_requires_matching_pool_size():
    model = star_model(4)
    pool, _ = im.sample_pool(model, 0, 1)
    sketches = im.build_sketches(model, pool, 1, 5, rank_seed=0)
    with pytest.raises(ValueError, match="pool size"):
        im.sketch_query(sketches, (0,), 2)


def _random_sketch(data, k, universe):
    pairs = data.draw(st.sets(st.tuples(st.integers(0, universe - 1),
                                        st.integers(0, 2)), max_size=12))
    entries = []
    for node, sim in pairs:
        r = float(rng.uniforms(1234, rng.STREAM_RANKS, node * 7 + sim, 1)[0])
        entries.append((r, node, sim))
    entries.sort()
    entries = entries[:k]
    return NodeSketch(k,
                      np.array([e[0] for e in entries]),
                      np.array([e[1] for e in entries], dtype=np.int64),
                      np.array([e[2] for e in entries], dtype=np.int64))


@given(data=st.data())
def test_merge_is_commutative_associative_idempotent(data):
    k = 5
    a = _random_sketch(data, k, 10)
    b = _random_sketch(data, k, 10)
    c = _random_sketch(data, k, 10)

    def key(sk):
        return (sk.ranks.tolist(), sk.pair_nodes.tolist(), sk.pair_sims.tolist())

    assert key(im.merge_sketches(a, b)) == key(im.merge_sketches(b, a))
    left = im.merge_sketches(im.merge_sketches(a, b), c)
    right = im.merge_sketches(a, im.merge_sketches(b, c))
    assert key(left) == key(right)
    assert key(im.merge_sketches(a, a)) == key(a)


def test_rank_assignment_is_keyed_and_weighted():
    weights = np.array([1.0, 2.0, 0.0])
    r1 = pair_ranks(5, 4, weights)
    r2 = pair_ranks(5, 4, weights)
    assert np.array_equal(r1, r2)
    assert np.isinf(r1[:, 2]).all()
    big = pair_ranks(5, 50_000, np.array([1.0, 4.0]))
    # Exp(w) has mean 1/w
    assert big[:, 0].mean() == pytest.approx(1.0, rel=0.05)
    assert big[:, 1].mean() == pytest.approx(0.25, rel=0.05)


def test_estimator_is_unbiased_on_large_universe():
    # 400 pairs, k = 10: deep in the regime where (k-1)/rank_k is unbiased
    model = star_model(199)
    pool, _ = im.sample_pool(model, 0, 2)
    truth = 400.0 / 2
    redraws = 2000
    total = 0.0
    for j in range(redraws):
        sk = im.build_sketches(model, pool, 1, 10, rank_seed=rng.derive_seed(3, 7, j))
        total += im.sketch_query(sk, (0,), 2)
    mean = total / redraws
    sigma = (truth / math.sqrt(10 - 2)) / math.sqrt(redraws)
    assert abs(mean - truth) <= 4 * sigma


def test_sketch_oracle_medians_pool_estimates():
    for weights in [(1.0, 1.0), (0.5, 3.0)]:
        model = im.families.gen_random_ic(8, 14, weight_range=weights, seed=2)
        config = im.OracleConfig(3, 5, 2, master_seed=6)
        oracle = im.build_sketch_oracle(model, config, k=300, rank_seed=11)
        explicit = im.build_oracle(model, config)
        # lossless pools reproduce the explicit oracle exactly
        for seeds in [(0,), (2, 5), (1, 3, 6)]:
            assert oracle.query(seeds) == explicit.query(seeds)
        assert len(oracle.pool_estimates((0,))) == 3


def rank_order_sketches(model, live_rows, tau, k, rank_seed):
    """Reference: offer pairs in increasing (rank, node, sim) order, each by a
    reverse search inside its own simulation, until every sketch is full."""
    g = model.graph
    n = g.num_nodes
    ell = len(live_rows)
    ranks = pair_ranks(rank_seed, ell, g.node_weights)
    sims_ix, nodes_ix = np.divmod(np.arange(ell * n), n)
    flat = ranks.reshape(-1)
    order = np.lexsort((sims_ix, nodes_ix, flat))
    buf_ranks = [[] for _ in range(n)]
    buf_nodes = [[] for _ in range(n)]
    buf_sims = [[] for _ in range(n)]
    remaining = n * k
    scratch = ReachScratch(n)
    for pos in order:
        if remaining == 0:
            break
        r = float(flat[pos])
        if not np.isfinite(r):
            break
        i = int(sims_ix[pos])
        u = int(nodes_ix[pos])
        for v in im.reverse_reach_set(g, live_rows[i], u, tau, scratch):
            if len(buf_ranks[v]) < k:
                buf_ranks[v].append(r)
                buf_nodes[v].append(u)
                buf_sims[v].append(i)
                remaining -= 1
    return [(np.asarray(buf_ranks[v], dtype=np.float64),
             np.asarray(buf_nodes[v], dtype=np.int64),
             np.asarray(buf_sims[v], dtype=np.int64)) for v in range(n)]


@pytest.mark.parametrize("block_cells", [sketch_module._BLOCK_CELLS, 64])
def test_build_sketches_matches_rank_order_searches_bit_for_bit(block_cells, monkeypatch):
    # 64 cells split the sources into blocks of one or two
    monkeypatch.setattr(sketch_module, "_BLOCK_CELLS", block_cells)
    unit = im.families.gen_random_ic(9, 22, seed=5)
    g = unit.graph
    # zero weights give infinite ranks, which no sketch may hold
    weights = np.random.default_rng(1).uniform(0.13, 3.0, g.num_nodes)
    weights[::3] = 0.0
    weighted = im.ic_model(im.Graph(g.num_nodes, g.tails, g.heads, g.probs, g.groups,
                                    weights))
    n = g.num_nodes
    for model in (unit, weighted):
        for ell in (1, 63, 64, 65, 130):
            live, _ = im.sample_pool(model, ell, ell)
            for tau in (0, 2, n - 1):
                for k in (3, 32, ell * n + 1):
                    built = im.build_sketches(model, live, tau, k, rank_seed=ell + tau)
                    expect = rank_order_sketches(model, live, tau, k, ell + tau)
                    assert [sk.node for sk in built.sketches] == list(range(n))
                    for sk, (ranks, nodes, sims) in zip(built.sketches, expect):
                        assert sk.ranks.tobytes() == ranks.tobytes()
                        assert np.array_equal(sk.pair_nodes, nodes)
                        assert np.array_equal(sk.pair_sims, sims)
                        assert sk.pair_nodes.dtype == sk.pair_sims.dtype == np.int64
