import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import infmax as im
from infmax import models, rng, sketches
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


def test_merged_seed_sketch_equals_pairwise_fold():
    # One sort of the union keeps the bytes of folding merge_sketches seed by
    # seed: the bottom-k of a union does not depend on grouping.
    def key(sk):
        return (sk.k, sk.ranks.tobytes(), sk.pair_nodes.tobytes(), sk.pair_sims.tobytes())

    for seed in range(60):
        model = im.families.gen_random_ic(40, 120, seed=seed)
        pool, _ = im.sample_pool(model, seed, 30)
        picks = np.random.default_rng(seed)
        for k in (3, 8, 40, 2000):
            sketches = im.build_sketches(model, pool, 2, k, rank_seed=seed)
            for size in range(1, 6):
                seeds = sorted(picks.choice(40, size, replace=False).tolist())
                fold = sketches.sketches[seeds[0]]
                for v in seeds[1:]:
                    fold = im.merge_sketches(fold, sketches.sketches[v])
                assert key(im.merged_seed_sketch(sketches, seeds)) == key(fold)


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


def test_lossless_pool_sketches_match_oracle_pools():
    for weights in [(1.0, 1.0), (0.5, 3.0)]:
        model = im.families.gen_random_ic(8, 14, weight_range=weights, seed=2)
        config = im.OracleConfig(3, 5, 2, master_seed=6)
        explicit = im.build_oracle(model, config)
        # The oracle's grid, sketched a pool at a time; k = 300 is above a
        # pool's 5 x 8 pairs, so every pool is lossless.
        live, _ = im.sample_pool(model, 6, config.total_simulations)
        sets = [im.build_sketches(model, live[5 * p:5 * p + 5], 2, 300, rank_seed=11 + p)
                for p in range(3)]
        # lossless pools reproduce the explicit oracle exactly
        for seeds in [(0,), (2, 5), (1, 3, 6)]:
            estimates = np.array([im.sketch_query(ss, seeds, 5) for ss in sets])
            assert len(estimates) == 3
            assert estimates.tobytes() == explicit.pool_averages(seeds).tobytes()
            assert float(im.pool_median(estimates)) == explicit.query(seeds)


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
    for pos in order:
        if remaining == 0:
            break
        r = float(flat[pos])
        if not np.isfinite(r):
            break
        i = int(sims_ix[pos])
        u = int(nodes_ix[pos])
        for v in im.reverse_reach_set(g, live_rows[i], u, tau):
            if len(buf_ranks[v]) < k:
                buf_ranks[v].append(r)
                buf_nodes[v].append(u)
                buf_sims[v].append(i)
                remaining -= 1
    return [(np.asarray(buf_ranks[v], dtype=np.float64),
             np.asarray(buf_nodes[v], dtype=np.int64),
             np.asarray(buf_sims[v], dtype=np.int64)) for v in range(n)]


@pytest.mark.parametrize("block_cells", [1 << 14, models._BLOCK_CELLS, 64, 1 << 30])
def test_build_sketches_matches_rank_order_searches_bit_for_bit(block_cells, monkeypatch):
    # 2^14 cells is the earlier default block size, kept beside the current
    # one; 64 cells split the sources into blocks of one or two; 2^30 puts
    # every source of every case in one block.
    monkeypatch.setattr(models, "_BLOCK_CELLS", block_cells)
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


def test_sketch_set_is_a_flat_sequence_view():
    # Node v's entries sit at [start[v], start[v + 1]) of the flat arrays,
    # and the view reads them as one NodeSketch per node.
    model = im.families.gen_random_ic(30, 90, weight_range=(0.5, 3.0), seed=6)
    n = model.num_nodes
    live, _ = im.sample_pool(model, 3, 70)
    built = im.build_sketches(model, live, 1, 100, rank_seed=2)
    view = built.sketches
    assert len(view) == n and built.start.shape == (n + 1,) and built.start[0] == 0
    assert built.start[-1] == built.ranks.size == built.pair_nodes.size == built.pair_sims.size
    items = list(view)
    assert [sk.node for sk in items] == list(range(n))
    # Some sketches are full and some not.
    assert min(sk.size for sk in items) < 100 == max(sk.size for sk in items)
    for v, sk in enumerate(items):
        a, z = built.start[v], built.start[v + 1]
        assert sk.k == 100 and sk.size == z - a
        assert sk.ranks.tobytes() == built.ranks[a:z].tobytes()
        assert np.array_equal(sk.pair_nodes, built.pair_nodes[a:z])
        assert np.array_equal(sk.pair_sims, built.pair_sims[a:z])
        assert view[v] == sk and view[v - n] == sk and view[np.int64(v)] == sk
        assert type(view[v - n].node) is int and view[v - n].node == v
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            view[bad]
    assert view == tuple(items) == view and view == built.sketches
    assert view != tuple(items[:-1]) and view != tuple(items[::-1])
    # Items compare by value: another rank or another node id is another sketch.
    first = items[0]
    assert first != NodeSketch(100, first.ranks + 1, first.pair_nodes, first.pair_sims, node=0)
    assert first != NodeSketch(100, first.ranks, first.pair_nodes, first.pair_sims, node=1)
    assert im.merged_seed_sketch(built, (n - 1,)) == items[-1]


def fixed_outdegree_model(n, outdegree, seed):
    """IC model where every node has ``outdegree`` out-edges to distinct
    random heads, each live with probability in [0.5, 0.9]."""
    draw = np.random.default_rng(seed)
    edges = []
    for u in range(n):
        heads = draw.choice([v for v in range(n) if v != u], outdegree, replace=False)
        edges += [(u, int(v), float(draw.uniform(0.5, 0.9))) for v in heads]
    return im.ic_model(im.Graph.from_edges(n, edges))


def assert_matches_rank_order(model, live, tau, k, rank_seed):
    built = im.build_sketches(model, live, tau, k, rank_seed=rank_seed)
    expect = rank_order_sketches(model, live, tau, k, rank_seed)
    for sk, (ranks, nodes, sims) in zip(built.sketches, expect, strict=True):
        assert sk.ranks.tobytes() == ranks.tobytes()
        assert np.array_equal(sk.pair_nodes, nodes)
        assert np.array_equal(sk.pair_sims, sims)


@pytest.mark.parametrize("scan_cells", [sketches._SCAN_CELLS, 50])
def test_block_scan_branches_match_rank_order_searches(scan_cells, monkeypatch):
    # 50 cells split every gather by rows and most by rank prefix too.
    monkeypatch.setattr(sketches, "_SCAN_CELLS", scan_cells)
    prefixes = []
    gathers = sketches._gathers

    def record(rows, lo, hi):
        prefixes.append(lo)
        return gathers(rows, lo, hi)

    monkeypatch.setattr(sketches, "_gathers", record)
    # Criterion 7's star: the hub fills, and the leaves reach only themselves.
    star = star_model(199)
    for ell, k in ((1, 102), (2, 10)):
        live, _ = im.sample_pool(star, 0, ell)
        for j in range(3):
            assert_matches_rank_order(star, live, 1, k, rng.derive_seed(3, 7, j))
    # 70 simulations cross a word boundary.  With k = 8 the first prefix is
    # short, so on some pools the rows that are not yet full read further
    # prefixes: about one master seed in five gives such a pool.  Pools are
    # checked in seed order up to the first one that does.
    model = fixed_outdegree_model(30, 4, seed=1)
    prefixes.clear()
    for master_seed in range(40):
        live, _ = im.sample_pool(model, master_seed, 70)
        for tau in (2, model.num_nodes - 1):
            for rank_seed in range(10):
                assert_matches_rank_order(model, live, tau, 8, rank_seed)
        if max(prefixes) > 0:
            break
    assert max(prefixes) > 0


def test_tied_ranks_break_by_node_then_simulation(monkeypatch):
    # Ranks rounded up to quarters tie often; both the build and the
    # reference order ties by (node, sim).
    exact = sketches.pair_ranks

    def tied(rank_seed, ell, node_weights):
        return np.ceil(exact(rank_seed, ell, node_weights) * 4) / 4

    monkeypatch.setattr(sketches, "pair_ranks", tied)
    monkeypatch.setitem(globals(), "pair_ranks", tied)
    model = fixed_outdegree_model(30, 4, seed=3)
    live, _ = im.sample_pool(model, 1, 70)
    for tau in (1, 2):
        for k in (3, 8, 70 * 30 + 1):
            assert_matches_rank_order(model, live, tau, k, rank_seed=k)


def test_sketch_size_past_every_pair_keeps_every_pair():
    model = fixed_outdegree_model(30, 4, seed=4)
    live, _ = im.sample_pool(model, 0, 70)
    huge = im.build_sketches(model, live, 2, 10**30, rank_seed=5)
    every = im.build_sketches(model, live, 2, 70 * 30 + 1, rank_seed=5)
    assert huge.k == 10**30
    for a, b in zip(huge.sketches, every.sketches, strict=True):
        assert a.ranks.tobytes() == b.ranks.tobytes()
        assert np.array_equal(a.pair_nodes, b.pair_nodes)
        assert np.array_equal(a.pair_sims, b.pair_sims)


def test_graphs_without_finite_ranks_build_empty_sketches():
    # Weight zero gives every pair an infinite rank, so no sketch holds one.
    g = fixed_outdegree_model(30, 4, seed=5).graph
    zero = im.ic_model(im.Graph(g.num_nodes, g.tails, g.heads, g.probs, g.groups,
                                np.zeros(g.num_nodes)))
    live, _ = im.sample_pool(zero, 2, 70)
    for tau in (1, 2):
        for k in (8, 10**30):
            assert_matches_rank_order(zero, live, tau, k, rank_seed=1)
            built = im.build_sketches(zero, live, tau, k, rank_seed=1)
            assert all(sk.size == 0 for sk in built.sketches)
            assert im.sketch_query(built, (0, 7), 70) == 0.0
    empty = im.ic_model(im.Graph.from_edges(0, []))
    live, _ = im.sample_pool(empty, 0, 3)
    assert im.build_sketches(empty, live, 2, 8, rank_seed=1).sketches == ()
