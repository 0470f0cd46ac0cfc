import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

import infmax as im
from infmax import rng
from infmax.models import _SAMPLE_BLOCK, _block_uniforms, _sample_live_block


def path_model(p=1.0):
    return im.ic_model(im.Graph.from_edges(3, [(0, 1, p), (1, 2, p)]))


def random_model(seed, n=8, m=14):
    return im.families.gen_random_ic(n, m, seed=seed)


# -- sampling posts ---------------------------------------------------------

def test_ic_degenerate_probabilities():
    all_live = im.ic_model(im.Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)]))
    all_dead = im.ic_model(im.Graph.from_edges(3, [(0, 1, 0.0), (1, 2, 0.0)]))
    for i in range(20):
        assert im.sample_simulation(all_live, 1, i).live.all()
        assert not im.sample_simulation(all_dead, 1, i).live.any()


def test_two_world_simulations_never_mix():
    model = im.families.gen_two_world_mixture()
    red_edges = 7
    for i in range(100):
        sim = im.sample_simulation(model, 11, i)
        ids = sim.live_edge_ids()
        if sim.component == 0:
            assert np.array_equal(ids, np.arange(red_edges))
        else:
            assert np.array_equal(ids, np.arange(red_edges, model.graph.num_edges))


def test_lt_at_most_one_incoming_live_edge():
    g = im.Graph.from_edges(4, [(0, 3, 0.3), (1, 3, 0.3), (2, 3, 0.3), (0, 1, 0.8)])
    model = im.lt_model(g)
    for i in range(300):
        sim = im.sample_simulation(model, 5, i)
        live_heads = g.heads[sim.live_edge_ids()]
        _, counts = np.unique(live_heads, return_counts=True)
        assert counts.max(initial=0) <= 1


def test_lt_weight_sum_validation():
    g = im.Graph.from_edges(3, [(0, 2, 0.7), (1, 2, 0.6)])
    with pytest.raises(ValueError, match="sum to at most 1"):
        im.lt_model(g)


def test_bdep_groups_all_or_none():
    model = im.families.gen_star(6, dependent=True)
    seen = set()
    for i in range(200):
        sim = im.sample_simulation(model, 5, i)
        seen.add(int(sim.live.sum()))
    assert seen == {0, 6}


def test_bdep_group_size_bound():
    g = im.Graph.from_edges(4, [(0, 1, 0.5, 0), (0, 2, 0.5, 0), (0, 3, 0.5, 0)])
    with pytest.raises(ValueError, match="bound"):
        im.bdep_model(g, b=2)


def test_mixture_weight_validation():
    a, b = random_model(1), random_model(2)
    with pytest.raises(ValueError, match="sum to 1"):
        im.mixture_model([(a, 0.5), (b, 0.4)])
    with pytest.raises(ValueError, match="positive"):
        im.mixture_model([(a, 1.5), (b, -0.5)])
    # NaN fails every comparison, so it must not pass as positive
    with pytest.raises(ValueError, match="positive"):
        im.mixture_model([(a, float("nan")), (b, 1.0)])


def test_nested_mixture_flattens():
    a, b, c = random_model(1), random_model(2), random_model(3)
    inner = im.mixture_model([(a, 0.5), (b, 0.5)])
    outer = im.mixture_model([(inner, 0.6), (c, 0.4)])
    assert len(outer.components) == 3
    assert np.allclose(outer.component_weights, [0.3, 0.3, 0.4])
    assert outer.min_component_weight == pytest.approx(0.3)


# -- determinism ------------------------------------------------------------

def test_simulation_reproducibility():
    model = random_model(4)
    a = im.sample_simulation(model, 42, 9)
    b = im.sample_simulation(model, 42, 9)
    assert np.array_equal(a.live, b.live)
    c = im.sample_simulation(model, 43, 9)
    assert not np.array_equal(a.live, c.live)


@pytest.mark.parametrize("maker", [
    lambda: random_model(7),
    lambda: im.families.gen_star(6, dependent=True),
    lambda: im.families.gen_two_world_mixture(),
    lambda: im.lt_model(im.Graph.from_edges(4, [(0, 3, 0.4), (1, 3, 0.5), (2, 1, 0.7)])),
])
def test_block_sampling_matches_scalar(maker):
    model = maker()
    block, comps = _sample_live_block(model, 21, 3, 25)
    for i in range(25):
        sim = im.sample_simulation(model, 21, 3 + i)
        assert np.array_equal(block[i], sim.live)
        assert sim.component == (None if comps is None else comps[i])


def test_pool_sampling_thread_invariant():
    model = im.families.gen_two_world_mixture()
    rows = 4 * _SAMPLE_BLOCK + 500
    l1, c1 = im.sample_pool(model, 9, rows, threads=1)
    # Five blocks dealt to four workers that switch as often as the
    # interpreter allows: a worker writing outside its own words shows.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        l4, c4 = im.sample_pool(model, 9, rows, threads=4)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(l1, l4)
    assert np.array_equal(c1, c4)


def test_pool_sampling_counts():
    model = random_model(3)
    for packed in (False, True):
        assert im.sample_pool(model, 9, 0, packed=packed)[0].shape == (0, 14)
    with pytest.raises(ValueError, match="nonnegative"):
        im.sample_pool(model, 9, -1)


def reference_live_block(model, master_seed, start, count):
    """Live rows drawn with per-node and per-group loops over the same
    uniforms: the sampler's stream layout, written out the long way."""
    g = model.graph
    live = np.zeros((count, g.num_edges), dtype=bool)
    comps = None
    if model.kind == im.models.IC:
        live[:] = _block_uniforms(master_seed, rng.STREAM_EDGES, start, count,
                                  g.num_edges) < g.probs
    elif model.kind == im.models.LT:
        u = _block_uniforms(master_seed, rng.STREAM_NODES, start, count, g.num_nodes)
        for v in range(g.num_nodes):
            edges = g.in_edges(v)
            picks = np.searchsorted(np.cumsum(g.probs[edges]), u[:, v], side="right")
            for slot in range(edges.size):
                live[picks == slot, edges[slot]] = True
    elif model.kind == im.models.BDEP:
        gids = np.unique(g.groups[g.groups >= 0])
        loose = np.flatnonzero(g.groups < 0)
        u = _block_uniforms(master_seed, rng.STREAM_UNITS, start, count,
                            gids.size + loose.size)
        for j, gid in enumerate(gids):
            members = np.flatnonzero(g.groups == gid)
            live[:, members] = (u[:, j] < g.probs[members[0]])[:, None]
        live[:, loose] = u[:, gids.size:] < g.probs[loose]
    else:
        cum = np.cumsum(model.component_weights)
        cum[-1] = 1.0
        u = _block_uniforms(master_seed, rng.STREAM_MIXTURE, start, count, 1)[:, 0]
        comps = np.searchsorted(cum, u, side="right")
        for c, comp in enumerate(model.components):
            sub, _ = reference_live_block(comp, master_seed, start, count)
            off = int(model.component_offsets[c])
            live[comps == c, off:off + sub.shape[1]] = sub[comps == c]
    return live, comps


def lt_edge_cases():
    # Zero-weight edges first, inside and last; node 1's weights sum to
    # exactly 1 and node 4's leave no mass for "no edge" up to rounding.
    return im.lt_model(im.Graph.from_edges(6, [
        (0, 1, 0.0), (2, 1, 0.25), (3, 1, 0.0), (4, 1, 0.75), (5, 1, 0.0),
        (0, 2, 0.5), (1, 2, 0.2), (0, 3, 1.0), (1, 4, 0.1), (2, 4, 0.2),
        (3, 4, 0.7), (0, 5, 0.0)]))


def bdep_edge_cases():
    # Group ids out of order and sparse, groups at p 0 and 1, loose edges
    # interleaved with grouped ones.
    return im.bdep_model(im.Graph.from_edges(6, [
        (0, 1, 0.4, 7), (3, 5, 0.6), (0, 2, 0.4, 7), (1, 3, 0.0, 2),
        (1, 4, 0.0, 2), (4, 5, 0.25), (2, 5, 1.0, 9), (5, 0, 1.0), (2, 3, 0.5, 4),
        (5, 1, 0.0)]), b=2)


SAMPLER_MODELS = {
    "ic": lambda: im.families.gen_random_ic(12, 30, seed=5),
    "lt": lt_edge_cases,
    "bdep": bdep_edge_cases,
    "two-world": im.families.gen_two_world_mixture,
    "lt-bdep-mixture": lambda: im.mixture_model([(lt_edge_cases(), 0.4),
                                                 (bdep_edge_cases(), 0.6)]),
    "polysimu": lambda: im.families.gen_polysimu(102),
}


@pytest.mark.parametrize("count", [1, 63, 64, 65, _SAMPLE_BLOCK + 1,
                                   2 * _SAMPLE_BLOCK + 65])
@pytest.mark.parametrize("kind", sorted(SAMPLER_MODELS))
def test_pool_sampling_matches_reference_loops(kind, count):
    model = SAMPLER_MODELS[kind]()
    for start in (0, 5, 64):
        expect, expect_comps = reference_live_block(model, 13, start, count)
        for threads in (1, 2, 3):
            live, comps = im.sample_pool(model, 13, count, start, threads)
            words, packed_comps = im.sample_pool(model, 13, count, start, threads,
                                                 packed=True)
            assert live.dtype == bool and np.array_equal(live, expect)
            assert words.dtype == np.uint64
            assert np.array_equal(words, im.pack_rows(expect))
            for got in (comps, packed_comps):
                assert (got is None) == (expect_comps is None)
                if got is not None:
                    assert np.array_equal(got, expect_comps)


# -- reachability -----------------------------------------------------------

def test_reach_examples_on_live_path():
    model = path_model()
    sim = im.sample_simulation(model, 0, 0)
    g = model.graph
    assert list(im.reach_set(g, sim, (0,), 2)) == [0, 1, 2]
    assert list(im.reach_set(g, sim, (0,), 1)) == [0, 1]
    assert list(im.reach_set(g, sim, (0,), 0)) == [0]
    assert im.reach_value(g, sim, (0,), 2) == 3.0


def test_reach_value_uses_node_weights():
    g = im.Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)],
                            node_weights=[0.5, 2.0, 0.0])
    model = im.ic_model(g)
    sim = im.sample_simulation(model, 0, 0)
    assert im.reach_value(g, sim, (0,), 2) == 2.5
    assert im.reach_value(g, sim, (0,), 0) == 0.5


def test_reach_rejects_empty_seeds():
    model = path_model()
    sim = im.sample_simulation(model, 0, 0)
    with pytest.raises(ValueError, match="empty seed set"):
        im.reach_set(model.graph, sim, (), 1)


@given(seed=st.integers(0, 10**6), sim_index=st.integers(0, 500),
       tau=st.integers(0, 6))
def test_reach_monotone_in_tau(seed, sim_index, tau):
    model = random_model(seed % 50)
    sim = im.sample_simulation(model, seed, sim_index)
    smaller = set(im.reach_set(model.graph, sim, (0,), tau))
    larger = set(im.reach_set(model.graph, sim, (0,), tau + 1))
    assert smaller <= larger


@given(seed=st.integers(0, 10**6),
       seeds=st.sets(st.integers(0, 7), min_size=1, max_size=3),
       extra=st.integers(0, 7))
def test_reach_monotone_in_seeds(seed, seeds, extra):
    model = random_model(seed % 50)
    sim = im.sample_simulation(model, seed, 0)
    small = set(im.reach_set(model.graph, sim, tuple(seeds), 2))
    big = set(im.reach_set(model.graph, sim, tuple(seeds | {extra}), 2))
    assert small <= big


KERNEL_MODELS = {
    "ic": random_model(11),
    "lt": im.lt_model(im.Graph.from_edges(
        6, [(0, 1, 0.6), (2, 1, 0.3), (1, 3, 0.9), (3, 4, 0.5), (0, 4, 0.4),
            (4, 5, 0.7), (5, 0, 0.8), (2, 5, 0.2)])),
    "bdep": im.families.gen_star(6, dependent=True),
    "mixture": im.families.gen_two_world_mixture(),
}


@given(kind=st.sampled_from(sorted(KERNEL_MODELS)), master=st.integers(0, 10**6),
       tau=st.integers(0, 5), picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=3),
       rows=st.integers(1, 200))
def test_batch_reach_matches_scalar(kind, master, tau, picks, rows):
    model = KERNEL_MODELS[kind]
    n = model.num_nodes
    seeds = tuple(sorted({p % n for p in picks}))
    live, _ = im.sample_pool(model, master, rows)
    packed = im.pack_rows(live)
    assert packed.shape == (-(-rows // 64), model.graph.num_edges)
    mask = im.reach_mask_batch(model.graph, packed, seeds, tau)
    assert mask.shape == (packed.shape[0], n)
    unpacked = im.unpack_rows(mask, rows)
    for i in range(rows):
        sim = im.Simulation(live[i], master, i)
        ids = im.reach_set(model.graph, sim, seeds, tau)
        assert np.array_equal(np.flatnonzero(unpacked[i]), ids)


@given(rows=st.integers(0, 200), cols=st.integers(0, 5), seed=st.integers(0, 10**6))
def test_pack_rows_bit_layout(rows, cols, seed):
    bits = np.random.default_rng(seed).random((rows, cols)) < 0.5
    packed = im.pack_rows(bits)
    assert packed.dtype == np.uint64
    for r in range(rows):
        word, bit = divmod(r, 64)
        got = (packed[word] >> np.uint64(bit)) & np.uint64(1)
        assert np.array_equal(got.astype(bool), bits[r])
    if rows % 64:
        assert not np.any(packed[-1] >> np.uint64(rows % 64))
    assert np.array_equal(im.unpack_rows(packed, rows), bits)


@given(kind=st.sampled_from(sorted(KERNEL_MODELS)), master=st.integers(0, 10**6),
       tau=st.integers(0, 5), reverse=st.booleans(), rows=st.integers(1, 200))
def test_start_mask_reach_matches_scalar(kind, master, tau, reverse, rows):
    # one start node per row, in both directions
    model = KERNEL_MODELS[kind]
    g = model.graph
    n = model.num_nodes
    live, _ = im.sample_pool(model, master, rows)
    targets = np.random.default_rng(master).integers(0, n, rows)
    start = im.start_mask(n, targets)
    assert np.array_equal(im.unpack_rows(start, rows), np.eye(n, dtype=bool)[targets])
    if rows % 64:
        assert not np.any(start[-1] >> np.uint64(rows % 64))
    mask = im.reach_mask_batch(g, im.pack_rows(live), start, tau, reverse=reverse)
    unpacked = im.unpack_rows(mask, rows)
    for i in range(rows):
        if reverse:
            ids = im.reverse_reach_set(g, live[i], int(targets[i]), tau)
        else:
            ids = im.reach_set(g, im.Simulation(live[i], master, i), (int(targets[i]),), tau)
        assert np.array_equal(np.flatnonzero(unpacked[i]), ids)


def test_negative_step_limit_rejected():
    model = random_model(3)
    g = model.graph
    live, _ = im.sample_pool(model, 0, 5)
    packed = im.pack_rows(live)
    with pytest.raises(ValueError, match="step limit"):
        im.reach_mask_batch(g, packed, (0,), -1)
    with pytest.raises(ValueError, match="step limit"):
        im.reach_mask_batch(g, packed, im.start_mask(g.num_nodes, range(5)), -1,
                            reverse=True)
    with pytest.raises(ValueError, match="step limit"):
        im.reach_values_batch(g, live, (0,), -1)
    with pytest.raises(ValueError, match="step limit"):
        im.build_sketches(model, live, -2, 5, rank_seed=0)


def test_per_simulation_coverage_is_submodular():
    # exhaustive marginal-gain check on one simulation of a small instance
    model = random_model(13, n=6, m=10)
    sim = im.sample_simulation(model, 7, 1)
    g = model.graph

    def f(nodes):
        if not nodes:
            return 0.0
        return im.reach_value(g, sim, tuple(nodes), 3)

    universe = range(6)
    from itertools import combinations
    for size in range(0, 4):
        for s_set in combinations(universe, size):
            for t_extra in combinations([v for v in universe if v not in s_set], 1):
                t_set = tuple(sorted(s_set + t_extra))
                for u in universe:
                    if u in t_set:
                        continue
                    gain_s = f(sorted(set(s_set) | {u})) - f(s_set)
                    gain_t = f(sorted(set(t_set) | {u})) - f(t_set)
                    assert gain_s >= gain_t - 1e-12


# -- reduction --------------------------------------------------------------

def test_reduce_triangle():
    tri = im.ic_model(im.Graph.from_edges(3, [(0, 1, 0.3), (0, 2, 0.4), (1, 2, 0.6)]))
    reduced = im.reduce_model(tri, (0,))
    assert reduced.num_nodes == 2
    assert reduced.graph.edge_tuples() == [(0, 1, 0.6)]
    assert reduced.graph.labels == (1, 2)


def test_reduce_by_nothing_is_identity():
    model = random_model(17)
    reduced = im.reduce_model(model, ())
    assert reduced.num_nodes == model.num_nodes
    assert reduced.graph.edge_tuples() == model.graph.edge_tuples()


def test_reduce_by_everything_gives_empty_model():
    model = path_model()
    reduced = im.reduce_model(model, (0, 1, 2))
    assert reduced.num_nodes == 0
    with pytest.raises(ValueError):
        im.exact_report(reduced, (0,), 1)


def test_reduce_rejects_non_ic():
    model = im.families.gen_star(4, dependent=True)
    with pytest.raises(ValueError, match="IC only"):
        im.reduce_model(model, (0,))


# -- model files -------------------------------------------------------------

def test_model_file_round_trip(tmp_path):
    for model in (random_model(23), im.families.gen_star(5, dependent=True),
                  im.families.gen_two_world_mixture()):
        path = tmp_path / f"{model.kind}.model"
        im.save_model(model, path)
        back = im.load_model(path)
        assert back.kind == model.kind
        assert back.num_nodes == model.num_nodes
        assert back.graph.edge_tuples() == model.graph.edge_tuples()
        sim_a = im.sample_simulation(model, 3, 4)
        sim_b = im.sample_simulation(back, 3, 4)
        assert np.array_equal(sim_a.live, sim_b.live)


def test_lt_weight_override(tmp_path):
    g = im.Graph.from_edges(3, [(0, 2, 0.5), (1, 2, 0.4)])
    im.save_model(im.lt_model(g), tmp_path / "lt.model")
    doc = (tmp_path / "lt.model").read_text()
    import json
    parsed = json.loads(doc)
    parsed["lt_weights"] = [[0, 2, 0.25]]
    (tmp_path / "lt.model").write_text(json.dumps(parsed))
    back = im.load_model(tmp_path / "lt.model")
    assert back.graph.probs[0] == 0.25
    parsed["lt_weights"] = [[2, 0, 0.25]]
    (tmp_path / "lt.model").write_text(json.dumps(parsed))
    with pytest.raises(ValueError, match="missing edge"):
        im.load_model(tmp_path / "lt.model")
