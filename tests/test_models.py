import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

import infmax as im
from infmax import models, rng
from stream_reference import TILE, reference_uniforms


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
    block, comps = im.sample_pool(model, 21, 25, 3)
    for i in range(25):
        sim = im.sample_simulation(model, 21, 3 + i)
        assert np.array_equal(block[i], sim.live)
        assert sim.component == (None if comps is None else comps[i])


def test_pool_sampling_thread_invariant(monkeypatch):
    # One tile per block.
    monkeypatch.setattr(models, "_BLOCK_DRAWS", 1)
    model = im.families.gen_two_world_mixture()
    rows = 4 * TILE + 500
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


REFERENCE_STREAMS = {im.models.IC: rng.STREAM_EDGES, im.models.LT: rng.STREAM_NODES,
                     im.models.BDEP: rng.STREAM_UNITS}


def reference_binary_units(model):
    """``(edge ids, q)`` of each random unit of an IC or BDEP model, in draw
    order: groups by group id, then loose edges by edge id, skipping units
    at p = 0 or 1."""
    g = model.graph
    units = [np.flatnonzero(g.groups == gid) for gid in np.unique(g.groups[g.groups >= 0])]
    units += [np.array([e]) for e in np.flatnonzero(g.groups < 0)]
    return [(edges, g.probs[edges[0]]) for edges in units if 0.0 < g.probs[edges[0]] < 1.0]


def reference_width(model):
    """Uniforms per row: one per LT node with in-edges, one per random unit."""
    g = model.graph
    if model.kind == im.models.LT:
        return int(np.count_nonzero(np.bincount(g.heads, minlength=g.num_nodes)))
    return len(reference_binary_units(model))


def reference_live_rows(model, u):
    g = model.graph
    live = np.zeros((u.shape[0], g.num_edges), dtype=bool)
    if model.kind == im.models.LT:
        heads = [v for v in range(g.num_nodes) if g.in_edges(v).size]
        for j, v in enumerate(heads):
            edges = g.in_edges(v)
            picks = np.searchsorted(np.cumsum(g.probs[edges]), u[:, j], side="right")
            for slot in range(edges.size):
                live[picks == slot, edges[slot]] = True
        return live
    live[:, g.probs >= 1.0] = True
    for j, (edges, q) in enumerate(reference_binary_units(model)):
        for e in edges:
            live[:, e] = u[:, j] < q
    return live


def reference_live_block(model, master_seed, start, count):
    """Live rows of stream layout 3 written out the long way: per-unit loops
    over one uniform per random unit, each read at its own (tile, unit)
    position, and mixture components reading their own rows of one shared
    stream as wide as the widest component."""
    if model.kind != im.models.MIXTURE:
        u = reference_uniforms(master_seed, REFERENCE_STREAMS[model.kind], start, count,
                               reference_width(model))
        return reference_live_rows(model, u), None
    cum = np.cumsum(model.component_weights)
    cum[-1] = 1.0
    pick = reference_uniforms(master_seed, rng.STREAM_MIXTURE, start, count, 1)[:, 0]
    comps = np.searchsorted(cum, pick, side="right")
    shared = reference_uniforms(master_seed, rng.STREAM_UNITS, start, count,
                                max(reference_width(c) for c in model.components))
    live = np.zeros((count, model.graph.num_edges), dtype=bool)
    for c, comp in enumerate(model.components):
        rows = comps == c
        off = int(model.component_offsets[c])
        live[rows, off:off + comp.graph.num_edges] = reference_live_rows(
            comp, shared[rows, :reference_width(comp)])
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


def lt_constant():
    # Every node with in-edges still draws, though no choice is random.
    return im.lt_model(im.Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)]))


SAMPLER_MODELS = {
    "ic": lambda: im.families.gen_random_ic(12, 30, seed=5),
    "lt": lt_edge_cases,
    # One random edge, whose unit is not the only unit drawn.
    "lt-one-random": lambda: im.lt_model(im.Graph.from_edges(
        3, [(0, 1, 0.5), (1, 2, 1.0)])),
    "lt-constant": lt_constant,
    "bdep": bdep_edge_cases,
    "two-world": im.families.gen_two_world_mixture,
    "lt-bdep-mixture": lambda: im.mixture_model([(lt_edge_cases(), 0.4),
                                                 (bdep_edge_cases(), 0.6)]),
    "polysimu": lambda: im.families.gen_polysimu(102),
}


@pytest.mark.parametrize("count", [1, 63, 64, 65, TILE - 1, TILE, TILE + 1, 2 * TILE + 65])
@pytest.mark.parametrize("kind", sorted(SAMPLER_MODELS))
def test_pool_sampling_matches_reference_loops(kind, count, monkeypatch):
    # Blocks of four tiles for a selection of one or two units and of one
    # tile for a wide one, so a selection may block differently from the
    # full pool.
    monkeypatch.setattr(models, "_BLOCK_DRAWS", 8 * TILE)
    model = SAMPLER_MODELS[kind]()
    m = model.graph.num_edges
    masks = [None, np.arange(m) % 3 == 1, np.arange(m) == m - 1]
    for start in (0, 1, 5, 64, 1000, 1023):
        expect, expect_comps = reference_live_block(model, 13, start, count)
        for threads, mask in itertools.product((1, 2, 3), masks):
            cols = slice(None) if mask is None else mask
            live, comps = im.sample_pool(model, 13, count, start, threads, edges=mask)
            words, packed_comps = im.sample_pool(model, 13, count, start, threads,
                                                 packed=True, edges=mask)
            assert live.dtype == bool and np.array_equal(live, expect[:, cols])
            assert words.dtype == np.uint64
            assert np.array_equal(words, im.pack_rows(expect[:, cols]))
            for got in (comps, packed_comps):
                assert (got is None) == (expect_comps is None)
                if got is not None:
                    assert np.array_equal(got, expect_comps)


@pytest.mark.parametrize("cells", [1, 40, 3 * TILE])
def test_draw_steps_match_reference_loops(cells, monkeypatch):
    # Chunks of one unit (the first two) or of three units of a tile.
    monkeypatch.setattr(models, "_DRAW_CELLS", cells)
    for kind, make in sorted(SAMPLER_MODELS.items()):
        model = make()
        expect, expect_comps = reference_live_block(model, 13, 5, 1100)
        live, comps = im.sample_pool(model, 13, 1100, 5)
        assert np.array_equal(live, expect), kind
        assert (comps is None) == (expect_comps is None)
        if comps is not None:
            assert np.array_equal(comps, expect_comps)


class RecordingReader(rng.BlockReader):
    """A block reader that logs its stream and width, and every read."""
    log = []

    def __init__(self, master_seed, stream_id, width):
        super().__init__(master_seed, stream_id, width)
        self.log.append(("open", stream_id, width))

    def _read(self, position, out):
        self.log.append(("read", position, out.size))
        super()._read(position, out)


def test_draw_widths_count_random_units_only(monkeypatch):
    monkeypatch.setattr(rng, "BlockReader", RecordingReader)
    constant_ic = im.ic_model(im.Graph.from_edges(4, [(0, 1, 1.0), (1, 2, 0.0), (2, 3, 1.0)]))
    constant_bdep = im.bdep_model(im.Graph.from_edges(
        4, [(0, 1, 1.0, 0), (0, 2, 1.0, 0), (1, 3, 0.0, 1), (2, 3, 0.0)]), b=2)
    # Models with no random unit read no stream at all.
    cases = [(constant_ic, []), (constant_bdep, []), (lt_constant(), []),
             (im.families.gen_polysimu(102), [(rng.STREAM_EDGES, 1)]),
             # Both LT nodes with in-edges are units; one of them is random.
             (SAMPLER_MODELS["lt-one-random"](), [(rng.STREAM_NODES, 2)]),
             # LT component: 5 nodes with in-edges; BDEP component: 4 random
             # units.  The shared stream is 5 wide, not 9.
             (SAMPLER_MODELS["lt-bdep-mixture"](),
              [(rng.STREAM_MIXTURE, 1), (rng.STREAM_UNITS, 5)])]
    for model, expect in cases:
        RecordingReader.log.clear()
        im.sample_pool(model, 3, 100)
        assert [entry[1:] for entry in RecordingReader.log if entry[0] == "open"] == expect


def test_a_selection_draws_only_its_units(monkeypatch):
    monkeypatch.setattr(rng, "BlockReader", RecordingReader)
    model = SAMPLER_MODELS["ic"]()
    width = models._units(model)[0].size
    unit = model._draw_plan.unit
    mask = np.zeros(model.graph.num_edges, dtype=bool)
    mask[[3, 4, 5, 17]] = True
    assert np.array_equal(unit, np.arange(model.graph.num_edges))
    for start, count, calls in ((0, 2 * TILE, 4), (1000, 48, 8), (0, 700, 2), (0, 300, 4)):
        RecordingReader.log.clear()
        im.sample_pool(model, 3, count, start, edges=mask)
        reads = [entry[1:] for entry in RecordingReader.log if entry[0] == "read"]
        # Each edge is its own unit.  Units 3-5 are one run, read as one
        # span per tile part of at least half a tile and unit by unit in a
        # shorter part; unit 17 is another run.
        assert len(reads) == calls
        drawn = set()
        for position, size in reads:
            for p in range(position, position + size):
                tile, rest = divmod(p, TILE * width)
                if start <= tile * TILE + rest % TILE < start + count:
                    drawn.add(rest // TILE)
        assert drawn == {3, 4, 5, 17}


@given(kind=st.sampled_from(sorted(SAMPLER_MODELS)), start=st.integers(0, 200),
       count=st.sampled_from([1, 63, 64, 65, TILE + 1]),
       threads=st.sampled_from([1, 2]), data=st.data())
def test_edge_selection_equals_masked_columns_of_full_pool(kind, start, count, threads,
                                                           data):
    model = SAMPLER_MODELS[kind]()
    m = model.graph.num_edges
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)), dtype=bool)
    full, comps = im.sample_pool(model, 13, count, start, threads, packed=True)
    words, picked_comps = im.sample_pool(model, 13, count, start, threads, packed=True,
                                         edges=mask)
    assert words.shape == (full.shape[0], int(mask.sum()))
    assert np.array_equal(words, full[:, mask])
    assert (comps is None) == (picked_comps is None)
    if comps is not None:
        assert np.array_equal(comps, picked_comps)
    live, _ = im.sample_pool(model, 13, count, start, threads, edges=mask)
    assert np.array_equal(live, im.unpack_rows(full, count)[:, mask])


def test_edge_selection_must_be_a_mask_over_the_edges():
    model = random_model(3)
    for bad in (np.ones(13, dtype=bool), np.arange(14), np.ones((2, 14), dtype=bool)):
        with pytest.raises(ValueError, match="boolean mask"):
            im.sample_pool(model, 9, 5, edges=bad)


@pytest.mark.parametrize("kind", ["ic", "lt", "bdep", "lt-bdep-mixture"])
def test_live_shares_match_marginals(kind):
    model = SAMPLER_MODELS[kind]()
    rows = 20_000
    live, _ = im.sample_pool(model, 17, rows)
    p = model.marginal_edge_probs
    sigma = np.sqrt(p * (1.0 - p) / rows)
    assert np.all(np.abs(live.mean(axis=0) - p) <= 5 * sigma)


def row_major_pack(rows):
    """pack_rows as first written: packbits down the rows, then a transpose
    of the (words, 8, k) bytes."""
    rows = np.asarray(rows, dtype=bool)
    count, k = rows.shape
    words = -(-count // 64)
    packed = np.zeros((words * 8, k), dtype=np.uint8)
    packed[:(count + 7) // 8] = np.packbits(rows, axis=0, bitorder="little")
    by_word = np.ascontiguousarray(packed.reshape(words, 8, k).transpose(0, 2, 1))
    return by_word.view("<u8")[..., 0]


@pytest.mark.parametrize("count", [0, 1, 7, 63, 64, 65, 1025])
def test_pack_rows_equals_row_major_formula(count):
    # Narrow and wide, row-major, strided and column-major matrices.
    for width in (13, 130):
        bits = np.random.default_rng(count).random((2 * count, width)) < 0.5
        for rows in (np.ascontiguousarray(bits[:count]), bits[::2, 1::3],
                     np.asfortranarray(bits[:count])):
            got, expect = im.pack_rows(rows), row_major_pack(rows)
            assert got.dtype == expect.dtype and got.shape == expect.shape
            assert got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
@pytest.mark.parametrize("n", [1, 7, 8, 20, 130, 300])
def test_node_weighted_sums_add_in_node_order(n, dtype):
    gen = np.random.default_rng(n)
    w = gen.uniform(0.5, 3.0, n)
    w[gen.random(n) < 0.2] = 0.0
    high = 2 if dtype is np.uint8 else 400
    # Output axes after the node axis: one output or many, in a batch of
    # one or of several.
    for outputs in [(1,), (2,), (65,), (1, 1), (1, 5), (3, 1), (4, 7)]:
        x = gen.integers(0, high, (n,) + outputs).astype(dtype)
        expect = np.zeros(outputs)
        for v in range(n):
            expect = expect + w[v] * x[v]
        got = models.node_weighted_sums(w, x)
        assert got.shape == outputs
        assert got.tobytes() == expect.tobytes()
        # The same columns as a transposed, non-contiguous view.
        flipped = np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 0, -1)), -1, 0)
        assert models.node_weighted_sums(w, flipped).tobytes() == expect.tobytes()


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
    columns = models.unpack_columns(packed, rows)
    assert columns.dtype == np.uint8 and np.array_equal(columns, bits.T)


@given(kind=st.sampled_from(sorted(KERNEL_MODELS)), master=st.integers(0, 10**6),
       tau=st.integers(0, 5), reverse=st.booleans(), rows=st.integers(1, 200))
def test_start_mask_reach_matches_scalar(kind, master, tau, reverse, rows):
    # one start node per row, over the graph or its reversal
    model = KERNEL_MODELS[kind]
    g = model.graph
    n = model.num_nodes
    live, _ = im.sample_pool(model, master, rows)
    targets = np.random.default_rng(master).integers(0, n, rows)
    start = im.start_mask(n, targets)
    assert np.array_equal(im.unpack_rows(start, rows), np.eye(n, dtype=bool)[targets])
    if rows % 64:
        assert not np.any(start[-1] >> np.uint64(rows % 64))
    mask = im.reach_mask_batch(g.reversed if reverse else g, im.pack_rows(live), start, tau)
    unpacked = im.unpack_rows(mask, rows)
    for i in range(rows):
        if reverse:
            ids = im.reverse_reach_set(g, live[i], int(targets[i]), tau)
        else:
            ids = im.reach_set(g, im.Simulation(live[i], master, i), (int(targets[i]),), tau)
        assert np.array_equal(np.flatnonzero(unpacked[i]), ids)


@pytest.mark.parametrize("kind", sorted(KERNEL_MODELS))
def test_reverse_reach_set_is_reach_set_over_reversed_graph(kind):
    model = KERNEL_MODELS[kind]
    g = model.graph
    live, _ = im.sample_pool(model, 3, 40)
    for i in range(live.shape[0]):
        target = i % g.num_nodes
        for tau in (0, 1, 3):
            expect = im.reach_set(g.reversed, im.Simulation(live[i], 3, i), (target,), tau)
            assert np.array_equal(im.reverse_reach_set(g, live[i], target, tau), expect)


@pytest.mark.parametrize("per_block", [None, 1, 4])
def test_source_reaches_and_table_match_single_source_propagation(per_block, monkeypatch):
    # None keeps the default block rule; 1 and 4 size _BLOCK_CELLS to that
    # many sources per block, 4 leaving a short last block.
    for model in (random_model(5, n=9, m=22), im.ic_model(im.Graph.from_edges(5, []))):
        g, n = model.graph, model.num_nodes
        # 63 and 130 rows end in a partial word
        for rows in (1, 63, 64, 130):
            live, _ = im.sample_pool(model, rows, rows, packed=True)
            width = live.shape[0]
            if per_block is not None:
                monkeypatch.setattr(models, "_BLOCK_CELLS",
                                    per_block * width * max(g.num_edges, n))
            for tau in (0, 2, n - 1):
                expect = np.stack([im.reach_mask_batch(g, live, (u,), tau) for u in range(n)])
                blocks = list(models.source_reaches(g, live, tau))
                if per_block is not None:
                    assert [len(b) for b in blocks[:-1]] == [per_block] * (len(blocks) - 1)
                assert np.concatenate(blocks).tobytes() == expect.tobytes()
                table = models.reach_table(g, live, tau)
                assert table.tobytes() == expect.tobytes()
                # A table of chosen sources holds their rows, in the given order.
                chosen = np.array([4, 0, 4, 2])
                assert models.reach_table(g, live, tau, chosen).tobytes() == \
                    expect[chosen].tobytes()
                ids = np.array([[0, 3], [4, 1], [2, 2]])
                unions = [im.reach_mask_batch(g, live, row, tau) for row in ids]
                for got in (models.set_reaches(g, live, tau, ids, table),
                            models.set_reaches(g, live, tau, ids, None)):
                    assert got.tobytes() == np.stack(unions).tobytes()
            # the table is kept up to exactly _EXPLICIT_CACHE_BYTES
            monkeypatch.setattr(models, "_EXPLICIT_CACHE_BYTES", n * width * n * 8)
            assert models.reach_table(g, live, 1) is not None
            monkeypatch.setattr(models, "_EXPLICIT_CACHE_BYTES", n * width * n * 8 - 1)
            assert models.reach_table(g, live, 1) is None
            assert models.reach_table(g, live, 1, np.arange(n - 1)) is not None
            monkeypatch.undo()


def test_negative_step_limit_rejected():
    model = random_model(3)
    g = model.graph
    live, _ = im.sample_pool(model, 0, 5)
    packed = im.pack_rows(live)
    with pytest.raises(ValueError, match="step limit"):
        im.reach_mask_batch(g, packed, (0,), -1)
    with pytest.raises(ValueError, match="step limit"):
        im.reach_mask_batch(g.reversed, packed, im.start_mask(g.num_nodes, range(5)), -1)
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
