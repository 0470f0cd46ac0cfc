import functools
import gc
import itertools
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

import infmax as im
from infmax import exact, models, rng
import scalar_reference
from scalar_reference import reach_ids
import stream_reference


def path_model(p=1.0):
    return im.ic_model(im.Graph.from_edges(3, [(0, 1, p), (1, 2, p)]))


def random_model(seed, n=8, m=14):
    return im.families.gen_random_ic(n, m, seed=seed)


def one_live_row(model, master_seed, sim_index):
    """Simulation ``sim_index`` of the stream as a boolean live row."""
    return im.sample_pool(model, master_seed, 1, sim_index)[0][0]


def reached(graph, live, seeds, tau):
    """Ids reached from ``seeds`` in the first row of packed ``live``."""
    mask = im.reach_mask_batch(graph, live, seeds, tau)
    return set(np.flatnonzero(im.unpack_rows(mask, 1)[0]).tolist())


# -- sampling posts ---------------------------------------------------------

def test_ic_degenerate_probabilities():
    all_live = im.ic_model(im.Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)]))
    all_dead = im.ic_model(im.Graph.from_edges(3, [(0, 1, 0.0), (1, 2, 0.0)]))
    for i in range(20):
        assert one_live_row(all_live, 1, i).all()
        assert not one_live_row(all_dead, 1, i).any()


def test_two_world_simulations_never_mix():
    model = im.families.gen_two_world_mixture()
    red_edges = 7
    for i in range(100):
        live, comps = im.sample_pool(model, 11, 1, i)
        ids = np.flatnonzero(live[0])
        if comps[0] == 0:
            assert np.array_equal(ids, np.arange(red_edges))
        else:
            assert np.array_equal(ids, np.arange(red_edges, model.graph.num_edges))


def test_lt_at_most_one_incoming_live_edge():
    g = im.Graph.from_edges(4, [(0, 3, 0.3), (1, 3, 0.3), (2, 3, 0.3), (0, 1, 0.8)])
    model = im.lt_model(g)
    for i in range(300):
        live_heads = g.heads[np.flatnonzero(one_live_row(model, 5, i))]
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
        seen.add(int(one_live_row(model, 5, i).sum()))
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


def test_parts_are_weighted_slices_of_the_union_graph():
    ic, lt, bdep = random_model(1, n=6, m=8), lt_edge_cases(), bdep_edge_cases()
    for model in (ic, lt, bdep):
        assert model.parts == ((model, 1.0, 0),)
    inner = im.mixture_model([(lt, 0.25), (ic, 0.75)])
    nested = im.mixture_model([(inner, 0.4), (bdep, 0.6)])
    # Nesting flattens to the leaf models, with the weights multiplied.
    assert [(part, weight) for part, weight, _ in nested.parts] == [
        (lt, 0.4 * 0.25), (ic, 0.4 * 0.75), (bdep, 0.6)]
    for mixture in (inner, nested):
        assert mixture.parts is mixture.parts
        union = mixture.graph
        end = 0
        for part, weight, offset in mixture.parts:
            assert type(weight) is float and offset == end
            end = offset + part.graph.num_edges
            for name in ("tails", "heads", "probs"):
                assert np.array_equal(getattr(union, name)[offset:end],
                                      getattr(part.graph, name))
        assert end == union.num_edges


def test_a_sampled_model_goes_with_its_last_reference():
    # Nothing a model caches refers back to it, so it is freed at once and
    # not left to the cycle collector.
    for make in (lambda: random_model(1, n=6, m=8), lt_edge_cases,
                 lambda: im.mixture_model([(lt_edge_cases(), 0.4), (bdep_edge_cases(), 0.6)])):
        model = make()
        im.sample_pool(model, 3, 100)
        im.sample_pool(model, 3, 100, edges=im.ball_edges(model, 2, (0,)))
        im.exact_report(model, (0,), 2)
        ref = weakref.ref(model)
        gc.disable()
        try:
            del model
            assert ref() is None
        finally:
            gc.enable()


# -- determinism ------------------------------------------------------------

def test_simulation_reproducibility():
    model = random_model(4)
    a = one_live_row(model, 42, 9)
    b = one_live_row(model, 42, 9)
    assert np.array_equal(a, b)
    c = one_live_row(model, 43, 9)
    assert not np.array_equal(a, c)


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
        live, comp = im.sample_pool(model, 21, 1, 3 + i)
        assert np.array_equal(block[i], live[0])
        assert (comp is None) == (comps is None)
        assert comp is None or comp[0] == comps[i]


def test_pool_sampling_thread_invariant(monkeypatch):
    # One word per block: the mixture has 14 tests.
    monkeypatch.setattr(models, "_HASH_CELLS", 16)
    model = SAMPLER_MODELS["lt-bdep-mixture"]()
    rows = 4 * 1024 + 500
    assert model._edge_sampler[1] == 64
    l1, c1 = im.sample_pool(model, 9, rows, threads=1)
    # 72 blocks dealt to four workers that switch as often as the
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
    assert im.sample_pool(model, 9, 0)[0].shape == (0, 14)
    assert im.sample_pool(model, 9, 0, packed=True)[0].shape == (14, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        im.sample_pool(model, 9, -1)


REFERENCE_STREAMS = {im.models.IC: rng.STREAM_EDGES, im.models.LT: rng.STREAM_NODES,
                     im.models.BDEP: rng.STREAM_UNITS}


def reference_binary_units(model):
    """``(edge ids, q)`` of each random unit of an IC or BDEP model, in unit
    order: groups by group id, then loose edges by edge id, skipping units
    at p = 0 or 1."""
    g = model.graph
    units = [np.flatnonzero(g.groups == gid) for gid in np.unique(g.groups[g.groups >= 0])]
    units += [np.array([e]) for e in np.flatnonzero(g.groups < 0)]
    return [(edges, g.probs[edges[0]]) for edges in units if 0.0 < g.probs[edges[0]] < 1.0]


def reference_slices(model):
    """``(edge, unit, lo, hi)`` per edge that can be live: edge ``e`` is live
    iff ``lo <= u < hi`` for unit ``unit``'s uniform.  An LT node with
    in-edges is a unit; its in-edges take consecutive slices of their
    running weight sums, in ``in_edges`` order."""
    g = model.graph
    if model.kind != im.models.LT:
        slices = [(int(e), None, 0.0, 1.0) for e in np.flatnonzero(g.probs >= 1.0)]
        for j, (edges, q) in enumerate(reference_binary_units(model)):
            slices += [(int(e), j, 0.0, q) for e in edges]
        return slices
    slices = []
    heads = [v for v in range(g.num_nodes) if g.in_edges(v).size]
    for j, v in enumerate(heads):
        edges = g.in_edges(v)
        cum = np.cumsum(g.probs[edges])
        for slot, e in enumerate(edges.tolist()):
            lo = float(cum[slot - 1]) if slot else 0.0
            if lo < cum[slot]:
                slices.append((e, j, lo, float(cum[slot])))
    return slices


def reference_live_rows(model, stream_id, master_seed, sims):
    """Live rows of the simulations ``sims`` of a non-mixture model, one
    Python-int comparison per edge and simulation."""
    live = np.zeros((len(sims), model.graph.num_edges), dtype=bool)
    for e, unit, lo, hi in reference_slices(model):
        for r, sim in enumerate(sims):
            if unit is None:
                live[r, e] = True
            else:
                live[r, e] = (stream_reference.less(master_seed, stream_id, unit, sim, hi)
                              and not stream_reference.less(master_seed, stream_id, unit,
                                                            sim, lo))
    return live


@functools.cache
def reference_pool(kind, master_seed, stop):
    """Stream layout 4 written out the long way for simulations ``0 ..
    stop-1`` of ``SAMPLER_MODELS[kind]``: the live rows and mixture
    components.  A mixture picks each row's component from one float of
    STREAM_MIXTURE, and each component reads its own units from the shared
    STREAM_UNITS stream."""
    model = SAMPLER_MODELS[kind]()
    if model.kind != im.models.MIXTURE:
        return reference_live_rows(model, REFERENCE_STREAMS[model.kind], master_seed,
                                   range(stop)), None
    cum = np.cumsum(model.component_weights)
    cum[-1] = 1.0
    pick = [stream_reference.sim_uniform(master_seed, rng.STREAM_MIXTURE, s)
            for s in range(stop)]
    comps = np.searchsorted(cum, pick, side="right")
    live = np.zeros((stop, model.graph.num_edges), dtype=bool)
    for c, (comp, _, off) in enumerate(model.parts):
        sims = np.flatnonzero(comps == c).tolist()
        live[sims, off:off + comp.graph.num_edges] = reference_live_rows(
            comp, rng.STREAM_UNITS, master_seed, sims)
    return live, comps


def reference_live_block(kind, master_seed, start, count):
    live, comps = reference_pool(kind, master_seed, REFERENCE_STOP)
    assert start + count <= REFERENCE_STOP
    rows = slice(start, start + count)
    return live[rows], None if comps is None else comps[rows]


def lt_edge_cases():
    # Zero-weight edges first, inside and last; node 1's weights sum to
    # exactly 1 and node 4's leave no mass for "no edge" up to rounding.
    return im.lt_model(im.Graph.from_edges(6, [
        (0, 1, 0.0), (2, 1, 0.25), (3, 1, 0.0), (4, 1, 0.75), (5, 1, 0.0),
        (0, 2, 0.5), (1, 2, 0.2), (0, 3, 1.0), (1, 4, 0.1), (2, 4, 0.2),
        (3, 4, 0.7), (0, 5, 0.0)]))


def lt_extremes():
    # Slices that end at the smallest double, at 2**-1074 + 0.1 and at
    # 1 - 2**-53, and one that ends at 1 after a 53-digit start.
    return im.lt_model(im.Graph.from_edges(5, [
        (0, 1, 2.0**-1074), (2, 1, 0.1), (3, 1, 0.5), (0, 2, 1.0 - 2.0**-53),
        (1, 3, 1.0 - 2.0**-53), (2, 3, 2.0**-53)]))


def bdep_edge_cases():
    # Group ids out of order and sparse, groups at p 0 and 1, loose edges
    # interleaved with grouped ones.
    return im.bdep_model(im.Graph.from_edges(6, [
        (0, 1, 0.4, 7), (3, 5, 0.6), (0, 2, 0.4, 7), (1, 3, 0.0, 2),
        (1, 4, 0.0, 2), (4, 5, 0.25), (2, 5, 1.0, 9), (5, 0, 1.0), (2, 3, 0.5, 4),
        (5, 1, 0.0)]), b=2)


def bdep_extremes():
    # Groups at the smallest double and at 1 - 2**-53, loose edges at 0.1
    # and 0.5.
    return im.bdep_model(im.Graph.from_edges(5, [
        (0, 1, 2.0**-1074, 3), (0, 2, 2.0**-1074, 3), (1, 2, 0.1), (2, 3, 1.0 - 2.0**-53, 0),
        (2, 4, 1.0 - 2.0**-53, 0), (3, 4, 0.5)]), b=2)


def ic_extremes():
    # Every probability the digit compare treats apart: none, the smallest
    # double (1,074 digits), one digit, 53 ones, and always.
    return im.ic_model(im.Graph.from_edges(5, [
        (0, 1, 0.0), (1, 2, 2.0**-1074), (2, 3, 0.1), (3, 4, 0.5),
        (4, 0, 1.0 - 2.0**-53), (0, 2, 1.0), (1, 3, 0.1), (2, 4, 0.5)]))


def lt_constant():
    # Every node with in-edges is a unit, though no choice is random.
    return im.lt_model(im.Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)]))


SAMPLER_MODELS = {
    "ic": lambda: im.families.gen_random_ic(12, 30, seed=5),
    "ic-extremes": ic_extremes,
    "lt": lt_edge_cases,
    # One random edge, whose unit is not the only unit.
    "lt-one-random": lambda: im.lt_model(im.Graph.from_edges(
        3, [(0, 1, 0.5), (1, 2, 1.0)])),
    "lt-constant": lt_constant,
    "bdep": bdep_edge_cases,
    "two-world": im.families.gen_two_world_mixture,
    "lt-bdep-mixture": lambda: im.mixture_model([(lt_edge_cases(), 0.4),
                                                 (bdep_edge_cases(), 0.6)]),
    "lt-extremes": lt_extremes,
    "bdep-extremes": bdep_extremes,
    "extremes-mixture": lambda: im.mixture_model([(ic_extremes(), 0.5), (lt_extremes(), 0.3),
                                                  (bdep_extremes(), 0.2)]),
    "polysimu": lambda: im.families.gen_polysimu(102),
}
# The reference covers simulations 0 .. REFERENCE_STOP - 1.
REFERENCE_STOP = 1023 + 2113


def lt_random(seed):
    # In-degrees of 8 and more, where a row's sum is pairwise, not running;
    # every seventh edge at weight 0, and each node's in-weights scaled to
    # sum to 0.9 or, at every third node, to 1 up to rounding.
    g = im.families.gen_random_ic(16, 150, seed=seed).graph
    probs = np.where(np.arange(g.num_edges) % 7 == 0, 0.0, g.probs)
    total = np.bincount(g.heads, weights=probs, minlength=g.num_nodes)
    target = np.where(np.arange(g.num_nodes) % 3 == 0, 1.0, 0.9)
    probs *= np.divide(target, total, out=np.zeros_like(total), where=total > 0)[g.heads]
    return im.lt_model(im.Graph(g.num_nodes, g.tails, g.heads, probs, g.groups,
                                g.node_weights))


@pytest.mark.parametrize("kind", sorted(SAMPLER_MODELS) + ["lt-random"])
def test_draw_plan_equals_the_per_radix_reference(kind):
    cases = ([lt_random(seed) for seed in range(4)] if kind == "lt-random"
             else [SAMPLER_MODELS[kind]()])
    for model in cases:
        for part, _, _ in model.parts:
            got, want = part._draw_plan, scalar_reference.draw_plan(part)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("count", [1, 63, 64, 65, 1023, 1024, 1025, 2113])
@pytest.mark.parametrize("kind", sorted(SAMPLER_MODELS))
def test_pool_sampling_matches_reference_loops(kind, count, monkeypatch):
    # Chunks and blocks of 64 test cells: a wide selection hashes a few
    # words at a time, and the threads split its longer pools, where a
    # narrow selection is one block.
    monkeypatch.setattr(models, "_HASH_CELLS", 64)
    model = SAMPLER_MODELS[kind]()
    m = model.graph.num_edges
    masks = [None, np.arange(m) % 3 == 1, np.arange(m) == m - 1]
    for start in (0, 1, 5, 64, 1000, 1023):
        expect, expect_comps = reference_live_block(kind, 13, start, count)
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


@pytest.mark.parametrize("cells", [1, 40, 3072])
def test_draw_steps_match_reference_loops(cells, monkeypatch):
    # Chunks of one word of one test, of a word or two of every test, and
    # of every test of the pool at once.  A block is one chunk, so at one
    # cell every pool is 18 blocks and three workers each fill six.
    monkeypatch.setattr(models, "_HASH_CELLS", cells)
    for kind, make in sorted(SAMPLER_MODELS.items()):
        model = make()
        assert cells > 1 or model._edge_sampler[1] == 64
        expect, expect_comps = reference_live_block(kind, 13, 5, 1100)
        for threads in (1, 3):
            live, comps = im.sample_pool(model, 13, 1100, 5, threads)
            assert np.array_equal(live, expect), (kind, threads)
            assert (comps is None) == (expect_comps is None)
            if comps is not None:
                assert np.array_equal(comps, expect_comps)


def test_wide_selections_split_calls_within_the_budget(monkeypatch):
    # Selections of 150 and about 300 tests against budgets of 64 cells:
    # each rng.less_words call takes at most 64 tests over its block's two
    # words (every block starts 9 simulations into a word), each piece of
    # its first batch hashes at most 64 cells of them, and the words equal
    # the default budgets' at threads 1 and 3.
    def wide_models():
        g = random_model(7, n=50, m=150).graph
        sums = np.bincount(g.heads, weights=g.probs, minlength=50)
        lt = im.lt_model(im.Graph(50, g.tails, g.heads, g.probs * 0.9 / np.maximum(
            sums, 1.0)[g.heads], g.groups, g.node_weights))
        return [random_model(6, n=50, m=150),
                im.mixture_model([(lt, 0.5), (random_model(8, n=50, m=150), 0.5)])]

    expect = [im.sample_pool(model, 4, 700, 9, packed=True) for model in wide_models()]
    shapes, pieces = [], []
    less_words, hashed = rng.less_words, rng._hashed

    def logged_less_words(*args):
        shapes.append(np.shape(args[-1]))
        return less_words(*args)

    def logged_hashed(base, k, *args):
        if k == 0:
            pieces.append(base.shape)
        return hashed(base, k, *args)

    monkeypatch.setattr(rng, "less_words", logged_less_words)
    monkeypatch.setattr(rng, "_hashed", logged_hashed)
    monkeypatch.setattr(models, "_HASH_CELLS", 64)
    monkeypatch.setattr(rng, "_BATCH_CELLS", 64)
    for model, (words, comps) in zip(wide_models(), expect):
        for threads in (1, 3):
            shapes.clear()
            pieces.clear()
            got, got_comps = im.sample_pool(model, 4, 700, 9, threads, packed=True)
            assert np.array_equal(got, words)
            assert (comps is None) == (got_comps is None)
            assert comps is None or np.array_equal(got_comps, comps)
            assert {width for _, width in shapes} == {2}
            assert max(tests for tests, _ in shapes) == 64
            assert max(tests * width for tests, width in pieces) == 64


@pytest.fixture
def hash_log(monkeypatch):
    """Logs each stream read: ``(stream id, tested units)`` of every
    rng.less_words call and ``(stream id, None)`` of every rng.sim_uniforms
    call."""
    log = []
    less_words, sim_uniforms = rng.less_words, rng.sim_uniforms

    def logged_less_words(master_seed, stream_id, units, *args):
        log.append((stream_id, sorted(set(np.asarray(units).tolist()))))
        return less_words(master_seed, stream_id, units, *args)

    def logged_sim_uniforms(master_seed, stream_id, *args):
        log.append((stream_id, None))
        return sim_uniforms(master_seed, stream_id, *args)

    monkeypatch.setattr(rng, "less_words", logged_less_words)
    monkeypatch.setattr(rng, "sim_uniforms", logged_sim_uniforms)
    return log


def random_units(model):
    """Sorted ids of the units whose slices end inside (0, 1)."""
    return sorted({unit for _, unit, lo, hi in reference_slices(model)
                   if unit is not None and (lo > 0.0 or hi < 1.0)})


def test_draw_widths_count_random_units_only(hash_log):
    constant_ic = im.ic_model(im.Graph.from_edges(4, [(0, 1, 1.0), (1, 2, 0.0), (2, 3, 1.0)]))
    constant_bdep = im.bdep_model(im.Graph.from_edges(
        4, [(0, 1, 1.0, 0), (0, 2, 1.0, 0), (1, 3, 0.0, 1), (2, 3, 0.0)]), b=2)
    mixture = SAMPLER_MODELS["lt-bdep-mixture"]()
    lt_units, bdep_units = (random_units(c) for c in mixture.components)
    # Models with no random unit read no stream at all.
    cases = [(constant_ic, []), (constant_bdep, []), (lt_constant(), []),
             (im.families.gen_polysimu(102), [(rng.STREAM_EDGES, [0])]),
             # Both LT nodes with in-edges are units; only unit 0 is random.
             (SAMPLER_MODELS["lt-one-random"](), [(rng.STREAM_NODES, [0])]),
             # The LT nodes whose one in-edge weighs 1 or 0 are not hashed;
             # both components read their units from the shared stream.
             (mixture, [(rng.STREAM_MIXTURE, None),
                        (rng.STREAM_UNITS, sorted(set(lt_units + bdep_units)))])]
    assert lt_units == [0, 1, 3]
    for model, expect in cases:
        hash_log.clear()
        im.sample_pool(model, 3, 100)
        assert hash_log == expect


def test_a_selection_draws_only_its_units(hash_log):
    model = SAMPLER_MODELS["ic"]()
    # Every edge is its own random unit, so unit j is edge j.
    assert len(reference_binary_units(model)) == model.graph.num_edges
    mask = np.zeros(model.graph.num_edges, dtype=bool)
    mask[[3, 4, 5, 17]] = True
    for start, count in ((0, 2048), (1000, 48), (7, 700)):
        hash_log.clear()
        im.sample_pool(model, 3, count, start, edges=mask)
        assert {entry for stream_id, units in hash_log for entry in units} == {3, 4, 5, 17}
        assert {stream_id for stream_id, _ in hash_log} == {rng.STREAM_EDGES}


@pytest.mark.parametrize("kind", sorted(SAMPLER_MODELS))
def test_a_need_draws_the_full_bits_inside_it_and_zero_outside(kind):
    # Needs of a few bits, of about a third and of every bit, with their
    # second word empty, over ranges that start at, inside and past a word.
    model = SAMPLER_MODELS[kind]()
    m = model.graph.num_edges
    draw, _, _ = model._edge_sampler
    picks = np.random.default_rng(m)
    for start, count in ((0, 64), (5, 700), (64, 1100)):
        full, comps = draw(13, start, count)
        for share in (0.03, 0.3, 1.0):
            need = im.pack_rows(picks.random((count, m)) < share)
            need[:, 1:2] = 0
            got, got_comps = draw(13, start, count, need)
            assert got.dtype == np.uint64 and np.array_equal(got, full & need)
            assert (comps is None) == (got_comps is None)
            assert comps is None or np.array_equal(got_comps, comps)


@given(kind=st.sampled_from(sorted(SAMPLER_MODELS)), start=st.integers(0, 200),
       count=st.sampled_from([1, 63, 64, 65, 1025]),
       threads=st.sampled_from([1, 2]), data=st.data())
def test_edge_selection_equals_masked_columns_of_full_pool(kind, start, count, threads,
                                                           data):
    model = SAMPLER_MODELS[kind]()
    m = model.graph.num_edges
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)), dtype=bool)
    full, comps = im.sample_pool(model, 13, count, start, threads, packed=True)
    words, picked_comps = im.sample_pool(model, 13, count, start, threads, packed=True,
                                         edges=mask)
    assert words.shape == (int(mask.sum()), full.shape[1])
    assert np.array_equal(words, full[mask])
    assert (comps is None) == (picked_comps is None)
    if comps is not None:
        assert np.array_equal(comps, picked_comps)
    live, _ = im.sample_pool(model, 13, count, start, threads, edges=mask)
    assert np.array_equal(live, im.unpack_rows(full, count)[:, mask])


def test_lt_picks_at_most_one_in_edge_per_node_in_every_simulation():
    # Nodes with 2 to 5 in-edges whose weights leave no mass, almost none
    # or half of it for "no edge", over 2**18 simulations.
    draw = np.random.default_rng(5)
    edges = []
    for v, (indegree, total) in enumerate([(2, 1.0), (3, 0.999), (5, 0.5), (4, 1.0),
                                           (3, 0.25)], start=1):
        weights = draw.dirichlet(np.ones(indegree)) * total
        tails = draw.choice([u for u in range(8) if u != v], indegree, replace=False)
        edges += [(int(t), v, float(w)) for t, w in zip(tails, weights)]
    model = im.lt_model(im.Graph.from_edges(8, edges))
    sims = 1 << 18
    words, _ = im.sample_pool(model, 7, sims, threads=2, packed=True)
    g = model.graph
    for v in range(1, 6):
        ins = g.in_edges(v)
        for a, b in itertools.combinations(ins.tolist(), 2):
            assert not (words[a] & words[b]).any()
        picked = np.zeros(words.shape[1], dtype=np.uint64)
        for e in ins.tolist():
            picked |= words[e]
            p = g.probs[e]
            z = (int(np.bitwise_count(words[e]).sum()) - sims * p) / np.sqrt(sims * p * (1 - p))
            assert abs(z) <= 5
        none = 1.0 - g.probs[ins].sum()
        if none > 0.0:
            hits = sims - int(np.bitwise_count(picked).sum())
            assert abs(hits - sims * none) <= 5 * np.sqrt(sims * none * (1 - none))


def test_sample_pool_rejects_simulations_past_the_counter():
    # Checked before anything is allocated.
    model = random_model(3)
    tracemalloc.start()
    try:
        for start, count in ((0, rng.MAX_SIMULATIONS + 1), (rng.MAX_SIMULATIONS, 1),
                             (rng.MAX_SIMULATIONS - 1, 2)):
            with pytest.raises(ValueError, match="simulation index"):
                im.sample_pool(model, 0, count, start, packed=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # The last two simulations of the layout are drawn like any other.
    last, _ = im.sample_pool(model, 0, 2, rng.MAX_SIMULATIONS - 2)
    assert np.array_equal(last[1], one_live_row(model, 0, rng.MAX_SIMULATIONS - 1))


def test_sample_pool_rejects_units_past_the_counter(monkeypatch):
    # Checked on the unit count alone, below a model of 2**26 + 1 units.
    monkeypatch.setattr(rng, "MAX_UNITS", 13)
    with pytest.raises(ValueError, match="14 random units"):
        im.sample_pool(random_model(3), 0, 5)
    with pytest.raises(ValueError, match="14 random units"):
        im.sample_pool(random_model(3), 0, 5, edges=np.arange(14) < 2)
    monkeypatch.setattr(rng, "MAX_UNITS", 14)
    assert im.sample_pool(random_model(3), 0, 5)[0].shape == (5, 14)


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
    of the (words, 8, k) bytes, with the words of each column laid out as
    one row."""
    rows = np.asarray(rows, dtype=bool)
    count, k = rows.shape
    words = -(-count // 64)
    packed = np.zeros((words * 8, k), dtype=np.uint8)
    packed[:(count + 7) // 8] = np.packbits(rows, axis=0, bitorder="little")
    by_column = np.ascontiguousarray(packed.reshape(words, 8, k).transpose(2, 0, 1))
    return by_column.view("<u8")[..., 0]


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
    weights = gen.uniform(0.5, 3.0, n)
    weights[gen.random(n) < 0.2] = 0.0
    high = 2 if dtype is np.uint8 else 400
    # Output axes after the node axis: one output or many, in a batch of
    # one or of several.
    for w in (weights, np.ones(n)):
        for outputs in [(1,), (2,), (65,), (1, 1), (1, 5), (3, 1), (4, 7)]:
            x = gen.integers(0, high, (n,) + outputs).astype(dtype)
            # Unit weights take an integer total: uint16 up to 65,535, int64
            # above, which 300 nodes of counts up to 399 reach.
            if n == 300 and dtype is np.int64:
                assert models._total_dtype(n * int(x.max())) is np.int64
            expect = np.zeros(outputs)
            for v in range(n):
                expect = expect + w[v] * x[v]
            got = models.node_weighted_sums(w, x)
            assert got.shape == outputs and got.dtype == np.float64
            assert got.tobytes() == expect.tobytes()
            # The same columns as a transposed, non-contiguous view.
            flipped = np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 0, -1)), -1, 0)
            assert models.node_weighted_sums(w, flipped).tobytes() == expect.tobytes()


# -- reachability -----------------------------------------------------------

def test_reach_examples_on_live_path():
    model = path_model()
    live, _ = im.sample_pool(model, 0, 1, packed=True)
    g = model.graph
    assert reached(g, live, (0,), 2) == {0, 1, 2}
    assert reached(g, live, (0,), 1) == {0, 1}
    assert reached(g, live, (0,), 0) == {0}
    assert im.row_values(g, im.reach_mask_batch(g, live, (0,), 2), 1)[0] == 3.0


def test_row_values_use_node_weights():
    g = im.Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)],
                            node_weights=[0.5, 2.0, 0.0])
    model = im.ic_model(g)
    live, _ = im.sample_pool(model, 0, 1, packed=True)
    assert im.row_values(g, im.reach_mask_batch(g, live, (0,), 2), 1)[0] == 2.5
    assert im.row_values(g, im.reach_mask_batch(g, live, (0,), 0), 1)[0] == 0.5


def test_reach_rejects_empty_seeds():
    model = path_model()
    live, _ = im.sample_pool(model, 0, 1, packed=True)
    with pytest.raises(ValueError, match="empty seed set"):
        im.reach_mask_batch(model.graph, live, (), 1)


@given(seed=st.integers(0, 10**6), sim_index=st.integers(0, 500),
       tau=st.integers(0, 6))
def test_reach_monotone_in_tau(seed, sim_index, tau):
    model = random_model(seed % 50)
    live, _ = im.sample_pool(model, seed, 1, sim_index, packed=True)
    smaller = reached(model.graph, live, (0,), tau)
    larger = reached(model.graph, live, (0,), tau + 1)
    assert smaller <= larger


@given(seed=st.integers(0, 10**6),
       seeds=st.sets(st.integers(0, 7), min_size=1, max_size=3),
       extra=st.integers(0, 7))
def test_reach_monotone_in_seeds(seed, seeds, extra):
    model = random_model(seed % 50)
    live, _ = im.sample_pool(model, seed, 1, packed=True)
    small = reached(model.graph, live, tuple(seeds), 2)
    big = reached(model.graph, live, tuple(seeds | {extra}), 2)
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
    assert packed.shape == (model.graph.num_edges, -(-rows // 64))
    mask = im.reach_mask_batch(model.graph, packed, seeds, tau)
    assert mask.shape == (n, packed.shape[1])
    unpacked = im.unpack_rows(mask, rows)
    for i in range(rows):
        ids = reach_ids(model.graph, live[i], seeds, tau)
        assert np.array_equal(np.flatnonzero(unpacked[i]), ids)


@given(rows=st.integers(0, 200), cols=st.integers(0, 5), seed=st.integers(0, 10**6))
def test_pack_rows_bit_layout(rows, cols, seed):
    bits = np.random.default_rng(seed).random((rows, cols)) < 0.5
    packed = im.pack_rows(bits)
    assert packed.dtype == np.uint64
    for r in range(rows):
        word, bit = divmod(r, 64)
        got = (packed[:, word] >> np.uint64(bit)) & np.uint64(1)
        assert np.array_equal(got.astype(bool), bits[r])
    if rows % 64:
        assert not np.any(packed[:, -1] >> np.uint64(rows % 64))
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
        assert not np.any(start[:, -1] >> np.uint64(rows % 64))
    mask = im.reach_mask_batch(g.reversed if reverse else g, im.pack_rows(live), start, tau)
    unpacked = im.unpack_rows(mask, rows)
    for i in range(rows):
        if reverse:
            ids = im.reverse_reach_set(g, live[i], int(targets[i]), tau)
        else:
            ids = reach_ids(g, live[i], (int(targets[i]),), tau)
        assert np.array_equal(np.flatnonzero(unpacked[i]), ids)


def all_forward_pairs(n):
    """Node ``v`` hears from every lower id and node 0 from the last: every
    in-degree from 1 to ``n - 1`` occurs, forward and reversed."""
    return im.Graph.from_edges(n, [(n - 1, 0, 0.5)]
                               + [(u, v, 0.5) for v in range(1, n) for u in range(v)])


BUCKET_GRAPHS = {
    "star": lambda: im.families.gen_star(20, dependent=False).graph,
    "polysimu": lambda: im.families.gen_polysimu(102).graph,
    "all-forward-pairs": lambda: all_forward_pairs(9),
    "random": lambda: random_model(7, n=25, m=90).graph,
}


@pytest.mark.parametrize("name", sorted(BUCKET_GRAPHS))
@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("call_words", [0, 1 << 40])
def test_bucketed_kernel_matches_scalar_reach(name, reverse, call_words, monkeypatch):
    # In-degrees 0 and 1 only (star, polysimu forward) and many distinct
    # in-degrees, one reduction per in-degree (a free call never pays for
    # padding) or one padded reduction (a costly call always does).
    monkeypatch.setattr(models, "_CALL_WORDS", call_words)
    g = BUCKET_GRAPHS[name]()
    g = g.reversed if reverse else g
    n, rows = g.num_nodes, 70
    live = np.random.default_rng(len(name)).random((rows, g.num_edges)) < 0.6
    seeds = (0, n // 2)
    for tau in sorted({0, 1, 2, n - 1}):
        mask = im.unpack_rows(im.reach_mask_batch(g, im.pack_rows(live), seeds, tau), rows)
        for i in range(rows):
            assert np.array_equal(np.flatnonzero(mask[i]), reach_ids(g, live[i], seeds, tau))


@pytest.mark.parametrize("padded", [False, True])
def test_in_layouts_hold_each_heads_in_edges_slot_by_slot(padded):
    g = all_forward_pairs(6).reversed
    edges, tails, heads, buckets, pads = g._in_layout(padded)
    degree = np.diff(g._in_start)
    assert heads.tolist() == [4, 5, 3, 2, 1, 0]
    expect = [(5, 0, 6, 0)] if padded else [(1, 0, 2, 0), (2, 2, 3, 2), (3, 3, 4, 4),
                                           (4, 4, 5, 7), (5, 5, 6, 11)]
    assert list(buckets) == expect
    assert np.array_equal(tails, g.tails[edges])
    padding = []
    for d, lo, hi, first in buckets:
        for j in range(d):
            for r in range(lo, hi):
                at = first + j * (hi - lo) + r - lo
                own = g.in_edges(heads[r])
                if j < degree[heads[r]]:
                    assert edges[at] == own[j]
                else:
                    padding.append(at)
    assert pads.tolist() == padding
    assert len(edges) == (30 if padded else 16)


@pytest.mark.parametrize("kind", sorted(KERNEL_MODELS))
def test_reverse_reach_set_is_reach_set_over_reversed_graph(kind):
    model = KERNEL_MODELS[kind]
    g = model.graph
    live, _ = im.sample_pool(model, 3, 40)
    for i in range(live.shape[0]):
        target = i % g.num_nodes
        for tau in (0, 1, 3):
            expect = reach_ids(g.reversed, live[i], (target,), tau)
            assert np.array_equal(im.reverse_reach_set(g, live[i], target, tau), expect)


@pytest.mark.parametrize("per_block", [None, 1, 4])
def test_set_reaches_match_per_set_propagation(per_block, monkeypatch):
    # None keeps the default block rule; 1 and 4 size _BLOCK_CELLS to that
    # many sets per block, 4 leaving a short last block.
    for model in (random_model(5, n=9, m=22), im.ic_model(im.Graph.from_edges(5, []))):
        n = model.num_nodes
        draw = np.random.default_rng(n)
        # Sets of 1 to 4 members, each size with a set of one member repeated
        # and sets that repeat members by chance.
        sets = [draw.integers(0, n, size=(6, k)) for k in (1, 2, 3, 4)]
        for ids in sets:
            ids[0] = ids[0, 0]
        for g in (model.graph, model.graph.reversed):
            # 63 and 130 rows end in a partial word
            for rows in (1, 63, 64, 130):
                live, _ = im.sample_pool(model, rows, rows, packed=True)
                width = live.shape[1]
                if per_block is not None:
                    monkeypatch.setattr(models, "_BLOCK_CELLS",
                                        per_block * width * max(g.num_edges, n))
                for tau in (0, 1, 2, n - 1):
                    for ids in sets + [np.arange(n)[:, None]]:
                        blocks = list(models.set_reaches(g, live, tau, ids))
                        if per_block is not None:
                            assert [len(b) for b in blocks[:-1]] == \
                                [per_block] * (len(blocks) - 1)
                        for block in blocks:
                            assert block.dtype == np.uint64 and block.flags.c_contiguous
                            assert block.shape[1:] == (n, width)
                        expect = np.stack([im.reach_mask_batch(g, live, tuple(row), tau)
                                           for row in ids])
                        assert np.concatenate(blocks).tobytes() == expect.tobytes()
                monkeypatch.undo()


ROW_MODELS = dict(KERNEL_MODELS, edgeless=im.ic_model(im.Graph.from_edges(4, [])),
                  # nodes 2, 5 and 6 have no edges at all
                  isolated=im.ic_model(im.Graph.from_edges(
                      7, [(0, 1, 0.5), (1, 3, 0.7), (3, 0, 0.9), (4, 3, 0.4), (1, 4, 1.0)])))


@pytest.mark.parametrize("kind", sorted(ROW_MODELS))
def test_reach_rows_scatter_to_single_source_masks(kind):
    # Every source's rows, scattered into an (n, words) mask, are its
    # reach_mask_batch bit for bit: all sources and an unsorted subset with a
    # repeat, over one word and over several with a partial last one.
    model = ROW_MODELS[kind]
    n = model.num_nodes
    subset = [n - 1, 0, n // 2, 0]
    for g in (model.graph, model.graph.reversed):
        for count in (40, 64, 130):
            live, _ = im.sample_pool(model, 5, count, packed=True)
            for tau in (0, 1, 2, n - 1):
                for sources in (np.arange(n), subset):
                    start, nodes, rows = models.reach_rows(g, live, tau, sources)
                    assert start.shape == (len(sources) + 1,) and start[0] == 0
                    assert rows.shape == (nodes.size, live.shape[1])
                    assert rows.dtype == np.uint64 and rows.flags.c_contiguous
                    assert rows.any(axis=1).all()
                    for i, source in enumerate(sources):
                        at = slice(start[i], start[i + 1])
                        assert (np.diff(nodes[at]) > 0).all()
                        mask = np.zeros((n, live.shape[1]), dtype=np.uint64)
                        mask[nodes[at]] = rows[at]
                        expect = im.reach_mask_batch(g, live, (int(source),), tau)
                        assert mask.tobytes() == expect.tobytes()
    live, _ = im.sample_pool(model, 5, 40, packed=True)
    start, nodes, rows = models.reach_rows(model.graph, live, 2, [])
    assert start.tolist() == [0] and nodes.size == 0 and rows.shape == (0, 1)
    for bad in ([-1], [n]):
        with pytest.raises(ValueError, match="out of range"):
            models.reach_rows(model.graph, live, 2, bad)
    with pytest.raises(ValueError, match="step limit"):
        models.reach_rows(model.graph, live, -1, [0])


def test_every_packed_producer_returns_contiguous_rows(monkeypatch):
    # One layout from the sampler to the reduction: C-contiguous (k,
    # ceil(count / 64)) uint64, k edges of a live pool or k nodes of a mask.
    # A transposed view fails here.  At 64 hash cells the pool is several
    # blocks, so two threads split it.
    monkeypatch.setattr(models, "_HASH_CELLS", 64)
    monkeypatch.setattr(exact, "_CHUNK", 100)
    model = random_model(5, n=9, m=22)
    g, n, m = model.graph, model.num_nodes, model.graph.num_edges
    count, edges = 130, np.arange(m) % 3 == 1

    def check(words, k, count=count):
        assert words.dtype == np.uint64 and words.flags.c_contiguous
        assert words.shape[-2:] == (k, -(-count // 64))

    rows, _ = im.sample_pool(model, 3, count)
    live, start = im.pack_rows(rows), im.start_mask(n, np.arange(count) % n)
    check(live, m)
    check(start, n)
    assert model._edge_sampler[1] < count
    for threads in (1, 2):
        check(im.sample_pool(model, 3, count, threads=threads, packed=True)[0], m)
        check(im.sample_pool(model, 3, count, 5, threads, packed=True, edges=edges)[0],
              int(edges.sum()))
    check(im.reach_mask_batch(g, live, (0, 4), 2), n)
    check(im.reach_mask_batch(g.reversed, live, start, 2), n)
    for ids in (np.arange(n)[:, None], [[0, 4], [3, 3], [8, 1]]):
        for block in models.set_reaches(g, live, 2, ids):
            check(block, n)
    rows = models.reach_rows(g, live, 2, np.arange(n))[2]
    check(rows, len(rows))
    mixture = im.mixture_model([(random_model(1, n=6, m=8), 0.5),
                                (random_model(2, n=6, m=8), 0.5)])
    for words, rows, _ in exact._outcome_chunks(mixture, np.ones(16, dtype=bool)):
        check(words, 16, rows)


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
    live, _ = im.sample_pool(model, 7, 1, 1, packed=True)
    g = model.graph

    def f(nodes):
        if not nodes:
            return 0.0
        return im.row_values(g, im.reach_mask_batch(g, live, tuple(nodes), 3), 1)[0]

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
        assert np.array_equal(one_live_row(model, 3, 4), one_live_row(back, 3, 4))


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
    for missing in ([2, 0], [0, 1], [-1, 2], [0, 3], [3, 0], [2, 2]):
        parsed["lt_weights"] = [[0, 2, 0.25], [*missing, 0.25]]
        (tmp_path / "lt.model").write_text(json.dumps(parsed))
        with pytest.raises(ValueError, match=f"missing edge \\({missing[0]}, {missing[1]}\\)"):
            im.load_model(tmp_path / "lt.model")
    # Edges written out of key order; the last override of an edge wins.
    g = im.Graph.from_edges(4, [(2, 3, 0.1), (0, 3, 0.2), (1, 0, 0.3), (0, 1, 0.4)])
    im.save_model(im.lt_model(g), tmp_path / "lt.model")
    parsed = json.loads((tmp_path / "lt.model").read_text())
    parsed["lt_weights"] = [[0, 1, 0.5], [2, 3, 0.25], [0, 1, 0.125], [1, 0, 0.0]]
    (tmp_path / "lt.model").write_text(json.dumps(parsed))
    assert im.load_model(tmp_path / "lt.model").graph.probs.tolist() == [0.25, 0.2, 0.0, 0.125]
