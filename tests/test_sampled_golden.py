"""Sampled outputs pinned to their bytes.

Each case hashes seeded outputs in forms that do not depend on how packed
words are laid out in memory: boolean live matrices and mixture components
from ``sample_pool`` (every edge at a start inside a word, and an edge
selection), the ``Oracle.query_many`` values of every single and pair at a
pool size whose ``gcd`` with 64 is below 8 and one where it is 8, a
``seed_set_pool_averages`` vector, both ``rrs_estimate`` modes, and the
ranks, nodes and simulations of every ``build_sketches`` sketch with a
lossy and a lossless ``sketch_query``.  The digests were recorded before
the packed layout became node-major, so any sampled bit that moves, or any
change to the arithmetic order of a sampled value, shows here as a changed
digest.
"""

import hashlib
from itertools import combinations

import numpy as np
import pytest

import infmax as im
from test_exact_golden import fixed_indegree_lt, grouped_bdep

CASES = {
    "weighted-ic": lambda: im.families.gen_random_ic(9, 17, weight_range=(0.3, 2.7), seed=10),
    "lt": fixed_indegree_lt,
    "bdep": grouped_bdep,
    "lt-bdep-mixture": lambda: im.mixture_model(
        [(fixed_indegree_lt(seed=43), 0.35), (grouped_bdep(groups=3, loose=6, seed=44), 0.65)]),
}
TAU = 2


def _pool_bytes(h, model, seed):
    for kwargs in ({}, {"edges": np.arange(model.graph.num_edges) % 3 != 1}):
        live, comps = im.sample_pool(model, seed, 300, start=37, **kwargs)
        h.update(live.tobytes())
        if comps is not None:
            h.update(comps.tobytes())


def digest(case: str) -> str:
    model = CASES[case]()
    n = model.num_nodes
    h = hashlib.sha256()
    _pool_bytes(h, model, 11)
    for comp in model.components:
        _pool_bytes(h, comp, 12)
    for pool_size in (100, 72):
        config = im.OracleConfig(3, pool_size, TAU, master_seed=5)
        oracle = im.build_oracle(model, config)
        for size in (1, 2):
            h.update(oracle.query_many(combinations(range(n), size)).tobytes())
        h.update(im.seed_set_pool_averages(model, config, (1, n - 2)).tobytes())
    for mode in (im.FULL_SIMULATION, im.MARGINAL):
        h.update(im.rrs_estimate(model, mode, 500, TAU, 9).tobytes())
    pool, _ = im.sample_pool(model, 3, 20)
    for k in (4, 1000):
        sketches = im.build_sketches(model, pool, TAU, k, rank_seed=6)
        for sk in sketches.sketches:
            h.update(sk.ranks.tobytes())
            h.update(sk.pair_nodes.tobytes())
            h.update(sk.pair_sims.tobytes())
        h.update(np.float64(im.sketch_query(sketches, (0, n - 1), 20)).tobytes())
    return h.hexdigest()


GOLDEN = {
    'bdep': 'a9c408440d60f168893bcf9962d06fb10b5314c02abbc2bb531f54cf705f5fee',
    'lt': '9da6cc26a13d2be12ab48cee54dccc0ee44ac82f20c910531cc98436567c4245',
    'lt-bdep-mixture': '5c2b14411dcc84dc3df153db649ed362c73dbbc4f7174cee128ba78148ec0aaa',
    'weighted-ic': 'b7911cf43c66363f6e5d5edebd50645f4198473ab25f61f553eebc4b55ba3cb9',
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_sampled_outputs_keep_their_bytes(case):
    assert digest(case) == GOLDEN[case]
