"""Exact outputs pinned to their bytes.

Each case's report fields (``influence``, ``variance``, ``step_probs``,
``outcomes_enumerated``), its ``exact_values`` over every single node and
the report sets, and its ``depth_profile`` hash to one SHA-256 digest per
chunk size.  The digests were recorded before the enumeration was rebuilt
around periodic choice words, so any change to the arithmetic order of an
exact output shows here as a changed digest.  ``_CHUNK = 100`` splits the
periods of radix-3 units across chunk boundaries.
"""

import hashlib

import numpy as np
import pytest

import infmax as im
from infmax import exact


def fixed_indegree_lt(n=10, indegree=2, seed=41):
    # Nodes 1..n-1 each take ``indegree`` in-edges whose weights sum to at
    # most 0.9, the shape of the benchmark's threshold instance.
    rng = np.random.default_rng(seed)
    edges = []
    for v in range(1, n):
        tails = rng.choice([u for u in range(n) if u != v], size=indegree, replace=False)
        share = rng.dirichlet(np.ones(indegree + 1))[:indegree] * 0.9
        edges.extend((int(t), v, float(w)) for t, w in zip(sorted(tails), share))
    return im.lt_model(im.Graph.from_edges(n, edges))


def grouped_bdep(n=10, groups=5, loose=9, seed=42):
    # ``groups`` all-or-none groups of three out-edges plus ``loose``
    # ungrouped edges: 2**(groups + loose) outcomes.
    rng = np.random.default_rng(seed)
    edges, used = [], set()
    for gid, t in enumerate(rng.choice(n, size=groups, replace=False).tolist()):
        p = float(rng.uniform(0.1, 0.9))
        for h in [h for h in rng.permutation(n).tolist() if h != t][:3]:
            used.add((t, h))
            edges.append((t, h, p, gid))
    pairs = [(t, h) for t in range(n) for h in range(n) if t != h and (t, h) not in used]
    for i in rng.permutation(len(pairs))[:loose].tolist():
        edges.append((*pairs[i], float(rng.uniform(0.1, 0.9))))
    return im.bdep_model(im.Graph.from_edges(n, edges), 3)


CASES = {
    "tree3": (lambda: im.families.gen_tree(3), 3, [(0,)]),
    "ic": (lambda: im.families.gen_random_ic(10, 15, seed=7), 2, [(3,), (1, 8)]),
    "lt": (fixed_indegree_lt, 2, [(0,), (2, 7)]),
    "bdep": (grouped_bdep, 3, [(4,), (0, 9)]),
    "ic-mixture": (lambda: im.mixture_model(
        [(im.families.gen_random_ic(10, 13, seed=8), 0.5),
         (im.families.gen_random_ic(10, 13, seed=9), 0.5)]), 2, [(5,), (2, 6)]),
    "weighted-ic": (lambda: im.families.gen_random_ic(9, 17, weight_range=(0.3, 2.7),
                                                      seed=10), 3, [(1,), (0, 4)]),
    "lt-bdep-mixture": (lambda: im.mixture_model(
        [(fixed_indegree_lt(seed=43), 0.35), (grouped_bdep(groups=3, loose=6, seed=44), 0.65)]),
        2, [(6,), (1, 3)]),
}


def digest(case: str) -> str:
    make, tau, seed_sets = CASES[case]
    model = make()
    h = hashlib.sha256()
    for seeds in seed_sets:
        report = im.exact_report(model, seeds, tau)
        h.update(np.float64(report.influence).tobytes())
        h.update(np.float64(report.variance).tobytes())
        h.update(report.step_probs.tobytes())
        h.update(np.int64(report.outcomes_enumerated).tobytes())
    singles = [(v,) for v in range(model.num_nodes)]
    h.update(im.exact_values(model, tau, singles + seed_sets).tobytes())
    profile = im.depth_profile(model, seed_sets[0])
    h.update(np.float64(profile.mean_depth).tobytes())
    h.update(profile.influence_by_tau.tobytes())
    return h.hexdigest()


GOLDEN = {
    ('bdep', None): 'ba53d1a27397cfc18d840a984cc4ba194d3bb7f379520722ab391a24f4839006',
    ('bdep', 100): 'd1a88be5fad05d7adf79707168e11f2494d3c880a12f2a6d277772ab3dffed70',
    ('ic', None): 'db9c0480d035d58a39dc406cdbe2a0ba53d4c7a22cc727115e8a2b8e843113d0',
    ('ic', 100): 'e0d8786e4dd43b7a83e1e8f95abd41501b6916e9e1d2a1ebeedcf08e835fa85c',
    ('ic-mixture', None): '3d94cf1db13209e8efec1c9cc471f3a6f4e56764fcd3971aa20c3da3b16456f2',
    ('ic-mixture', 100): 'd7b800940693bea1a703c8f5eedcb624f3fc85d34cf33ce0b2db63d1ed6db139',
    ('lt', None): 'd65370deafdfff42cb319790135a0c752c1f6264ebb97d013ad2fbd1703a9713',
    ('lt', 100): '680a7855a9ef2c60144a43df81f7c40495493249b5f15428648f7d3f2eedd00c',
    ('lt-bdep-mixture', None): '93dd5a8fc0334b28d7dd2614b671c4c8497d938a4cdac137427091ea2bc74aee',
    ('lt-bdep-mixture', 100): '4c90836780aeac21550ba31346be32101deb382490e181715deaae29112f9e05',
    ('tree3', None): '206f0230bdf3d04d2e54d1879f31e3a8048525bb095af382a075702daa979cfa',
    ('tree3', 100): '206f0230bdf3d04d2e54d1879f31e3a8048525bb095af382a075702daa979cfa',
    ('weighted-ic', None): '207ae498d8bdfa95b1f095f19a38f7e3ab6a1c288f944926829d887225d81b08',
    ('weighted-ic', 100): '4b3195f35f8c10d9a9542091ce9163c739a6a466694c06a32d83b64f2f0ebefe',
}


@pytest.mark.parametrize("chunk", [None, 100])
@pytest.mark.parametrize("case", sorted(CASES))
def test_exact_outputs_keep_their_bytes(case, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(exact, "_CHUNK", chunk)
    assert digest(case) == GOLDEN[case, chunk]
