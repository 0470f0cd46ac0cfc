"""Deterministic generators for benchmark instance families.

Each generator is a pure function of its parameters, so model files
written from them are byte-identical across runs.  Where a family exists
to exhibit a specific quantitative property, the generator checks that
property by exact enumeration at build time.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph
from .models import DiffusionModel, bdep_model, ic_model, mixture_model
from . import exact
from . import rng


def gen_tree(depth: int) -> DiffusionModel:
    """Complete binary tree with ``depth`` edge levels, all probabilities 1/2.

    Root id 0, level-order ids, ``2**(depth+1) - 1`` nodes.  Full diffusion
    from the root has mean reach ``depth + 1`` and reach variance
    ``depth * (depth + 1) * (2 * depth + 1) / 12``.
    """
    if not 1 <= int(depth) <= 20:
        raise ValueError("tree depth must be in [1, 20]")
    depth = int(depth)
    n = (1 << (depth + 1)) - 1
    internal = (1 << depth) - 1
    edges = []
    for v in range(internal):
        edges.append((v, 2 * v + 1, 0.5))
        edges.append((v, 2 * v + 2, 0.5))
    return ic_model(Graph.from_edges(n, edges))


def gen_star(leaves: int, dependent: bool) -> DiffusionModel:
    """Center node 0 with ``leaves`` out-edges at probability 1/2.

    With ``dependent`` all edges form one all-or-none group; the center's
    one-step influence is ``1 + leaves / 2`` either way, but the dependent
    variant concentrates all variance in a single coin.
    """
    if leaves < 0:
        raise ValueError("leaf count must be nonnegative")
    n = leaves + 1
    if dependent and leaves >= 1:
        edges = [(0, leaf, 0.5, 0) for leaf in range(1, n)]
        return bdep_model(Graph.from_edges(n, edges), b=leaves)
    edges = [(0, leaf, 0.5) for leaf in range(1, n)]
    return ic_model(Graph.from_edges(n, edges))


def gen_polysimu(n: int) -> DiffusionModel:
    """Low-influence, huge-variance gadget on ``n`` nodes.

    Node 0 deterministically reaches 24 direct nodes and holds a single
    probability-``75/(n-25)`` edge to a hub that deterministically covers
    the remaining ``n - 26`` nodes.  At two steps its influence is exactly
    100 while its reach variance is ``75 * (n - 100)``, so relative-error
    estimation of node 0 needs a number of simulations that grows linearly
    with ``n``.  Checked by enumeration at build time.
    """
    if n < 102:
        raise ValueError("gadget needs at least 102 nodes")
    n = int(n)
    hub = 25
    p_hub = 75.0 / (n - 25)
    edges = [(0, v, 1.0) for v in range(1, 25)]
    edges.append((0, hub, p_hub))
    edges.extend((hub, v, 1.0) for v in range(26, n))
    model = ic_model(Graph.from_edges(n, edges))
    report = exact.exact_report(model, (0,), 2)
    if abs(report.influence - 100.0) > 1e-9:
        raise AssertionError("gadget self-check failed: influence != 100")
    if abs(report.variance - 75.0 * (n - 100)) > 1e-6 * report.variance:
        raise AssertionError("gadget self-check failed: variance mismatch")
    return model


_TWO_WORLD_NODES = 12
_RED_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (5, 7), (5, 8)]
_BLUE_EDGES = [(9, 10), (10, 11)]
TWO_WORLD_TAU = 4


def gen_two_world_mixture() -> DiffusionModel:
    """Even mixture of two deterministic worlds with disjoint edge sets.

    Every simulation is exactly the red edge set or exactly the blue edge
    set.  Node 0 (head of a long red chain) is the true four-step
    influence maximizer, but an estimator that flips edges independently
    at their marginal probabilities discounts the chain geometrically and
    prefers node 5 (a three-leaf fan).  Verified by enumeration at build
    time.
    """
    n = _TWO_WORLD_NODES
    red = ic_model(Graph.from_edges(n, [(t, h, 1.0) for t, h in _RED_EDGES]))
    blue = ic_model(Graph.from_edges(n, [(t, h, 1.0) for t, h in _BLUE_EDGES]))
    model = mixture_model([(red, 0.5), (blue, 0.5)])
    from .estimators import marginal_edge_model
    singles = [(v,) for v in range(n)]
    truth = exact.exact_values(model, TWO_WORLD_TAU, singles)
    biased = exact.exact_values(marginal_edge_model(model), TWO_WORLD_TAU, singles)
    if int(np.argmax(truth)) == int(np.argmax(biased)):
        raise AssertionError("two-world self-check failed: maximizers agree")
    return model


def gen_random_ic(n: int, m: int, p_range=(0.1, 0.9), weight_range=(1.0, 1.0),
                  seed: int = 0) -> DiffusionModel:
    """Reproducible random simple digraph with independent edges."""
    if n < 2:
        raise ValueError("need at least two nodes")
    if not 0 <= m <= n * (n - 1):
        raise ValueError("edge count out of range")
    g = rng.stream(seed, rng.STREAM_FAMILY, 0)
    codes = g.choice(n * (n - 1), size=m, replace=False)
    codes.sort()
    edges = []
    probs = g.uniform(p_range[0], p_range[1], size=m)
    for code, p in zip(codes, probs):
        tail, offset = divmod(int(code), n - 1)
        head = offset if offset < tail else offset + 1
        edges.append((tail, head, float(p)))
    lo, hi = weight_range
    if lo == hi == 1.0:
        weights = np.ones(n)
    else:
        weights = g.uniform(lo, hi, size=n)
    return ic_model(Graph.from_edges(n, edges, node_weights=weights))
