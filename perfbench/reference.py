"""Closed-form exact influence at step limit 2, independent of the program.

Within two steps the live paths from a seed set S to a node v are the
direct edges s -> v and the two-edge paths s -> w -> v through nodes w
outside S.  Under independent edges, the events "w is reached at step 1
and w -> v is live" use disjoint edge sets for distinct w, and are
disjoint from the direct edges into v, so the probability that v stays
unreached is a product.  Under the threshold model's live-edge form, v
keeps at most one incoming edge, so the ways v can be reached are
mutually exclusive and their probabilities add.

These formulas give the benchmark reference values that share no code
with the program's samplers, propagation or enumeration.
"""

from __future__ import annotations

import numpy as np


def prob_matrix(graph) -> np.ndarray:
    """Dense ``n x n`` matrix of edge probabilities (simple digraphs only)."""
    n = graph.num_nodes
    tails = np.asarray(graph.tails)
    heads = np.asarray(graph.heads)
    if np.any(tails == heads):
        raise ValueError("self-loops are not supported")
    if np.unique(tails * n + heads).size != tails.size:
        raise ValueError("duplicate edges are not supported")
    p = np.zeros((n, n))
    p[tails, heads] = graph.probs
    return p


def ic_tau2(p: np.ndarray, weights: np.ndarray, seeds) -> float:
    """Exact two-step influence of ``seeds`` under independent edges."""
    seeds = np.asarray(sorted(set(seeds)), dtype=np.int64)
    outside = np.ones(p.shape[0], dtype=bool)
    outside[seeds] = False
    miss_direct = np.prod(1.0 - p[seeds], axis=0)
    step1 = np.where(outside, 1.0 - miss_direct, 0.0)
    mids = np.flatnonzero(step1 > 0.0)
    with np.errstate(divide="ignore"):
        miss_two = np.exp(np.log1p(-step1[mids, None] * p[mids]).sum(axis=0))
    reached = 1.0 - miss_direct * miss_two
    return float(weights[seeds].sum() + weights[outside] @ reached[outside])


def lt_tau2(w: np.ndarray, weights: np.ndarray, seeds) -> float:
    """Exact two-step influence of ``seeds`` under threshold dynamics."""
    seeds = np.asarray(sorted(set(seeds)), dtype=np.int64)
    outside = np.ones(w.shape[0], dtype=bool)
    outside[seeds] = False
    step1 = w[seeds].sum(axis=0)
    reached = step1 + np.where(outside, step1, 0.0) @ w
    return float(weights[seeds].sum() + weights[outside] @ reached[outside])


class Tau2Reference:
    """Exact two-step influences of one model: IC, LT or a mixture of ICs."""

    def __init__(self, model):
        self.weights = np.asarray(model.graph.node_weights, dtype=np.float64)
        if model.kind == "mixture":
            self.parts = [(float(cw), Tau2Reference(comp))
                          for comp, cw in zip(model.components, model.component_weights)]
            return
        if model.kind not in ("ic", "lt"):
            raise ValueError(f"no closed form for {model.kind!r} models")
        self.parts = None
        self.kind = model.kind
        self.matrix = prob_matrix(model.graph)

    def influence(self, seeds) -> float:
        if self.parts is not None:
            return sum(cw * ref.influence(seeds) for cw, ref in self.parts)
        fn = ic_tau2 if self.kind == "ic" else lt_tau2
        return fn(self.matrix, self.weights, seeds)

    def opt1(self) -> float:
        """Largest exact single-node influence."""
        return max(self.influence((v,)) for v in range(self.weights.shape[0]))
