"""Ground-truth influence analysis by weighted outcome enumeration.

On small instances every live-edge outcome can be enumerated with its
probability, which yields exact influence values, exact reachability
variance, per-step activation probabilities, and audits of the
variance-bound inequality.  Only probabilistic units count toward the
enumeration budget: edges pinned at probability 0 or 1 contribute no
outcomes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .graph import Graph, as_seed_tuple
from .models import (IC, LT, BDEP, MIXTURE, DiffusionModel, propagation_steps,
                     reach_mask_batch, unpack_rows)

MAX_OUTCOME_BITS = 25
_CHUNK = 1 << 16
_HOLDS_SLACK = 1e-9


class EnumerationBudgetError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class ExactReport:
    """Exact influence statistics for one seed set and step limit.

    ``step_probs[d, v]`` is the probability that node ``v`` first
    activates at step ``d`` (``d = 0`` marks the seeds themselves).
    ``opt1`` is the largest exact single-node influence at the same
    step limit.
    """
    influence: float
    variance: float
    step_probs: np.ndarray
    opt1: float
    enumeration_size: int
    tau: int
    seeds: tuple[int, ...]


@dataclass(frozen=True)
class VarianceAudit:
    lhs: float
    rhs: float
    holds: bool
    c: float
    influence: float
    opt1: float


@dataclass(frozen=True, eq=False)
class DepthProfile:
    """Influence-weighted mean activation depth plus the influence curve."""
    mean_depth: float
    influence_by_tau: np.ndarray


def _units(model: DiffusionModel):
    """Enumeration table of a non-mixture model: its random units, the
    probability of each unit's choices, and the choice that makes each edge
    live.

    Returns ``(radices, choice_probs, edge_choice)``.  Unit ``j`` takes one
    of ``radices[j]`` choices; its choice probabilities are the next
    ``radices[j]`` entries of ``choice_probs``, after those of units
    ``0 .. j-1``.  Edge ``e`` is live exactly when its unit takes the choice
    at flat index ``edge_choice[e]``; the two indices past the last choice
    mark edges that are never live (p = 0) and always live (p = 1).

    * IC: a unit ``[1 - p, p]`` per edge with ``0 < p < 1``, by edge id.
    * BDEP: such a unit per random group (group-id order), then per random
      loose edge (edge-id order).
    * LT: a unit per node with in-edges, choosing one of them by weight (in
      ``in_edges`` order) or none with the leftover mass
      ``max(0, 1 - p_in.sum())``.  Zero-weight in-edges are choices too.
    """
    g = model.graph
    p = g.probs
    if model.kind == LT:
        order, starts = g._in_order, g._in_start
        indeg = np.diff(starts)
        nodes = np.flatnonzero(indeg)
        radices = indeg[nodes] + 1
        first = np.cumsum(radices) - radices
        unit = np.searchsorted(nodes, g.heads[order])
        flat = first[unit] + np.arange(order.size) - starts[g.heads[order]]
        choice_probs = np.empty(int(radices.sum()), dtype=np.float64)
        choice_probs[flat] = p[order]
        edge_choice = np.empty(g.num_edges, dtype=np.int64)
        edge_choice[order] = flat
        # Per-row sums over the contiguous last axis add exactly as
        # p_in.sum() does on each node's own slice; np.add.reduceat does not.
        for d in np.unique(indeg[nodes]).tolist():
            at = np.flatnonzero(radices == d + 1)
            p_in = p[order[starts[nodes[at]][:, None] + np.arange(d)]]
            choice_probs[first[at] + d] = np.maximum(0.0, 1.0 - p_in.sum(axis=1))
        return radices, choice_probs, edge_choice
    if model.kind == IC:
        unit = np.arange(g.num_edges)
    elif model.kind == BDEP:
        unit = model._plan[0]
    else:
        raise ValueError(f"unknown model kind {model.kind!r}")
    unit_p = np.zeros(int(unit.max(initial=-1)) + 1, dtype=np.float64)
    unit_p[unit] = p
    random = (unit_p > 0.0) & (unit_p < 1.0)
    q = unit_p[random]
    rank = np.cumsum(random) - 1
    edge_choice = np.where(random[unit], 2 * rank[unit] + 1,
                           np.where(p >= 1.0, 2 * q.size + 1, 2 * q.size))
    return (np.full(q.size, 2, dtype=np.int64), np.column_stack([1.0 - q, q]).ravel(),
            edge_choice)


def outcome_count(model: DiffusionModel) -> int:
    """Number of weighted outcomes full enumeration would visit."""
    if model.kind == MIXTURE:
        return sum(outcome_count(c) for c in model.components)
    return math.prod(_units(model)[0].tolist())


def _check_budget(model: DiffusionModel) -> int:
    size = outcome_count(model)
    if size > (1 << MAX_OUTCOME_BITS):
        raise EnumerationBudgetError("instance too large for exact enumeration")
    return size


def _outcome_chunks(model: DiffusionModel, weight: float = 1.0, offset: int = 0,
                    width: int | None = None):
    """Yield ``(words, rows, probs)`` chunks covering the outcome space.

    Each chunk holds ``rows`` consecutive outcome indices; ``words`` are
    their packed ``(ceil(rows / 64), width)`` live edges (:func:`pack_rows`
    layout) and ``probs`` their probabilities.  Outcome index ``i`` is
    mixed-radix over the units of :func:`_units`, unit 0 least
    significant; its probability is ``weight`` times the product of its
    choice probabilities, multiplied in unit order.  ``width`` defaults to
    the model's own edge count; ``offset``/``width`` place a mixture
    component's edges in the union edge space.
    """
    g = model.graph
    if width is None:
        width = g.num_edges
    if model.kind == MIXTURE:
        for c, comp in enumerate(model.components):
            yield from _outcome_chunks(comp, weight * float(model.component_weights[c]),
                                       offset + int(model.component_offsets[c]), width)
        return
    radices, choice_probs, edge_choice = _units(model)
    first = np.cumsum(radices) - radices
    total = math.prod(radices.tolist())
    for lo in range(0, total, _CHUNK):
        rows = min(_CHUNK, total - lo)
        used = (rows + 7) // 8
        # Bit r of row k is outcome lo + r taking flat choice k; the last two
        # rows are the never-live and always-live edges.
        bits = np.zeros((choice_probs.size + 2, -(-rows // 64) * 8), dtype=np.uint8)
        bits[-1, :used] = np.packbits(np.ones(rows, dtype=bool), bitorder="little")
        rest = np.arange(lo, lo + rows, dtype=np.int64)
        probs = np.ones(rows, dtype=np.float64)
        for j, radix in enumerate(radices.tolist()):
            rest, digit = np.divmod(rest, radix)
            choices = slice(first[j], first[j] + radix)
            probs *= choice_probs[choices][digit]
            bits[choices, :used] = np.packbits(np.arange(radix)[:, None] == digit,
                                               axis=1, bitorder="little")
        words = np.zeros((bits.shape[1] // 8, width), dtype=np.uint64)
        words[:, offset:offset + g.num_edges] = bits.view("<u8")[edge_choice].T
        yield words, rows, weight * probs


def _reach_values(mask: np.ndarray, probs: np.ndarray, w: np.ndarray):
    """Reach values of the rows of packed ``mask`` and their
    ``probs``-weighted sum."""
    values = unpack_rows(mask, probs.shape[0]) @ w
    return values, float(probs @ values)


def exact_report(model: DiffusionModel, seeds, tau: int,
                 compute_opt1: bool = True) -> ExactReport:
    """Exact influence, variance, and activation-step profile of ``seeds``."""
    g = model.graph
    seeds = as_seed_tuple(g.num_nodes, seeds)
    tau = int(tau)
    if tau < 0:
        raise ValueError("step limit must be nonnegative")
    size = _check_budget(model)
    w = g.node_weights
    influence = 0.0
    second = 0.0
    step_probs = np.zeros((tau + 1, g.num_nodes), dtype=np.float64)
    singles = np.zeros(g.num_nodes, dtype=np.float64)
    for words, rows, probs in _outcome_chunks(model):
        for d, (newly, active) in enumerate(propagation_steps(g, words, seeds, tau)):
            step_probs[d] += probs @ unpack_rows(newly, rows)
        values, value = _reach_values(active, probs, w)
        influence += value
        second += float(probs @ (values * values))
        if compute_opt1:
            for v in range(g.num_nodes):
                singles[v] += _reach_values(reach_mask_batch(g, words, (v,), tau), probs, w)[1]
    variance = max(second - influence * influence, 0.0)
    opt1 = float(singles.max()) if compute_opt1 else float("nan")
    step_probs.setflags(write=False)
    return ExactReport(influence, variance, step_probs, opt1, size, tau, seeds)


def c_value(model: DiffusionModel, tau: int) -> float:
    """Variance-bound scale: the ``c`` in Var <= c * I * max(I, opt1)."""
    tau = int(tau)
    if tau <= 0:
        raise ValueError("step limit must be positive")
    if model.kind in (IC, LT):
        return float(tau)
    if model.kind == BDEP:
        return float(2 * model.b * tau)
    if model.kind == MIXTURE:
        return float(tau + 1) / model.min_component_weight
    raise ValueError(f"unknown model kind {model.kind!r}")


def audit_variance_bound(model: DiffusionModel, seeds, tau: int, c: float) -> VarianceAudit:
    """Check Var[R(seeds)] <= c * I(seeds) * max(I(seeds), opt1) exactly."""
    report = exact_report(model, seeds, tau)
    lhs = report.variance
    rhs = float(c) * report.influence * max(report.influence, report.opt1)
    return VarianceAudit(lhs, rhs, lhs <= rhs * (1.0 + _HOLDS_SLACK), float(c),
                         report.influence, report.opt1)


def depth_profile(model: DiffusionModel, seeds, tau_max: int | None = None) -> DepthProfile:
    """Mean activation depth and the step-limited influence curve.

    ``tau_max`` defaults to ``n - 1`` (unrestricted diffusion).
    """
    if tau_max is None:
        tau_max = model.num_nodes - 1
    report = exact_report(model, seeds, int(tau_max), compute_opt1=False)
    w = model.graph.node_weights
    mass_by_depth = report.step_probs @ w
    influence_by_tau = np.cumsum(mass_by_depth)
    total = float(influence_by_tau[-1])
    if total > 0.0:
        mean_depth = float(np.arange(tau_max + 1) @ mass_by_depth) / total
    else:
        mean_depth = 0.0
    influence_by_tau.setflags(write=False)
    return DepthProfile(mean_depth, influence_by_tau)


def exact_influence_map(model: DiffusionModel, tau: int, max_size: int) -> dict:
    """Exact influence of every seed set of size <= ``max_size``.

    One enumeration pass shared by all subsets: per outcome the reach of a
    set is the union of its members' single-source reaches.
    """
    g = model.graph
    n = g.num_nodes
    tau = int(tau)
    _check_budget(model)
    subsets = []
    for size in range(1, min(int(max_size), n) + 1):
        subsets.extend(combinations(range(n), size))
    totals = dict.fromkeys(subsets, 0.0)
    w = g.node_weights
    for words, _, probs in _outcome_chunks(model):
        singles = [reach_mask_batch(g, words, (v,), tau) for v in range(n)]
        for subset in subsets:
            mask = singles[subset[0]]
            for v in subset[1:]:
                mask = mask | singles[v]
            totals[subset] += _reach_values(mask, probs, w)[1]
    return totals


class ExactInfluence:
    """Memoizing exact-influence set function, usable as an oracle."""

    def __init__(self, model: DiffusionModel, tau: int):
        self.model = model
        self.tau = int(tau)
        self._cache: dict[tuple[int, ...], float] = {}

    @property
    def num_nodes(self) -> int:
        return self.model.num_nodes

    def query(self, seeds) -> float:
        key = as_seed_tuple(self.num_nodes, seeds)
        if key not in self._cache:
            self._cache[key] = exact_report(self.model, key, self.tau,
                                            compute_opt1=False).influence
        return self._cache[key]

    def opt1(self) -> float:
        return max(self.query((v,)) for v in range(self.num_nodes))
