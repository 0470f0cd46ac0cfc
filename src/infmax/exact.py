"""Ground-truth influence analysis by weighted outcome enumeration.

On small instances every live-edge outcome can be enumerated with its
probability, which yields exact influence values, exact reachability
variance, per-step activation probabilities, and audits of the
variance-bound inequality.  Only probabilistic units count toward the
enumeration budget: edges pinned at probability 0 or 1 contribute no
outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .graph import Graph, as_seed_tuple
from .models import (IC, LT, BDEP, MIXTURE, DiffusionModel, propagation_steps,
                     reach_mask_batch)

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


def _random_edge_ids(graph: Graph) -> np.ndarray:
    p = graph.probs
    return np.flatnonzero((p > 0.0) & (p < 1.0))


def outcome_count(model: DiffusionModel) -> int:
    """Number of weighted outcomes full enumeration would visit."""
    g = model.graph
    if model.kind == IC:
        return 1 << _random_edge_ids(g).size
    if model.kind == BDEP:
        gids = np.unique(g.groups[g.groups >= 0])
        random_groups = sum(1 for gid in gids
                            if 0.0 < g.probs[np.flatnonzero(g.groups == gid)[0]] < 1.0)
        loose = np.flatnonzero(g.groups < 0)
        random_loose = int(np.count_nonzero((g.probs[loose] > 0.0) & (g.probs[loose] < 1.0)))
        return 1 << (random_groups + random_loose)
    if model.kind == LT:
        total = 1
        for v in range(g.num_nodes):
            indeg = g.in_edges(v).size
            if indeg:
                total *= indeg + 1
        return total
    if model.kind == MIXTURE:
        return sum(outcome_count(c) for c in model.components)
    raise ValueError(f"unknown model kind {model.kind!r}")


def _check_budget(model: DiffusionModel) -> int:
    size = outcome_count(model)
    if size > (1 << MAX_OUTCOME_BITS):
        raise EnumerationBudgetError("instance too large for exact enumeration")
    return size


def _bit_chunks(total: int):
    lo = 0
    while lo < total:
        hi = min(lo + _CHUNK, total)
        yield np.arange(lo, hi, dtype=np.int64)
        lo = hi


def _outcome_chunks(model: DiffusionModel, weight: float = 1.0, offset: int = 0,
                    width: int | None = None):
    """Yield ``(live, probs)`` chunks covering the outcome space.

    ``live`` is ``(rows, width)`` with ``width`` defaulting to the model's
    own edge count; ``offset``/``width`` let mixtures lift component
    outcomes into the union edge space.
    """
    g = model.graph
    m = g.num_edges
    if width is None:
        width = m
    if model.kind == MIXTURE:
        for c, comp in enumerate(model.components):
            yield from _outcome_chunks(comp, weight * float(model.component_weights[c]),
                                       offset + int(model.component_offsets[c]), width)
        return

    base = np.zeros(width, dtype=bool)
    if model.kind in (IC, BDEP):
        if model.kind == IC:
            unit_edges = [(np.array([e]), float(g.probs[e])) for e in _random_edge_ids(g)]
            fixed_live = np.flatnonzero(g.probs >= 1.0)
        else:
            unit_edges = []
            fixed = []
            for gid in np.unique(g.groups[g.groups >= 0]):
                members = np.flatnonzero(g.groups == gid)
                p = float(g.probs[members[0]])
                if 0.0 < p < 1.0:
                    unit_edges.append((members, p))
                elif p >= 1.0:
                    fixed.append(members)
            loose = np.flatnonzero(g.groups < 0)
            for e in loose:
                p = float(g.probs[e])
                if 0.0 < p < 1.0:
                    unit_edges.append((np.array([e]), p))
                elif p >= 1.0:
                    fixed.append(np.array([e]))
            fixed_live = np.concatenate(fixed) if fixed else np.empty(0, np.int64)
        base[offset + fixed_live] = True
        u = len(unit_edges)
        unit_p = np.array([p for _, p in unit_edges], dtype=np.float64)
        for idx in _bit_chunks(1 << u):
            rows = idx.shape[0]
            live = np.broadcast_to(base, (rows, width)).copy()
            probs = np.full(rows, weight, dtype=np.float64)
            if u:
                bits = ((idx[:, None] >> np.arange(u)) & 1).astype(bool)
                probs *= np.where(bits, unit_p, 1.0 - unit_p).prod(axis=1)
                for j, (members, _) in enumerate(unit_edges):
                    for e in members:
                        live[:, offset + e] = bits[:, j]
            yield live, probs
        return

    if model.kind == LT:
        choosers = []
        for v in range(g.num_nodes):
            edges = g.in_edges(v)
            if edges.size:
                p_in = g.probs[edges]
                none_p = max(0.0, 1.0 - float(p_in.sum()))
                choosers.append((edges, np.append(p_in, none_p)))
        radices = np.array([c[1].size for c in choosers], dtype=np.int64)
        total = int(np.prod(radices)) if choosers else 1
        places = np.ones(len(choosers), dtype=np.int64)
        for j in range(1, len(choosers)):
            places[j] = places[j - 1] * radices[j - 1]
        for idx in _bit_chunks(total):
            rows = idx.shape[0]
            live = np.broadcast_to(base, (rows, width)).copy()
            probs = np.full(rows, weight, dtype=np.float64)
            for j, (edges, branch_p) in enumerate(choosers):
                digit = (idx // places[j]) % radices[j]
                probs *= branch_p[digit]
                for slot, e in enumerate(edges):
                    live[:, offset + e] = digit == slot
            yield live, probs
        return

    raise ValueError(f"unknown model kind {model.kind!r}")


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
    for live, probs in _outcome_chunks(model):
        for d, (newly, active) in enumerate(propagation_steps(g, live, seeds, tau)):
            step_probs[d] += probs @ newly
        values = active @ w
        influence += float(probs @ values)
        second += float(probs @ (values * values))
        if compute_opt1:
            for v in range(g.num_nodes):
                mask = reach_mask_batch(g, live, (v,), tau)
                singles[v] += float(probs @ (mask @ w))
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
    for live, probs in _outcome_chunks(model):
        singles = [reach_mask_batch(g, live, (v,), tau) for v in range(n)]
        for subset in subsets:
            mask = singles[subset[0]]
            for v in subset[1:]:
                mask = mask | singles[v]
            totals[subset] += float(probs @ (mask @ w))
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
