"""Ground-truth influence analysis by weighted outcome enumeration.

On small instances every live-edge outcome can be enumerated with its
probability, which yields exact influence values, exact reachability
variance, per-step activation probabilities, and audits of the
variance-bound inequality.  Only probabilistic units count toward the
enumeration budget: edges pinned at probability 0 or 1 contribute no
outcomes.
"""

from __future__ import annotations

import functools
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


def _outcome_chunks(model: DiffusionModel):
    """Iterator of ``(words, rows, probs)`` chunks covering the outcome space.

    A chunk holds ``rows`` consecutive outcomes of one part (the model or a
    mixture component): their packed ``(ceil(rows / 64), m)`` live edges
    (:func:`pack_rows` layout) and probabilities.  A part's outcome index is
    mixed-radix over its :func:`_units`, unit 0 least significant; its
    probability is the part's weight times its choice probabilities,
    multiplied in unit order.  This call builds each unit table once and
    checks the budget, before any chunk is built.
    """
    parts = [(model, 1.0, 0)]
    if model.kind == MIXTURE:
        parts = zip(model.components, model.component_weights.tolist(),
                    model.component_offsets.tolist())
    parts = [(_units(part), part.graph.num_edges, weight, offset)
             for part, weight, offset in parts]
    if sum(math.prod(units[0].tolist()) for units, *_ in parts) > (1 << MAX_OUTCOME_BITS):
        raise EnumerationBudgetError("instance too large for exact enumeration")
    return (chunk for units, m, weight, offset in parts
            for chunk in _part_chunks(*units, weight, offset, m, model.graph.num_edges))


def _part_chunks(radices, choice_probs, edge_choice, weight, offset, m, width):
    """Chunks of one part, whose ``m`` edges sit at ``offset`` of ``width``."""
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
        words[:, offset:offset + m] = bits.view("<u8")[edge_choice].T
        yield words, rows, weight * probs


def _chunk_set_values(g: Graph, words: np.ndarray, rows: int, probs: np.ndarray,
                      tau: int, seed_sets) -> np.ndarray:
    """``probs``-weighted reach value of each of ``seed_sets`` over one chunk:
    a set's reach is the union of its members' single-source reaches, each
    propagated once per chunk however many sets it belongs to."""
    last_use = {v: i for i, members in enumerate(seed_sets) for v in members}
    reach, values = {}, []
    for i, members in enumerate(seed_sets):
        reach.update((v, reach_mask_batch(g, words, (v,), tau)) for v in members if v not in reach)
        # Drop each reach after its last use, so n singles hold one at a time.
        mask = functools.reduce(np.bitwise_or, [reach.pop(v) if last_use[v] == i else reach[v]
                                                for v in members])
        values.append(probs @ (unpack_rows(mask, rows) @ g.node_weights))
    return np.array(values)


def exact_values(model: DiffusionModel, tau: int, seed_sets) -> np.ndarray:
    """Exact influence of each of ``seed_sets``, all from one enumeration
    pass.  Totals are summed chunk by chunk in chunk order, the same
    arithmetic as :func:`exact_report`'s ``influence``.  The budget is
    checked before ``seed_sets`` is read."""
    g = model.graph
    tau = int(tau)
    if tau < 0:
        raise ValueError("step limit must be nonnegative")
    chunks = _outcome_chunks(model)
    seed_sets = [as_seed_tuple(g.num_nodes, seeds) for seeds in seed_sets]
    totals = np.zeros(len(seed_sets), dtype=np.float64)
    for words, rows, probs in chunks:
        totals += _chunk_set_values(g, words, rows, probs, tau, seed_sets)
    return totals


def exact_report(model: DiffusionModel, seeds, tau: int,
                 compute_opt1: bool = True) -> ExactReport:
    """Exact influence, variance, and activation-step profile of ``seeds``."""
    g = model.graph
    seeds = as_seed_tuple(g.num_nodes, seeds)
    tau = int(tau)
    if tau < 0:
        raise ValueError("step limit must be nonnegative")
    singles = [(v,) for v in range(g.num_nodes)] if compute_opt1 else []
    size = 0
    influence = 0.0
    second = 0.0
    step_probs = np.zeros((tau + 1, g.num_nodes), dtype=np.float64)
    single_totals = np.zeros(len(singles), dtype=np.float64)
    for words, rows, probs in _outcome_chunks(model):
        size += rows
        for d, (newly, active) in enumerate(propagation_steps(g, words, seeds, tau)):
            step_probs[d] += probs @ unpack_rows(newly, rows)
        values = unpack_rows(active, rows) @ g.node_weights
        influence += float(probs @ values)
        second += float(probs @ (values * values))
        single_totals += _chunk_set_values(g, words, rows, probs, tau, singles)
    variance = max(second - influence * influence, 0.0)
    opt1 = float(single_totals.max()) if compute_opt1 else float("nan")
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
    c = float(c)
    if not (math.isfinite(c) and c > 0.0):
        raise ValueError("variance-bound scale c must be finite and positive")
    report = exact_report(model, seeds, tau)
    lhs = report.variance
    rhs = c * report.influence * max(report.influence, report.opt1)
    return VarianceAudit(lhs, rhs, lhs <= rhs * (1.0 + _HOLDS_SLACK), c,
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
    """Exact influence of every seed set of size <= ``max_size``, from one
    :func:`exact_values` pass."""
    n = model.num_nodes
    sizes = range(1, min(int(max_size), n) + 1)
    # Listed lazily, so an over-budget model fails before any subset is made.
    values = exact_values(model, tau, (s for k in sizes for s in combinations(range(n), k)))
    return dict(zip((s for k in sizes for s in combinations(range(n), k)), values.tolist()))


class ExactInfluence:
    """Memoizing exact-influence set function, usable as an oracle."""

    def __init__(self, model: DiffusionModel, tau: int):
        self.model = model
        self.tau = int(tau)
        self._cache: dict[tuple[int, ...], float] = {}

    @property
    def num_nodes(self) -> int:
        return self.model.num_nodes

    def query_many(self, seed_sets) -> np.ndarray:
        """Exact influence of each of ``seed_sets``; the sets not memoized
        yet are valued together in one :func:`exact_values` pass."""
        keys = [as_seed_tuple(self.num_nodes, seeds) for seeds in seed_sets]
        new = [key for key in dict.fromkeys(keys) if key not in self._cache]
        if new:
            self._cache.update(zip(new, exact_values(self.model, self.tau, new).tolist()))
        return np.array([self._cache[key] for key in keys], dtype=np.float64)

    def query(self, seeds) -> float:
        return float(self.query_many([seeds])[0])

    def opt1(self) -> float:
        return float(self.query_many([(v,) for v in range(self.num_nodes)]).max())
