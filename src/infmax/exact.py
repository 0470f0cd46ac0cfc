"""Ground-truth influence analysis by weighted outcome enumeration.

On small instances every live-edge outcome can be enumerated with its
probability, which yields exact influence values, exact reachability
variance, per-step activation probabilities, and audits of the
variance-bound inequality.  Only probabilistic units count toward the
enumeration budget: edges pinned at probability 0 or 1 contribute no
outcomes.  A seed set's reach within ``tau`` steps depends only on the
edges whose tail lies within ``tau - 1`` steps of the set, so each query
walks only the units of those edges; every other unit sums out.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .estimators import _SCORE_BLOCK_BYTES
from .graph import Graph, as_seed_tuple
from .models import (IC, LT, BDEP, MIXTURE, DiffusionModel, _units, ball_edges,
                     propagation_steps, reach_table, row_values, set_reaches, unpack_columns)

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
    ``enumeration_size`` is the model's whole outcome count
    (:func:`outcome_count`); ``outcomes_enumerated`` counts the outcomes
    actually walked, those of the units that the seeds' ``tau``-ball can
    fire.  ``opt1`` is the largest exact single-node influence at the same
    step limit: :func:`opt1` of the report's model, computed on first
    read and memoized per ``(model, tau)`` for the model's lifetime.
    """
    influence: float
    variance: float
    step_probs: np.ndarray
    enumeration_size: int
    outcomes_enumerated: int
    tau: int
    seeds: tuple[int, ...]
    model: DiffusionModel = field(repr=False)

    @property
    def opt1(self) -> float:
        return opt1(self.model, self.tau)


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


def outcome_count(model: DiffusionModel) -> int:
    """Number of weighted outcomes full enumeration would visit."""
    if model.kind == MIXTURE:
        return sum(outcome_count(c) for c in model.components)
    return math.prod(_units(model)[0].tolist())


def _parts(model: DiffusionModel):
    """``(parts, size)``: the ``(part, units, weight, offset)`` of the
    model, or of each mixture component, with its :func:`_units` table read
    once per call, and the whole model's :func:`outcome_count`, checked
    against the budget."""
    parts = [(model, 1.0, 0)]
    if model.kind == MIXTURE:
        parts = zip(model.components, model.component_weights.tolist(),
                    model.component_offsets.tolist())
    parts = [(part, _units(part), weight, offset) for part, weight, offset in parts]
    size = sum(math.prod(units[0].tolist()) for _, units, _, _ in parts)
    if size > (1 << MAX_OUTCOME_BITS):
        raise EnumerationBudgetError("instance too large for exact enumeration")
    return parts, size


def _ball_units(units, relevant: np.ndarray):
    """The :func:`_units` table ``units`` restricted to its units with a
    ``relevant`` edge, in the same layout.

    A kept unit keeps, in order, each choice that makes a relevant edge
    live; its other choices (IC and BDEP "dead", LT "none" and in-edges
    that are not relevant) merge into one, at the place of the last of
    them, with their probabilities summed in choice order.  Every edge that
    is not relevant is pinned never-live.  So a group is kept or dropped
    whole, and with every edge relevant the table is ``units`` itself.
    """
    radices, choice_probs, edge_choice = units
    total = choice_probs.size
    unit = np.repeat(np.arange(radices.size), radices)
    made = np.zeros(total + 2, dtype=bool)
    made[edge_choice[relevant]] = True
    made = made[:total]
    kept = np.zeros(radices.size, dtype=bool)
    kept[unit[made]] = True
    # Every unit has a choice that makes no relevant edge live; the last
    # one stands for all of them.
    free = np.flatnonzero(~made)
    last = np.ones(free.size, dtype=bool)
    last[:-1] = unit[free[1:]] != unit[free[:-1]]
    stays = made.copy()
    stays[free[last]] = True
    stays &= kept[unit]
    merged = np.bincount(unit[free], weights=choice_probs[free], minlength=radices.size)
    count = int(stays.sum())
    index = np.append(np.cumsum(stays) - 1, [count, count + 1])
    return (np.bincount(unit[stays], minlength=radices.size)[kept],
            np.where(made, choice_probs, merged[unit])[stays],
            np.where(relevant, index[edge_choice], count))


def _outcome_chunks(parts, relevant: np.ndarray):
    """Iterator of ``(words, rows, probs)`` chunks covering the outcome space
    of the units of ``parts`` (from :func:`_parts`) that ``relevant`` edges
    belong to (:func:`_ball_units`); the others sum out.

    A chunk holds ``rows`` consecutive outcomes of one part (the model or a
    mixture component): their packed ``(ceil(rows / 64), m)`` live edges
    (:func:`pack_rows` layout) and probabilities.  A part's outcome index is
    mixed-radix over its restricted units, unit 0 least significant; its
    probability is the part's weight times its choice probabilities,
    multiplied in unit order.  With every edge relevant the chunks cover
    the whole outcome space of :func:`_units`.
    """
    for part, units, weight, offset in parts:
        m = part.graph.num_edges
        yield from _part_chunks(*_ball_units(units, relevant[offset:offset + m]),
                                weight, offset, m, relevant.size)


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
            # Floor division by a scalar is several times faster than np.divmod.
            quotient = rest // radix
            digit = rest - quotient * radix
            rest = quotient
            choices = slice(first[j], first[j] + radix)
            probs *= choice_probs[choices][digit]
            bits[choices, :used] = np.packbits(np.arange(radix)[:, None] == digit,
                                               axis=1, bitorder="little")
        words = np.zeros((bits.shape[1] // 8, width), dtype=np.uint64)
        words[:, offset:offset + m] = bits.view("<u8")[edge_choice].T
        yield words, rows, weight * probs


def _chunk_set_values(g: Graph, words: np.ndarray, rows: int, probs: np.ndarray,
                      tau: int, ids: np.ndarray) -> np.ndarray:
    """``probs``-weighted reach value over one chunk of each seed set in the
    rows of ``ids``, from the chunk's :func:`reach_table` of the sets'
    members, whose unions are formed a ``_SCORE_BLOCK_BYTES`` block of sets
    at a time."""
    members, at = np.unique(ids, return_inverse=True)
    table = reach_table(g, words, tau, members)
    if table is not None:
        ids = at.reshape(ids.shape)
    block = max(1, _SCORE_BLOCK_BYTES // (words.shape[0] * max(g.num_nodes, 1) * 8))
    return np.array([np.einsum("r,r->", probs, row_values(g, mask, rows))
                     for lo in range(0, len(ids), block)
                     for mask in set_reaches(g, words, tau, ids[lo:lo + block], table)])


def exact_values(model: DiffusionModel, tau: int, seed_sets) -> np.ndarray:
    """Exact influence of each of ``seed_sets``.  Sets are grouped by the
    edges their ``tau``-ball can fire (:func:`ball_edges`), and each group
    is valued in one pass over its restricted outcome space.  A set's total
    is summed chunk by chunk in chunk order, the same arithmetic as
    :func:`exact_report`'s ``influence``, so it depends only on the model,
    ``tau`` and the set.  The budget is checked before ``seed_sets`` is
    read."""
    g = model.graph
    tau = int(tau)
    if tau < 0:
        raise ValueError("step limit must be nonnegative")
    parts, _ = _parts(model)
    sets = [as_seed_tuple(g.num_nodes, seeds) for seeds in seed_sets]
    balls: dict[bytes, tuple[np.ndarray, list[int]]] = {}
    for i, s in enumerate(sets):
        relevant = ball_edges(model, tau, s)
        balls.setdefault(relevant.tobytes(), (relevant, []))[1].append(i)
    totals = np.zeros(len(sets), dtype=np.float64)
    for relevant, members in balls.values():
        # Pad each set to the group's largest size by repeating its first
        # member; OR is idempotent, so the padding leaves every reach unchanged.
        k = max(len(sets[i]) for i in members)
        ids = np.array([sets[i] + sets[i][:1] * (k - len(sets[i])) for i in members],
                       dtype=np.int64)
        for words, rows, probs in _outcome_chunks(parts, relevant):
            totals[members] += _chunk_set_values(g, words, rows, probs, tau, ids)
    return totals


# Each model's opt1 by step limit; an entry goes when its model does.
_OPT1_MEMO: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def opt1(model: DiffusionModel, tau: int) -> float:
    """Largest exact single-node influence within ``tau`` steps, from one
    :func:`exact_values` pass over all singles on the first call for
    ``(model, tau)`` and from the model's memo after that."""
    tau = int(tau)
    memo = _OPT1_MEMO.setdefault(model, {})
    if tau not in memo:
        singles = [(v,) for v in range(model.num_nodes)]
        memo[tau] = float(exact_values(model, tau, singles).max())
    return memo[tau]


def exact_report(model: DiffusionModel, seeds, tau: int) -> ExactReport:
    """Exact influence, variance, and activation-step profile of ``seeds``."""
    g = model.graph
    seeds = as_seed_tuple(g.num_nodes, seeds)
    tau = int(tau)
    if tau < 0:
        raise ValueError("step limit must be nonnegative")
    parts, size = _parts(model)
    walked = 0
    influence = 0.0
    second = 0.0
    step_probs = np.zeros((tau + 1, g.num_nodes), dtype=np.float64)
    for words, rows, probs in _outcome_chunks(parts, ball_edges(model, tau, seeds)):
        walked += rows
        for d, (newly, active) in enumerate(propagation_steps(g, words, seeds, tau)):
            step_probs[d] += np.einsum("vr,r->v", unpack_columns(newly, rows), probs)
        values = row_values(g, active, rows)
        influence += float(np.einsum("r,r->", probs, values))
        second += float(np.einsum("r,r->", probs, values * values))
    variance = max(second - influence * influence, 0.0)
    step_probs.setflags(write=False)
    return ExactReport(influence, variance, step_probs, size, walked, tau,
                       seeds, model)


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
    report = exact_report(model, seeds, int(tau_max))
    w = model.graph.node_weights
    mass_by_depth = np.einsum("dv,v->d", report.step_probs, w)
    influence_by_tau = np.cumsum(mass_by_depth)
    total = float(influence_by_tau[-1])
    if total > 0.0:
        mean_depth = float(np.einsum("d,d->", np.arange(tau_max + 1), mass_by_depth)) / total
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
    """Exact-influence set function, usable as an oracle.  It keeps no
    values: each :meth:`query_many` call is one :func:`exact_values` pass."""

    def __init__(self, model: DiffusionModel, tau: int):
        self.model = model
        self.tau = int(tau)

    @property
    def num_nodes(self) -> int:
        return self.model.num_nodes

    def query_many(self, seed_sets) -> np.ndarray:
        """Exact influence of each of ``seed_sets``, from one pass."""
        return exact_values(self.model, self.tau, seed_sets)

    def query(self, seeds) -> float:
        return float(self.query_many([seeds])[0])

    def opt1(self) -> float:
        return opt1(self.model, self.tau)
