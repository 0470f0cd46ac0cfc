"""Ground-truth influence analysis by weighted outcome enumeration.

On small instances every live-edge outcome can be enumerated with its
probability, which yields exact influence values, exact reachability
variance, per-step activation probabilities, and audits of the
variance-bound inequality.  Only probabilistic units count toward the
enumeration budget: edges pinned at probability 0 or 1 contribute no
outcomes.  A seed set's reach within ``tau`` steps depends only on the
edges whose tail lies within ``tau - 1`` steps of the set, so each query
walks only the units of those edges; every other unit sums out.  The sets
that share those edges are valued together: each chunk of their outcomes
propagates them a block of sets at a time, tiled along the word axis
(:func:`~infmax.models.set_reaches`).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import weakref
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .graph import as_seed_tuple
from .models import (IC, LT, BDEP, MIXTURE, DiffusionModel, ball, ball_edges,
                     propagation_steps, row_values, set_reaches, unpack_columns)

MAX_OUTCOME_BITS = 25
_CHUNK = 1 << 16
_HOLDS_SLACK = 1e-9
# Largest (tau + 1) x n float64 step profile an exact report allocates: 1 GiB,
# so depth_profile's default tau = n - 1 runs up to 11,585 nodes.
_STEP_PROFILE_BYTES = 1 << 30


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
    return sum(math.prod(part._units[0].tolist()) for part, _, _ in model.parts)


def _budgeted_count(model: DiffusionModel) -> int:
    """The model's :func:`outcome_count`, checked against the budget."""
    size = outcome_count(model)
    if size > (1 << MAX_OUTCOME_BITS):
        raise EnumerationBudgetError("instance too large for exact enumeration")
    return size


def _ball_units(units, relevant: np.ndarray):
    """The unit table ``units`` (:attr:`DiffusionModel._units`) restricted
    to its units with a ``relevant`` edge, in the same layout.

    A kept unit keeps, in order, each choice that makes a relevant edge
    live; its other choices (IC and BDEP "dead", LT "none" and in-edges
    that are not relevant) merge into one, at the place of the last of
    them, with their probabilities summed in choice order.  Every edge that
    is not relevant is pinned never-live.  So a group is kept or dropped
    whole, and with every edge relevant the table is ``units`` itself.
    """
    if relevant.all():
        return units
    radices, choice_probs, edge_choice = units
    total = choice_probs.size
    made = set(edge_choice[relevant].tolist())
    firsts = list(itertools.accumulate(radices.tolist(), initial=0))
    probs = choice_probs.tolist()
    index = [0] * (total + 2)
    kept_radices, kept_probs = [], []
    for u in sorted({bisect.bisect_right(firsts, c) - 1 for c in made if c < total}):
        choices = range(firsts[u], firsts[u + 1])
        free = [c for c in choices if c not in made]
        merged = 0.0
        for c in free:
            merged += probs[c]
        for c in choices:
            if c in made:
                index[c] = len(kept_probs)
                kept_probs.append(probs[c])
            elif c == free[-1]:
                kept_probs.append(merged)
        kept_radices.append(len(choices) - len(free) + 1)
    count = len(kept_probs)
    index[total:] = count, count + 1
    return (np.array(kept_radices, dtype=np.int64), np.array(kept_probs, dtype=np.float64),
            np.where(relevant, np.array(index)[edge_choice], count))


def _outcome_chunks(model: DiffusionModel, relevant: np.ndarray):
    """Iterator of ``(words, rows, probs)`` chunks covering the outcome space
    of the units of ``model``'s parts (:attr:`DiffusionModel.parts`) that
    ``relevant`` edges belong to (:func:`_ball_units`); the others sum out.

    A chunk holds ``rows`` consecutive outcomes of one part (the model or a
    mixture component): their packed ``(m, ceil(rows / 64))`` live edges
    (:func:`pack_rows`) and probabilities.  A part's outcome index is
    mixed-radix over its restricted units, unit 0 least significant; its
    probability is the part's weight times its choice probabilities,
    multiplied in unit order.  With every edge relevant the chunks cover
    the whole outcome space of the parts' unit tables.
    """
    for part, weight, offset in model.parts:
        m = part.graph.num_edges
        yield from _part_chunks(*_ball_units(part._units, relevant[offset:offset + m]),
                                weight, offset, m, relevant.size)


def _part_chunks(radices, choice_probs, edge_choice, weight, offset, m, width):
    """Chunks of one part, whose ``m`` edges sit at ``offset`` of ``width``.

    Unit ``j`` has stride ``s``, the product of the radices below it, and
    radix ``r``: outcome ``o`` gives it choice ``o // s % r``, a pattern
    that repeats every ``s * r`` outcomes, so its choice words repeat too
    (:class:`_ChoiceWords`).  The units whose period fits in a chunk give
    outcome ``o`` entry ``o % period`` of their Kronecker product, built
    once: each factor multiplies on in unit order, so every entry has the
    bits of the sequential product ``1.0 * p0 * p1 ...``, and only the
    units above multiply row by row.
    """
    radices = radices.tolist()
    strides, firsts = [], [0]
    total = 1
    for r in radices:
        strides.append(total)
        firsts.append(firsts[-1] + r)
        total *= r
    fit = sum(s * r <= _CHUNK for s, r in zip(strides, radices))
    head = np.ones(1)
    for j in range(fit):
        head = np.multiply.outer(choice_probs[firsts[j]:firsts[j + 1]], head).ravel()
    choice_words = _ChoiceWords(radices, strides, firsts)
    for lo in range(0, total, _CHUNK):
        rows = min(_CHUNK, total - lo)
        probs = head
        if fit < len(radices):
            phase = lo % head.size
            probs = np.tile(head, -(-(phase + rows) // head.size))[phase:phase + rows]
            at = np.arange(lo, lo + rows, dtype=np.int64)
            for j in range(fit, len(radices)):
                probs *= choice_probs[firsts[j]:firsts[j + 1]][at // strides[j] % radices[j]]
        words = np.zeros((width, -(-rows // 64)), dtype=np.uint64)
        words[offset:offset + m] = choice_words(lo, rows)[edge_choice]
        yield words, rows, weight * probs


_ONES = ~np.uint64(0)


def _choice_terms(strides, radices) -> np.ndarray:
    """``(stride, radix, choice)`` columns, one row per choice of each unit,
    shaped to broadcast against outcome or word indices."""
    return np.array([(s, r, c) for s, r in zip(strides, radices) for c in range(r)],
                    dtype=np.int64).reshape(-1, 3).T[:, :, None]


@functools.lru_cache(maxsize=256)
def _low_period(radices: tuple[int, ...], phase: int, count: int) -> np.ndarray:
    """``(sum(radices), count)`` packed choice rows of units with these
    radices, unit 0 least significant, from outcome ``phase`` on."""
    strides = itertools.accumulate(radices[:-1], operator.mul, initial=1)
    stride, radix, choice = _choice_terms(strides, radices)
    at = np.arange(phase, phase + 64 * count, dtype=np.int64)
    words = np.packbits(at // stride % radix == choice, axis=1, bitorder="little").view("<u8")
    words.setflags(write=False)
    return words


class _ChoiceWords:
    """Packed choice rows of one part's units, a chunk at a time.

    Called with a chunk's first outcome ``lo`` and its ``rows``, it returns
    ``(choices + 2, ceil(rows / 64))`` words: bit ``b`` of word ``w`` in
    row ``k`` is set when outcome ``lo + 64 w + b`` takes flat choice ``k``,
    choice ``c`` of a unit with stride ``s`` and radix ``r`` when
    ``o // s % r == c``; the last two rows are the never-live and
    always-live edges, and the padding bits past ``rows`` are zero.

    Strides grow with the unit.  The units with stride below 64 repeat
    their choices together every ``period`` outcomes, the least common
    multiple of their radices' product and 64, so one period of them
    (:func:`_low_period`, cached) is tiled.  A unit with a larger stride
    changes its digit at most once per word, so each of its words is the
    word's first digit up to one boundary and the next digit after it.
    """

    def __init__(self, radices, strides, firsts):
        low = sum(s < 64 for s in strides)
        self.low_radices = tuple(radices[:low])
        self.period = math.lcm(math.prod(self.low_radices), 64)
        self.split = firsts[low]
        self.size = firsts[-1] + 2
        self.high_terms = _choice_terms(strides[low:], radices[low:])
        self.whole_words = not any(s % 64 for s in strides[low:])

    def __call__(self, lo: int, rows: int) -> np.ndarray:
        count = -(-rows // 64)
        span = min(self.period // 64, count)
        # Room for whole periods; the words past count are dropped.
        bits = np.empty((self.size, -(-count // span) * span), dtype=np.uint64)
        if self.split:
            period = _low_period(self.low_radices, lo % self.period, span)
            bits[:self.split].reshape(self.split, -1, span)[...] = period[:, None]
        if self.split < self.size - 2:
            stride, radix, choice = self.high_terms
            starts = np.arange(lo, lo + 64 * count, 64, dtype=np.int64)
            digit = starts // stride
            high = np.where(digit % radix == choice, _ONES, np.uint64(0))
            if lo % 64 or not self.whole_words:
                # A digit boundary may fall inside a word.  These are the
                # bits before each word's next digit; a shift by 64 or more
                # gives 0, so a word with no boundary keeps every bit.
                first = ~(_ONES << ((digit + 1) * stride - starts).astype(np.uint64))
                high &= first
                high |= np.where((digit + 1) % radix == choice, ~first, np.uint64(0))
            bits[self.split:-2, :count] = high
        bits[-2] = 0
        bits[-1] = _ONES
        if rows % 64:
            bits[:, count - 1] &= np.uint64((1 << (rows % 64)) - 1)
        return bits[:, :count]


def exact_values(model: DiffusionModel, tau: int, seed_sets) -> np.ndarray:
    """Exact influence of each of ``seed_sets``.  Sets are grouped by the
    edges their ``tau``-ball can fire (:func:`ball_edges`), and each group
    is valued in one pass over its restricted outcome space, each chunk's
    masks from one :func:`set_reaches` over the group's ids.  A set's total
    is summed chunk by chunk in chunk order, the same arithmetic as
    :func:`exact_report`'s ``influence``, so it depends only on the model,
    ``tau`` and the set.  The budget is checked before ``seed_sets`` is
    read."""
    g = model.graph
    tau = int(tau)
    if tau < 0:
        raise ValueError("step limit must be nonnegative")
    _budgeted_count(model)
    sets = [as_seed_tuple(g.num_nodes, seeds) for seeds in seed_sets]
    balls: dict[bytes, tuple[np.ndarray, list[int]]] = {}
    for i, s in enumerate(sets):
        relevant = ball_edges(model, tau, s)
        balls.setdefault(relevant.tobytes(), (relevant, []))[1].append(i)
    totals = np.zeros(len(sets), dtype=np.float64)
    for relevant, members in balls.values():
        # Pad each set to the group's largest size by repeating its first
        # member, which starts no new bit, so every reach is unchanged.
        k = max(len(sets[i]) for i in members)
        ids = np.array([sets[i] + sets[i][:1] * (k - len(sets[i])) for i in members],
                       dtype=np.int64)
        for words, rows, probs in _outcome_chunks(model, relevant):
            totals[members] += [np.einsum("r,r->", probs, row_values(g, mask, rows))
                                for masks in set_reaches(g, words, tau, ids) for mask in masks]
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
    """Exact influence, variance, and activation-step profile of ``seeds``.

    Step ``d`` can first activate only the nodes whose ``p > 0`` distance
    from ``seeds`` (:func:`ball`) is ``1 .. d``, and step 0 only the seeds,
    so each step reduces only those columns and the values only the ball's
    nodes; every column left out is zero in every row, so no sum changes.
    """
    g = model.graph
    n = g.num_nodes
    seeds = as_seed_tuple(n, seeds)
    tau = int(tau)
    if tau < 0:
        raise ValueError("step limit must be nonnegative")
    if (tau + 1) * n * 8 > _STEP_PROFILE_BYTES:
        raise ValueError(f"step limit {tau} needs a {(tau + 1) * n * 8}-byte step profile, "
                         f"over the {_STEP_PROFILE_BYTES}-byte budget")
    size = _budgeted_count(model)
    distance, relevant = ball(model, tau, seeds)
    # Nodes by distance: ends[d] of them lie within d steps, for every step
    # 0 .. n - 1.  Step d adds its sums into the step profile's columns of
    # the nodes at distance 1 .. d (step 0: the seeds).  No node first
    # activates after step n - 1.
    by_distance = np.argsort(distance, kind="stable")
    ends = np.cumsum(np.bincount(distance, minlength=n)).tolist()
    step_probs = np.zeros((tau + 1, n), dtype=np.float64)
    near = np.flatnonzero(distance < n)
    walked = 0
    influence = 0.0
    second = 0.0
    for words, rows, probs in _outcome_chunks(model, relevant):
        walked += rows
        for d, (newly, active) in enumerate(propagation_steps(g, words, seeds, tau)):
            columns = by_distance[ends[0] if d else 0:ends[d]]
            step_probs[d, columns] += np.einsum(
                "vr,r->v", unpack_columns(newly, rows, columns), probs)
        values = row_values(g, active, rows, near)
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

    ``tau_max`` defaults to ``n - 1`` (unrestricted diffusion), which the
    step-profile budget of :func:`exact_report` admits up to 11,585 nodes.
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
