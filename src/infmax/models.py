"""Diffusion model families and live-edge simulation sampling.

Four model kinds share one live-edge representation:

* ``ic``      -- every edge live independently with its probability.
* ``lt``      -- threshold dynamics in live-edge form: each node keeps at
                 most one incoming edge, edge ``(u, v)`` with probability
                 equal to its weight, no edge with the leftover mass.
* ``bdep``    -- grouped edges (at most ``b`` per group, shared tail) are
                 all live or all dead together; ungrouped edges behave as
                 in ``ic``.
* ``mixture`` -- draw one component model by weight, then sample it.

A :class:`Simulation` is one i.i.d. draw: a boolean live mask over the
model's edge list plus the ``(master_seed, sim_index)`` that produced it.
Sampling follows stream layout 2 (see :mod:`infmax.rng`): simulation
``sim_index`` is row ``sim_index`` of a PCG64 block stream, one uniform
per random unit of the model's :func:`_units` table, the same table exact
enumeration walks.  Edges at p = 0 or 1 read no draw, and a mixture draws
its component plus one block as wide as its widest component.  So any
one simulation is regenerated in isolation as a block of one row.  Every
draw is vectorized over rows and units, and :func:`sample_pool` fills a
pool in 64-aligned blocks of rows that its workers draw and pack straight
into ``uint64`` words, so a pool is held packed from the start.
Reachability within ``tau`` steps of one simulation is a scalar BFS over
its live edges (:func:`reach_set`, :func:`reverse_reach_set`), kept as the
reference.  Stacks of simulations propagate bit-parallel: they are packed
64 to a ``uint64`` word (:func:`pack_rows`), and one step of the batched
kernel (:func:`propagation_steps`) advances all of them at once.  The
kernel starts from one seed set shared by every row or from a packed start
mask with its own start nodes per row (:func:`start_mask`), and runs
forward along edges or, for reverse searches, backward.
"""

from __future__ import annotations

import ctypes
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .graph import Graph, as_seed_tuple, read_edge_list, write_edge_list
from . import rng


def _pin_heap_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds at 4 MB; a no-op where the C
    library has no ``mallopt``.

    The sampler, the kernel and the pool reduction allocate and free
    temporaries of up to a few MB per block.  glibc's own thresholds start
    at 128 kB and rise only when a large mapped block is freed, so until
    some earlier code has freed one, each such temporary is mapped or
    trimmed away at every block and faulted in again.  The speed of a loop
    then depended on what the process had allocated before it: on a 2-core
    Xeon VM perfbench ``maximize`` ran at about 95 or 127 ops/s on the same
    code, and brute force took 3,400 page faults per call in the slow state.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    mallopt(m_mmap_threshold, 4 << 20)
    mallopt(m_trim_threshold, 4 << 20)


_pin_heap_thresholds()

IC = "ic"
LT = "lt"
BDEP = "bdep"
MIXTURE = "mixture"

_WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Simulation:
    """One draw of concurrently live edges.

    ``live`` indexes the owning model's edge list.  Identical
    ``(master_seed, sim_index)`` always reproduce identical live edges.
    """
    live: np.ndarray
    master_seed: int
    sim_index: int
    component: int | None = None

    def live_edge_ids(self) -> np.ndarray:
        return np.flatnonzero(self.live)


@dataclass(frozen=True, eq=False)
class DiffusionModel:
    """A tagged model family owning a graph (the edge union, for mixtures)."""
    kind: str
    graph: Graph
    b: int | None = None
    components: tuple["DiffusionModel", ...] = ()
    component_weights: np.ndarray | None = None
    component_offsets: np.ndarray | None = None

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def min_component_weight(self) -> float:
        if self.kind != MIXTURE:
            raise ValueError("min_component_weight is defined for mixtures only")
        return float(self.component_weights.min())

    @cached_property
    def _draw_plan(self):
        return _build_draw_plan(self)

    @cached_property
    def _marginal_edge_model(self) -> "DiffusionModel":
        g = self.graph
        return ic_model(Graph(g.num_nodes, g.tails, g.heads, self.marginal_edge_probs,
                              np.full(g.num_edges, -1, dtype=np.int64),
                              g.node_weights))

    @cached_property
    def marginal_edge_probs(self) -> np.ndarray:
        """Per-edge marginal live probability, dependence ignored."""
        if self.kind == MIXTURE:
            probs = np.array(self.graph.probs, dtype=np.float64)
            for c, (off, comp) in enumerate(zip(self.component_offsets, self.components)):
                m = comp.graph.num_edges
                probs[off:off + m] *= self.component_weights[c]
            return probs
        return np.array(self.graph.probs, dtype=np.float64)


def ic_model(graph: Graph) -> DiffusionModel:
    if np.any(graph.groups >= 0):
        raise ValueError("independent-cascade models take ungrouped edges only")
    return DiffusionModel(IC, graph)


def lt_model(graph: Graph) -> DiffusionModel:
    """Threshold model; edge probabilities are the incoming weights."""
    if np.any(graph.groups >= 0):
        raise ValueError("threshold models take ungrouped edges only")
    if graph.num_edges:
        sums = np.bincount(graph.heads, weights=graph.probs, minlength=graph.num_nodes)
        if sums.max() > 1.0 + _WEIGHT_SUM_TOL:
            raise ValueError("incoming weights must sum to at most 1 per node")
    return DiffusionModel(LT, graph)


def bdep_model(graph: Graph, b: int) -> DiffusionModel:
    if int(b) < 1:
        raise ValueError("group size bound must be at least 1")
    b = int(b)
    for gid in np.unique(graph.groups[graph.groups >= 0]):
        size = int(np.count_nonzero(graph.groups == gid))
        if size > b:
            raise ValueError(f"group {gid} has {size} edges, bound is {b}")
    return DiffusionModel(BDEP, graph, b=b)


def mixture_model(components) -> DiffusionModel:
    """Mixture of models on one node set; nested mixtures are flattened."""
    flat: list[tuple[DiffusionModel, float]] = []
    for model, weight in components:
        weight = float(weight)
        if not weight > 0.0:
            raise ValueError("component weights must be positive")
        if model.kind == MIXTURE:
            for sub, w in zip(model.components, model.component_weights):
                flat.append((sub, weight * float(w)))
        else:
            flat.append((model, weight))
    if not flat:
        raise ValueError("mixture needs at least one component")
    total = sum(w for _, w in flat)
    if abs(total - 1.0) > _WEIGHT_SUM_TOL:
        raise ValueError("component weights must sum to 1")
    first = flat[0][0]
    for model, _ in flat[1:]:
        if model.num_nodes != first.num_nodes:
            raise ValueError("mixture components must share the node set")
        if not np.array_equal(model.graph.node_weights, first.graph.node_weights):
            raise ValueError("mixture components must share node weights")
    # Union graph: concatenated component edges, groups remapped to stay disjoint.
    tails, heads, probs, groups = [], [], [], []
    offsets = np.zeros(len(flat), dtype=np.int64)
    group_base = 0
    for c, (model, _) in enumerate(flat):
        g = model.graph
        offsets[c] = sum(len(t) for t in tails)
        tails.append(g.tails)
        heads.append(g.heads)
        probs.append(g.probs)
        remapped = np.where(g.groups >= 0, g.groups + group_base, -1)
        groups.append(remapped.astype(np.int64))
        if g.groups.size and g.groups.max() >= 0:
            group_base += int(g.groups.max()) + 1
    union = Graph(first.num_nodes,
                  np.concatenate(tails) if tails else np.empty(0, np.int64),
                  np.concatenate(heads) if heads else np.empty(0, np.int64),
                  np.concatenate(probs) if probs else np.empty(0, np.float64),
                  np.concatenate(groups) if groups else np.empty(0, np.int64),
                  first.graph.node_weights)
    return DiffusionModel(
        MIXTURE, union,
        components=tuple(m for m, _ in flat),
        component_weights=np.array([w for _, w in flat], dtype=np.float64),
        component_offsets=offsets)


# ---------------------------------------------------------------------------
# Random units
#
# One table of a model's random units serves exact enumeration, which walks
# every choice of every unit, and sampling, which draws one uniform per
# unit and simulation.

def _units(model: DiffusionModel):
    """Random-unit table of a non-mixture model: its random units, the
    probability of each unit's choices, and the choice that makes each edge
    live.  Built on first use and cached on the model.

    Returns ``(radices, choice_probs, edge_choice)``.  Unit ``j`` takes one
    of ``radices[j]`` choices; its choice probabilities are the next
    ``radices[j]`` entries of ``choice_probs``, after those of units
    ``0 .. j-1``.  Edge ``e`` is live exactly when its unit takes the choice
    at flat index ``edge_choice[e]``; the two indices past the last choice
    mark edges that are never live (p = 0) and always live (p = 1).

    * IC and BDEP: a unit ``[1 - p, p]`` per random group (group-id
      order), then per loose edge (edge-id order), counting only those with
      ``0 < p < 1``.  An IC model is a BDEP model whose edges are all loose.
    * LT: a unit per node with in-edges, choosing one of them by weight (in
      ``in_edges`` order) or none with the leftover mass
      ``max(0, 1 - p_in.sum())``.  Zero-weight in-edges are choices too.
    """
    # The model is a frozen dataclass, so the table is cached straight in
    # its __dict__, as functools.cached_property does.
    table = model.__dict__.get("_units")
    if table is not None:
        return table
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
    else:
        # One unit per group (np.unique order), then one per loose edge (id
        # order); all members of a group share its probability.
        grouped = g.groups >= 0
        gids = np.unique(g.groups[grouped])
        loose = np.flatnonzero(~grouped)
        unit = np.empty(g.num_edges, dtype=np.int64)
        unit[grouped] = np.searchsorted(gids, g.groups[grouped])
        unit[loose] = gids.size + np.arange(loose.size)
        unit_p = np.zeros(int(unit.max(initial=-1)) + 1, dtype=np.float64)
        unit_p[unit] = p
        random = (unit_p > 0.0) & (unit_p < 1.0)
        q = unit_p[random]
        rank = np.cumsum(random) - 1
        edge_choice = np.where(random[unit], 2 * rank[unit] + 1,
                               np.where(p >= 1.0, 2 * q.size + 1, 2 * q.size))
        radices = np.full(q.size, 2, dtype=np.int64)
        choice_probs = np.column_stack([1.0 - q, q]).ravel()
    table = (radices, choice_probs, edge_choice)
    for a in table:
        a.setflags(write=False)
    model.__dict__["_units"] = table
    return table


# ---------------------------------------------------------------------------
# Sampling, stream layout 2
#
# A non-mixture model draws one uniform per unit of its :func:`_units`
# table and simulation, from its kind's block stream (rng.block_stream):
# row i of the block is simulation i.  Edge e is live iff lo[e] <= u < hi[e]
# for its unit's uniform u, where a unit's edge-bearing choices take
# consecutive slices of [0, 1) in choice order.  So a binary unit's live
# edges take [0, q), the single compare u < q, and an LT node's in-edges
# take consecutive slices in in_edges order, the leftover mass choosing
# none.  Edges whose slice is empty or covers [0, 1) are constant columns
# and read no draw.
# A mixture draws its component from STREAM_MIXTURE and one shared block
# of the widest component's width from STREAM_UNITS; each component reads
# the leading columns of its own rows.

_KIND_STREAM = {IC: rng.STREAM_EDGES, LT: rng.STREAM_NODES, BDEP: rng.STREAM_UNITS}

# Uniforms (or random edges) drawn and compared per step of a block, so a
# worker's float temporaries stay near 512 kB however wide the model is;
# whole-block temporaries grow with the edge count and raise peak RSS.
_DRAW_CELLS = 1 << 16

@dataclass(frozen=True, eq=False)
class _DrawPlan:
    """How a non-mixture model turns a ``(rows, width)`` block of uniforms
    into live edges.  ``edges`` (``None``: all, in id order) are the random
    edges, live iff ``lo <= u[:, col] < hi`` (``lo`` ``None``: zero); every
    other edge is ``base``.  With ``col`` ``None`` random edge ``j`` reads
    unit ``j``; otherwise the block is gathered edge-major, one row per
    random edge, and ``lo`` and ``hi`` are columns."""
    width: int
    base: np.ndarray
    edges: np.ndarray | None
    col: np.ndarray | None
    lo: np.ndarray | None
    hi: np.ndarray


def _build_draw_plan(model: DiffusionModel) -> _DrawPlan:
    radices, choice_probs, edge_choice = _units(model)
    # Per unit, the choices that make edges live take consecutive slices
    # [lo, hi) of [0, 1) in choice order, summed exactly as np.cumsum would;
    # the never- and always-live indices take [0, 0) and [0, 1).
    bearing = np.zeros(choice_probs.size + 2, dtype=bool)
    bearing[edge_choice] = True
    mass = np.where(bearing[:-2], choice_probs, 0.0)
    lo, hi = np.zeros(bearing.size), np.zeros(bearing.size)
    hi[-1] = 1.0
    ends = np.cumsum(radices)
    for d in np.unique(radices).tolist():
        at = (ends - radices)[radices == d][:, None] + np.arange(d)
        cum = np.cumsum(mass[at], axis=1)
        hi[at], lo[at[:, 1:]] = cum, cum[:, :-1]
    lo, hi = lo[edge_choice], hi[edge_choice]
    base = (lo <= 0.0) & (hi >= 1.0)
    edges = np.flatnonzero(~base & (lo < hi))
    col = np.searchsorted(ends, edge_choice[edges], side="right")
    lo, hi = lo[edges], hi[edges]
    lo = lo if lo.any() else None
    if edges.size == radices.size and np.array_equal(col, np.arange(radices.size)):
        col = None
    else:
        lo, hi = (None if lo is None else lo[:, None]), hi[:, None]
    if edges.size == edge_choice.size:
        edges = None
    return _DrawPlan(int(radices.size), base, edges, col, lo, hi)


def _fill_live(plan: _DrawPlan, u: np.ndarray, out: np.ndarray) -> None:
    """Write the live edges of a ``(rows, width)`` block of uniforms into
    the edge-major ``(m, rows)`` ``out``."""
    by_edge = plan.col is not None
    at = np.ascontiguousarray(u.T)[plan.col] if by_edge else u
    hit = at < plan.hi
    if plan.lo is not None:
        hit &= at >= plan.lo
    if not by_edge:
        hit = hit.T
    if plan.edges is None:
        out[:] = hit
    else:
        out[:] = plan.base[:, None]
        out[plan.edges] = hit


def _sample_live_block(model: DiffusionModel, master_seed: int, start: int, count: int,
                       stream_id: int | None = None):
    """Live masks for ``count`` consecutive simulation indices, as a
    transposed view of edge-major rows, and their mixture components
    (``None`` for other kinds).  A non-mixture model draws from its kind's
    stream unless ``stream_id`` names another.  Rows are drawn and compared
    ``_DRAW_CELLS`` uniforms or random edges at a time."""
    if model.kind == MIXTURE:
        cum = np.cumsum(model.component_weights)
        cum[-1] = 1.0
        pick = rng.block_uniforms(master_seed, rng.STREAM_MIXTURE, start, count, 1)[:, 0]
        comps = np.searchsorted(cum, pick, side="right").astype(np.int64)
        parts = [(comp._draw_plan, int(off))
                 for comp, off in zip(model.components, model.component_offsets)]
        stream_id = rng.STREAM_UNITS
        live = np.zeros((model.graph.num_edges, count), dtype=bool)
    else:
        comps, parts = None, [(model._draw_plan, 0)]
        stream_id = _KIND_STREAM[model.kind] if stream_id is None else stream_id
        live = np.empty((model.graph.num_edges, count), dtype=bool)
    width = max(plan.width for plan, _ in parts)
    step = max(1, _DRAW_CELLS // max(1, width, *(plan.hi.shape[0] for plan, _ in parts)))
    draws = rng.block_stream(master_seed, stream_id, start, width)
    for lo in range(0, count, step):
        rows = min(step, count - lo)
        u = draws.random(rows * width).reshape(rows, width)
        if comps is None:
            _fill_live(parts[0][0], u, live[:, lo:lo + rows])
            continue
        for c, (plan, off) in enumerate(parts):
            own = np.flatnonzero(comps[lo:lo + rows] == c)
            if own.size:
                part = np.empty((plan.base.size, own.size), dtype=bool)
                _fill_live(plan, u[own, :plan.width], part)
                live[off:off + plan.base.size, lo + own] = part
    return live.T, comps


def sample_simulation(model: DiffusionModel, master_seed: int, sim_index: int) -> Simulation:
    """Draw simulation ``sim_index`` of the stream keyed by ``master_seed``."""
    live, comps = _sample_live_block(model, master_seed, sim_index, 1)
    live = live[0]
    live.setflags(write=False)
    comp = None if comps is None else int(comps[0])
    return Simulation(live, rng.check_master_seed(master_seed), int(sim_index), comp)


_SAMPLE_BLOCK = 1024  # rows per worker task; a multiple of 64, so blocks share no word


def sample_pool(model: DiffusionModel, master_seed: int, count: int,
                start: int = 0, threads: int = 1, packed: bool = False):
    """Live masks for simulation indices ``start .. start+count-1``.

    Returns ``(live, components)``.  ``live`` is a ``(count, m)`` boolean
    matrix, or with ``packed`` the ``(ceil(count / 64), m)`` ``uint64``
    words of :func:`pack_rows`; ``components`` is an int array for
    mixtures and ``None`` otherwise.  Rows are drawn and packed in blocks
    of ``_SAMPLE_BLOCK``, dealt round-robin to ``threads`` workers that
    each write their own word range, so beyond the result only one block
    per worker is held, and a block's uniforms ``_DRAW_CELLS`` at a time.
    The result is independent of ``threads``.
    """
    rng.check_master_seed(master_seed)
    count = int(count)
    if count < 0:
        raise ValueError("simulation count must be nonnegative")
    words = np.empty((-(-count // 64), model.graph.num_edges), dtype=np.uint64)
    comps = np.empty(count, dtype=np.int64) if model.kind == MIXTURE else None
    blocks = range(0, count, _SAMPLE_BLOCK)

    def fill(worker):
        for lo in blocks[worker::threads]:
            hi = min(lo + _SAMPLE_BLOCK, count)
            rows, row_comps = _sample_live_block(model, master_seed, start + lo, hi - lo)
            words[lo // 64:-(-hi // 64)] = pack_rows(rows)
            if comps is not None:
                comps[lo:hi] = row_comps

    threads = max(1, min(int(threads), len(blocks)))
    if threads == 1:
        fill(0)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for f in [pool.submit(fill, t) for t in range(threads)]:
                f.result()
    return (words if packed else unpack_rows(words, count)), comps


# ---------------------------------------------------------------------------
# Reachability

def _bfs(graph: Graph, live: np.ndarray, seeds, tau: int, reverse: bool) -> np.ndarray:
    endpoint = graph.tails if reverse else graph.heads
    edges_of = graph.in_edges if reverse else graph.out_edges
    frontier = set(seeds)
    reached = set(frontier)
    for _ in range(tau):
        frontier = {int(endpoint[e]) for v in frontier for e in edges_of(v) if live[e]} - reached
        if not frontier:
            break
        reached |= frontier
    return np.array(sorted(reached), dtype=np.int64)


def reach_set(graph: Graph, sim: Simulation, seeds, tau: int) -> np.ndarray:
    """Nodes reachable from ``seeds`` by live paths of length <= ``tau``."""
    seeds = as_seed_tuple(graph.num_nodes, seeds)
    if tau < 0:
        raise ValueError("step limit must be nonnegative")
    return _bfs(graph, sim.live, seeds, int(tau), reverse=False)


def reach_value(graph: Graph, sim: Simulation, seeds, tau: int) -> float:
    """Total node weight of the reachable set (its size, for unit weights)."""
    ids = reach_set(graph, sim, seeds, tau)
    return float(graph.node_weights[ids].sum())


def reverse_reach_set(graph: Graph, live: np.ndarray, target: int, tau: int) -> np.ndarray:
    """Nodes that reach ``target`` by live paths of length <= ``tau``."""
    return _bfs(graph, live, (int(target),), int(tau), reverse=True)


def pack_rows(rows: np.ndarray) -> np.ndarray:
    """Pack a ``(count, k)`` boolean matrix into ``(words, k)`` ``uint64``.

    Bit ``r`` of word ``j`` holds row ``64 * j + r``; the padding bits of
    a partial last word are zero.  Each column is packed from its own
    contiguous copy, and the words are returned as a transposed view.
    """
    rows = np.asarray(rows, dtype=bool)
    count, k = rows.shape
    packed = np.zeros((k, -(-count // 64) * 8), dtype=np.uint8)
    packed[:, :(count + 7) // 8] = np.packbits(np.ascontiguousarray(rows.T), axis=1,
                                               bitorder="little")
    return packed.view("<u8").T


def unpack_columns(words: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` rows of packed ``words`` column by column: a
    ``(k, count)`` ``uint8`` 0/1 matrix, the transpose of :func:`unpack_rows`."""
    by_column = np.ascontiguousarray(words.T, dtype="<u8").view(np.uint8)
    return np.unpackbits(by_column, axis=1, count=int(count), bitorder="little")


def unpack_rows(words: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` rows of packed ``words`` as a ``(count, k)`` boolean
    matrix; inverse of :func:`pack_rows`."""
    return np.ascontiguousarray(unpack_columns(words, count).T).view(bool)


def start_mask(num_nodes: int, targets) -> np.ndarray:
    """Packed ``(words, n)`` start mask with node ``targets[r]`` set in row
    ``r`` only, one start node per simulation row."""
    targets = np.asarray(targets, dtype=np.int64)
    if targets.size and (targets.min() < 0 or targets.max() >= num_nodes):
        raise ValueError("target id out of range")
    rows = np.arange(targets.shape[0])
    mask = np.zeros((-(-rows.shape[0] // 64), int(num_nodes)), dtype=np.uint64)
    bits = np.left_shift(np.uint64(1), (rows & 63).astype(np.uint64))
    np.bitwise_or.at(mask.reshape(-1), (rows >> 6) * int(num_nodes) + targets, bits)
    return mask


def propagation_steps(graph: Graph, live: np.ndarray, seeds, tau: int,
                      reverse: bool = False):
    """Bit-parallel BFS over packed simulations, one step at a time.

    ``live`` is ``(words, m)`` ``uint64`` from :func:`pack_rows`: bit ``r``
    of word ``j`` is simulation ``64 * j + r``.  ``seeds`` is either a node
    collection, set in every bit (padding included), or a packed
    ``(words, n)`` start mask holding one start set per simulation row
    (:func:`start_mask`).  Yields ``(newly, active)`` for steps
    ``0 .. tau``, both ``(words, n)`` packed masks: ``newly`` holds the
    nodes first activated at that step (the start nodes at step 0) and
    ``active`` the union of all steps so far.  Each step gathers the
    frontier bits of every edge's tail, keeps the live ones and ORs them
    into each head with one ``reduceat`` over the edges sorted by head.
    With ``reverse`` the edges run backwards: heads are gathered and ORed
    into tails over the edges sorted by tail, so ``active`` holds the
    nodes that reach the start nodes.  Stops early after a step that
    activates nothing.  Padding bits never spread, since their live bits
    are zero.  Both arrays are updated in place by the next step, so
    consume them before advancing.
    """
    tau = int(tau)
    if tau < 0:
        raise ValueError("step limit must be nonnegative")
    if np.ndim(seeds) == 2:
        active = np.array(seeds, dtype=np.uint64)
        if active.shape != (live.shape[0], graph.num_nodes):
            raise ValueError("start mask must be (words, nodes)")
    else:
        seeds = as_seed_tuple(graph.num_nodes, seeds)
        active = np.zeros((live.shape[0], graph.num_nodes), dtype=np.uint64)
        active[:, list(seeds)] = ~np.uint64(0)
    frontier = active
    yield frontier, active
    if graph.num_edges == 0:
        return
    if reverse:
        order, starts, sources = graph._out_order, graph._out_start, graph.heads
    else:
        order, starts, sources = graph._in_order, graph._in_start, graph.tails
    sources_by_sink = sources[order]
    live_by_sink = live[:, order]
    has_in = np.flatnonzero(starts[1:] > starts[:-1])
    for _ in range(tau):
        hit = frontier[:, sources_by_sink] & live_by_sink
        nxt = np.zeros_like(active)
        nxt[:, has_in] = np.bitwise_or.reduceat(hit, starts[has_in], axis=1)
        nxt &= ~active
        if not nxt.any():
            return
        active |= nxt
        frontier = nxt
        yield frontier, active


def reach_mask_batch(graph: Graph, live: np.ndarray, seeds, tau: int,
                     reverse: bool = False) -> np.ndarray:
    """Packed active-node masks for packed simulations.

    ``live`` is ``(words, m)`` and the result ``(words, n)``, both
    ``uint64`` as laid out by :func:`pack_rows`; ``seeds`` and ``reverse``
    are as in :func:`propagation_steps`.  Unpacked, it matches
    :func:`reach_set` (:func:`reverse_reach_set` with ``reverse``) row by
    row.
    """
    for _, active in propagation_steps(graph, live, seeds, tau, reverse):
        pass
    return active


# One block of tiled sources holds at most this many words x max(edges, nodes).
_BLOCK_CELLS = 1 << 14
# reach_table keeps every node's single-source reach while it fits here.
_EXPLICIT_CACHE_BYTES = 1 << 27


def source_reaches(graph: Graph, live: np.ndarray, tau: int, sources=None):
    """Yield the ``(b, words, n)`` :func:`reach_mask_batch` masks of the
    single sources ``sources`` (every node ``0 .. n-1`` by default), ``b``
    consecutive sources at a time.  A block is one propagation over ``live``
    tiled ``b`` times, each source set in all of its own rows."""
    n, width = graph.num_nodes, live.shape[0]
    sources = np.arange(n) if sources is None else np.asarray(sources, dtype=np.int64)
    block = max(1, _BLOCK_CELLS // (width * max(graph.num_edges, n, 1)))
    for lo in range(0, sources.size, block):
        b = min(block, sources.size - lo)
        start = np.zeros((b, width, n), dtype=np.uint64)
        start[np.arange(b), :, sources[lo:lo + b]] = ~np.uint64(0)
        tiled = live if b == 1 else np.tile(live, (b, 1))
        yield reach_mask_batch(graph, tiled, start.reshape(-1, n), tau).reshape(b, width, n)


def reach_table(graph: Graph, live: np.ndarray, tau: int, sources=None) -> np.ndarray | None:
    """``(len(sources), words, n)`` :func:`source_reaches` of ``sources``
    (every node by default), or ``None`` when they would exceed
    ``_EXPLICIT_CACHE_BYTES``."""
    n = graph.num_nodes
    count = n if sources is None else len(sources)
    if count * live.shape[0] * n * 8 > _EXPLICIT_CACHE_BYTES:
        return None
    table = np.empty((count, live.shape[0], n), dtype=np.uint64)
    lo = 0
    for reach in source_reaches(graph, live, tau, sources):
        table[lo:lo + len(reach)] = reach
        lo += len(reach)
    return table


def set_reaches(graph: Graph, live: np.ndarray, tau: int, ids: np.ndarray,
                table: np.ndarray | None) -> np.ndarray:
    """:func:`reach_mask_batch` of each seed set in the rows of the ``(C, k)``
    node ids, as ``(C, words, n)`` masks.  Reachability is a coverage
    function, so a set's mask is the OR of its members' ``table`` rows;
    without a table each set propagates on its own."""
    if table is None:
        return np.stack([reach_mask_batch(graph, live, row, tau) for row in ids])
    masks = table[ids[:, 0]]
    for j in range(1, ids.shape[1]):
        masks |= table[ids[:, j]]
    return masks


def reach_values_batch(graph: Graph, live: np.ndarray, seeds, tau: int) -> np.ndarray:
    """Per-simulation reach values of a ``(rows, m)`` boolean live matrix."""
    mask = reach_mask_batch(graph, pack_rows(live), seeds, tau)
    return unpack_rows(mask, live.shape[0]) @ graph.node_weights


# ---------------------------------------------------------------------------
# Model files: a JSON document referencing edge-list graph files.

def save_model(model: DiffusionModel, path) -> None:
    """Write ``path`` (JSON) plus edge-list companions next to it."""
    path = Path(path)
    stem = path.name.rsplit(".", 1)[0]
    if model.kind == MIXTURE:
        entries = []
        for c, comp in enumerate(model.components):
            comp_path = path.with_name(f"{stem}.comp{c}.model")
            save_model(comp, comp_path)
            entries.append({"path": comp_path.name,
                            "weight": float(model.component_weights[c])})
        doc = {"kind": MIXTURE, "components": entries}
    else:
        graph_path = path.with_name(stem + ".edges")
        write_edge_list(model.graph, graph_path)
        doc = {"kind": model.kind, "graph_path": graph_path.name}
        if model.kind == BDEP:
            doc["b"] = int(model.b)
    path.write_text(json.dumps(doc, indent=2) + "\n")


def _existing_file(path: Path) -> Path:
    try:
        found = path.is_file()
    except OSError:
        found = False
    if not found:
        raise FileNotFoundError(f"no such file: {str(path)!r}")
    return path


def _named_file(base: Path, name, what: str) -> Path:
    """The existing file ``name`` names, relative to ``base``'s directory."""
    if not isinstance(name, str):
        raise ValueError(f"model file: {what} must be a string, got {name!r}")
    return _existing_file(base.parent / name)


def _json_int(value, what: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"model file: {what} must be an integer, got {value!r}")


def _json_number(value, what: str) -> float:
    # NaN fails the comparison; huge integers fail it before float() overflows.
    if isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) < 1e308:
        return float(value)
    raise ValueError(f"model file: {what} must be a finite number, got {value!r}")


def load_model(path) -> DiffusionModel:
    """Read a model file written by :func:`save_model`.

    A malformed document raises ``ValueError``, a missing key ``KeyError``
    and a missing file ``FileNotFoundError``; a mixture that includes
    itself is malformed.
    """
    return _load_model(_existing_file(Path(path)), ())


def _load_model(path: Path, parents: tuple) -> DiffusionModel:
    key = path.resolve()
    if key in parents:
        raise ValueError(f"model file {str(path)!r} includes itself")
    doc = json.loads(path.read_text())
    if not isinstance(doc, dict):
        raise ValueError("model file must hold a JSON object")
    kind = doc.get("kind")
    if kind == MIXTURE:
        entries = doc["components"]
        if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
            raise ValueError("model file: components must be a list of objects")
        components = [(_load_model(_named_file(path, entry["path"], "component path"),
                                   parents + (key,)),
                       _json_number(entry["weight"], "component weight"))
                      for entry in entries]
        return mixture_model(components)
    graph = read_edge_list(_named_file(path, doc["graph_path"], "graph_path"))
    if kind == IC:
        return ic_model(graph)
    if kind == LT:
        overrides = doc.get("lt_weights")
        if overrides:
            if not (isinstance(overrides, list)
                    and all(isinstance(o, list) and len(o) == 3 for o in overrides)):
                raise ValueError("model file: lt_weights must be a list of "
                                 "[tail, head, weight] triples")
            probs = np.array(graph.probs)
            index = {(int(graph.tails[e]), int(graph.heads[e])): e
                     for e in range(graph.num_edges)}
            for t, h, w in overrides:
                t, h = _json_int(t, "lt_weights tail"), _json_int(h, "lt_weights head")
                if (t, h) not in index:
                    raise ValueError(f"lt_weights names missing edge ({t}, {h})")
                probs[index[(t, h)]] = _json_number(w, "lt_weights weight")
            graph = Graph(graph.num_nodes, graph.tails, graph.heads, probs,
                          graph.groups, graph.node_weights)
        return lt_model(graph)
    if kind == BDEP:
        return bdep_model(graph, _json_int(doc["b"], "b"))
    raise ValueError(f"unknown model kind {kind!r}")
