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

A simulation is one i.i.d. draw: a boolean live mask over the model's edge
list, fixed by the ``(master_seed, sim_index)`` that produced it.
Sampling follows stream layout 3 (see :mod:`infmax.rng`): simulation
``sim_index`` reads one uniform per random unit of the model's
:func:`_units` table, the same table exact enumeration walks, from a PCG64
block stream whose tiles of 1,024 simulations are unit-major.  Edges at
p = 0 or 1 read no draw, and a mixture draws its component plus the units
of one stream as wide as its widest component.  So any one simulation is
regenerated in isolation.  :func:`sample_pool` fills a pool in blocks of
whole tiles whose uniforms its workers compare and pack straight into
``uint64`` words, so no boolean live matrix is built.  It packs every edge
or only those of an edge mask, such as a seed set's ``tau``-ball
(:func:`ball_edges`), the only edges its reach within ``tau`` steps depends
on, and draws only the units those edges read; every draw sits at its own
stream position, so a column's bits do not depend on which others are
chosen.
Reachability within ``tau`` steps propagates bit-parallel over stacks of
simulations: they are packed 64 to a ``uint64`` word (:func:`pack_rows`),
and one step of the batched kernel (:func:`propagation_steps`) advances
all of them at once.  The kernel starts from one seed set shared by every
row or from a packed start mask with its own start nodes per row
(:func:`start_mask`); reverse searches run it over :attr:`Graph.reversed`.
:func:`reverse_reach_set` is the scalar BFS of one simulation's reverse
reach, kept as a reference.
"""

from __future__ import annotations

import ctypes
import json
import math
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
    def _edge_sampler(self):
        """:func:`_word_sampler` of every edge, on the model's own stream."""
        return _word_sampler(self, np.arange(self.graph.num_edges))

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
    gids, sizes = np.unique(graph.groups[graph.groups >= 0], return_counts=True)
    over = np.flatnonzero(sizes > b)
    if over.size:
        raise ValueError(f"group {gids[over[0]]} has {sizes[over[0]]} edges, bound is {b}")
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
# Sampling, stream layout 3
#
# A non-mixture model draws one uniform per unit of its :func:`_units`
# table and simulation, from its kind's block stream (rng.BlockReader), whose
# width is the table's unit count.  Edge e is live iff lo[e] <= u < hi[e]
# for its unit's uniform u, where a unit's edge-bearing choices take
# consecutive slices of [0, 1) in choice order.  So a binary unit's live
# edges take [0, q), the single compare u < q, and an LT node's in-edges
# take consecutive slices in in_edges order, the leftover mass choosing
# none.  Edges whose slice is empty or covers [0, 1) are constant columns
# and read no draw.
# A mixture draws its component from STREAM_MIXTURE and its units from one
# STREAM_UNITS stream as wide as its widest component; each component reads
# the leading units of its own rows.  The word sampler compares a
# component's units over every row and keeps the words of its own rows.
# Tiles are unit-major, so a sampler draws only the units its edges read.

_KIND_STREAM = {IC: rng.STREAM_EDGES, LT: rng.STREAM_NODES, BDEP: rng.STREAM_UNITS}

# Uniforms drawn and compared per chunk of a tile's units, so a worker's
# float temporaries stay near 512 kB however wide the model is.
_DRAW_CELLS = 1 << 16
# Draws per sample_pool block, at least a tile: a pool that needs fewer, such
# as a seed set's ball, is one block and fills on the calling thread.
_BLOCK_DRAWS = 1 << 20


@dataclass(frozen=True, eq=False)
class _DrawPlan:
    """How a non-mixture model turns a unit's uniforms into live edges: edge
    ``e`` is live iff ``lo[e] <= u[unit[e]] < hi[e]``.  ``random`` marks the
    edges whose slice is neither empty nor all of ``[0, 1)``; of the
    others, those in ``always`` are live in every row.  In a ``binary`` plan
    every random slice starts at 0, so the random edges of one unit share
    its slice ``[0, unit_hi)``."""
    width: int
    unit: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    random: np.ndarray
    always: np.ndarray
    binary: bool
    unit_hi: np.ndarray


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
    always = (lo <= 0.0) & (hi >= 1.0)
    random = ~always & (lo < hi)
    unit = np.searchsorted(ends, edge_choice, side="right")
    unit_hi = np.zeros(radices.size)
    unit_hi[unit[random]] = hi[random]
    return _DrawPlan(int(radices.size), unit, lo, hi, random, always,
                     not lo[random].any(), unit_hi)


@dataclass(frozen=True, eq=False)
class _Pick:
    """The selected edges of one :class:`_DrawPlan`, as tests of the
    sampler's drawn units: test ``i`` compares the uniforms of drawn unit
    ``row[i]`` against ``[lo[i], hi[i])``, and ``row`` is nondecreasing.  A
    binary plan tests each unit read once against ``[0, hi)`` and has ``lo``
    ``None``; any other tests each random edge.  ``col`` is each selected
    random edge's test; ``random_at`` and ``always_at`` are the output
    columns of the selected random and always-live edges."""
    row: np.ndarray
    lo: np.ndarray | None
    hi: np.ndarray
    col: slice | np.ndarray
    random_at: slice | np.ndarray
    always_at: slice | np.ndarray


def _as_slice(ids: np.ndarray) -> slice | np.ndarray:
    """``ids`` as a slice when they are consecutive, so that indexing with
    them takes a view or a plain copy instead of a gather or a scatter."""
    start = int(ids[0]) if ids.size else 0
    if np.array_equal(ids, np.arange(start, start + ids.size)):
        return slice(start, start + ids.size)
    return ids


def _pick(plan: _DrawPlan, edges: np.ndarray, at: np.ndarray, drawn: np.ndarray) -> _Pick:
    """The :class:`_Pick` of ``plan``'s edge ids ``edges``, output at columns
    ``at``, over the sorted unit ids ``drawn``."""
    random = edges[plan.random[edges]]
    units = plan.unit[random]
    if plan.binary:
        tested = np.unique(units)
        lo, hi, col = None, plan.unit_hi[tested][:, None], np.searchsorted(tested, units)
    else:
        order = np.argsort(units, kind="stable")
        tested, random = units[order], random[order]
        lo, hi = plan.lo[random][:, None], plan.hi[random][:, None]
        col = np.empty_like(order)
        col[order] = np.arange(order.size)
    return _Pick(np.searchsorted(drawn, tested), lo, hi, _as_slice(col),
                 _as_slice(at[plan.random[edges]]), _as_slice(at[plan.always[edges]]))


def _word_sampler(model: DiffusionModel, edges: np.ndarray, stream_id: int | None = None):
    """``(draw, block)`` for the sorted edge ids ``edges`` of ``model``:
    ``draw(master_seed, start, count)`` returns the packed ``(ceil(count /
    64), len(edges))`` live words of simulations ``start .. start+count-1``
    and their mixture components (``None`` for other kinds), and ``block``
    is the rows of a :func:`sample_pool` block, whole tiles of about
    ``_BLOCK_DRAWS`` draws.  A non-mixture model draws from its kind's
    stream unless ``stream_id`` names another.

    Only the units that ``edges`` read are drawn, a tile part and a chunk
    of them at a time, and each draw is at its own stream position, so a
    column's bits do not depend on the other columns chosen.  A part's
    tests are compared, packed 64 rows to a word and placed by absolute
    row, so a tile's words are whole words whatever ``start`` is; the
    result is shifted into place once.  Each random edge takes its test's
    words, ANDed in a mixture with the words of the rows its part owns,
    which are also the words of its always-live edges.
    """
    if model.kind == MIXTURE:
        cum = np.cumsum(model.component_weights)
        cum[-1] = 1.0
        stream_id = rng.STREAM_UNITS
        parts = [(comp, int(off)) for comp, off in zip(model.components,
                                                      model.component_offsets)]
    else:
        cum = None
        stream_id = _KIND_STREAM[model.kind] if stream_id is None else stream_id
        parts = [(model, 0)]
    width = max(comp._draw_plan.width for comp, _ in parts)
    chosen = []
    for comp, off in parts:
        inside = np.flatnonzero((edges >= off) & (edges < off + comp.graph.num_edges))
        chosen.append((comp._draw_plan, edges[inside] - off, inside))
    drawn = np.unique(np.concatenate([plan.unit[ids[plan.random[ids]]]
                                      for plan, ids, _ in chosen]))
    picks = [_pick(plan, ids, at, drawn) for plan, ids, at in chosen]
    tile = rng.TILE_ROWS
    chunk = max(1, _DRAW_CELLS // tile)
    # Per chunk of drawn units: its runs of consecutive unit ids, and each
    # pick's tests of it with their rows in the chunk.
    reads = []
    for lo in range(0, drawn.size, chunk):
        units = drawn[lo:lo + chunk]
        cuts = [0, *(np.flatnonzero(np.diff(units) != 1) + 1).tolist(), units.size]
        runs = [(int(units[a]), b - a, a) for a, b in zip(cuts, cuts[1:])]
        tests = []
        for pick in picks:
            t0, t1 = np.searchsorted(pick.row, [lo, lo + chunk]).tolist()
            tests.append((t0, t1, _as_slice(pick.row[t0:t1] - lo)))
        reads.append((runs, tests))
    block = tile * max(1, _BLOCK_DRAWS // max(1, drawn.size * tile))

    def draw(master_seed: int, start: int, count: int):
        comps = None
        part_of = np.zeros(count, dtype=np.int64)
        if cum is not None:
            choice = rng.block_uniforms(master_seed, rng.STREAM_MIXTURE, start, count, 1)
            comps = part_of = np.searchsorted(cum, choice[:, 0], side="right")
        # Each pick's test words by absolute row: bit b of word w is row
        # start - shift + 64 w + b, so every tile part fills whole words.
        shift = start % 64
        test_words = [np.zeros((p.hi.shape[0], -(-(shift + count) // 64) + 1), dtype=np.uint64)
                      for p in picks]
        if drawn.size:
            reader = rng.BlockReader(master_seed, stream_id, width)
            u = np.empty((chunk, tile))
            hits = [np.empty((p.hi.shape[0], tile), dtype=bool) for p in picks]
            for lo, rows in rng.tile_parts(start, count):
                lead = (start + lo) % 64
                cols = slice(lead, lead + rows)
                for runs, chunk_tests in reads:
                    reader.read_units(start + lo, rows, runs, u, lead)
                    for pick, hit, (t0, t1, at) in zip(picks, hits, chunk_tests):
                        x = u[at, cols]
                        np.less(x, pick.hi[t0:t1], out=hit[t0:t1, cols])
                        if pick.lo is not None:
                            hit[t0:t1, cols] &= x >= pick.lo[t0:t1]
                end = -(-(lead + rows) // 64) * 64
                first = (shift + lo - lead) // 64
                for hit, bits in zip(hits, test_words):
                    hit[:, :lead] = False
                    hit[:, lead + rows:end] = False
                    bits[:, first:first + end // 64] = np.packbits(
                        hit[:, :end], axis=1, bitorder="little").view("<u8")
        words = np.zeros((-(-count // 64), edges.size), dtype=np.uint64)
        for c, (pick, bits) in enumerate(zip(picks, test_words)):
            if shift:
                bits = (bits[:, :-1] >> np.uint64(shift)) | (bits[:, 1:] << np.uint64(64 - shift))
            own = pack_rows((part_of == c)[:, None])
            words[:, pick.random_at] = bits[pick.col, :words.shape[0]].T & own
            words[:, pick.always_at] = own
        return words, comps

    return draw, block


def sample_pool(model: DiffusionModel, master_seed: int, count: int,
                start: int = 0, threads: int = 1, packed: bool = False,
                edges: np.ndarray | None = None):
    """Live masks for simulation indices ``start .. start+count-1``.

    Returns ``(live, components)``.  ``live`` is a ``(count, k)`` boolean
    matrix, or with ``packed`` the ``(ceil(count / 64), k)`` ``uint64``
    words of :func:`pack_rows`, over the ``k`` edges of the boolean mask
    ``edges`` in id order (every edge when ``None``); ``components`` is an
    int array for mixtures and ``None`` otherwise.  A column does not depend
    on which other edges are chosen.  Rows are drawn and packed in blocks of
    whole tiles (see :func:`_word_sampler`), cut at the tiles of the stream
    when ``start`` is a multiple of 64, dealt round-robin to ``threads``
    workers that each write their own word range, so beyond the result only
    one chunk's uniforms per worker are held.  The result is independent of
    ``threads``.
    """
    rng.check_master_seed(master_seed)
    count = int(count)
    if count < 0:
        raise ValueError("simulation count must be nonnegative")
    m = model.graph.num_edges
    if edges is None:
        draw, block = model._edge_sampler
        k = m
    else:
        edges = np.asarray(edges)
        if edges.dtype != bool or edges.shape != (m,):
            raise ValueError(f"edge selection must be a boolean mask over the {m} edges")
        draw, block = _word_sampler(model, np.flatnonzero(edges))
        k = int(edges.sum())
    words = np.empty((-(-count // 64), k), dtype=np.uint64)
    comps = np.empty(count, dtype=np.int64) if model.kind == MIXTURE else None
    # Blocks start at pool rows that are whole words: the first at 0, the
    # others at the stream's tile boundaries, rounded up to a word.
    first = -int(start) % rng.TILE_ROWS
    first += -first % 64
    cuts = sorted({0, *range(first, count, block)}) if count else []
    blocks = list(zip(cuts, cuts[1:] + [count]))

    def fill(worker):
        for lo, hi in blocks[worker::threads]:
            block_words, block_comps = draw(master_seed, start + lo, hi - lo)
            words[lo // 64:-(-hi // 64)] = block_words
            if comps is not None:
                comps[lo:hi] = block_comps

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

def _bfs(graph: Graph, live: np.ndarray, seeds, tau: int) -> np.ndarray:
    frontier = set(seeds)
    reached = set(frontier)
    for _ in range(tau):
        frontier = {int(graph.heads[e]) for v in frontier for e in graph.out_edges(v)
                    if live[e]} - reached
        if not frontier:
            break
        reached |= frontier
    return np.array(sorted(reached), dtype=np.int64)


def reverse_reach_set(graph: Graph, live: np.ndarray, target: int, tau: int) -> np.ndarray:
    """Nodes that reach ``target`` by live paths of length <= ``tau``."""
    return _bfs(graph.reversed, live, (int(target),), int(tau))


def ball_edges(model: DiffusionModel, tau: int, seeds) -> np.ndarray:
    """Boolean mask over the model's edges that can fire within ``tau``
    steps of ``seeds``: those with ``p > 0`` whose tail is within ``tau - 1``
    steps of ``seeds`` when every ``p > 0`` edge is live, in the graph of the
    edge's own mixture component.  Reach within ``tau`` steps depends on no
    other edge."""
    parts = [(model, 0)]
    if model.kind == MIXTURE:
        parts = zip(model.components, model.component_offsets.tolist())
    relevant = np.zeros(model.graph.num_edges, dtype=bool)
    if tau > 0:
        for part, offset in parts:
            g = part.graph
            possible = g.probs > 0.0
            near = np.zeros(g.num_nodes, dtype=bool)
            near[_bfs(g, possible, seeds, tau - 1)] = True
            relevant[offset:offset + g.num_edges] = possible & near[g.tails]
    return relevant


def pack_rows(rows: np.ndarray) -> np.ndarray:
    """Pack a ``(count, k)`` boolean matrix into ``(words, k)`` ``uint64``.

    Bit ``r`` of word ``j`` holds row ``64 * j + r``; the padding bits of
    a partial last word are zero.  The rows are packed column by column from
    the contiguous copy of their transpose, which a transposed view already
    is, and the words are returned as a transposed view.
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


def propagation_steps(graph: Graph, live: np.ndarray, seeds, tau: int):
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
    Over :attr:`Graph.reversed`, ``active`` holds the nodes that reach the
    start nodes.  Stops early after a step that activates nothing.  Padding
    bits never spread, since their live bits are zero.  Both arrays are
    updated in place by the next step, so consume them before advancing.
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
    order, starts = graph._in_order, graph._in_start
    tails_by_head = graph.tails[order]
    live_by_head = live[:, order]
    has_in = np.flatnonzero(starts[1:] > starts[:-1])
    for _ in range(tau):
        hit = frontier[:, tails_by_head] & live_by_head
        nxt = np.zeros_like(active)
        nxt[:, has_in] = np.bitwise_or.reduceat(hit, starts[has_in], axis=1)
        nxt &= ~active
        if not nxt.any():
            return
        active |= nxt
        frontier = nxt
        yield frontier, active


def reach_mask_batch(graph: Graph, live: np.ndarray, seeds, tau: int) -> np.ndarray:
    """Packed active-node masks for packed simulations.

    ``live`` is ``(words, m)`` and the result ``(words, n)``, both
    ``uint64`` as laid out by :func:`pack_rows`; ``seeds`` is as in
    :func:`propagation_steps`.  Over :attr:`Graph.reversed` from a
    :func:`start_mask`, unpacked row ``r`` matches :func:`reverse_reach_set`
    of row ``r``'s live edges and start node.
    """
    for _, active in propagation_steps(graph, live, seeds, tau):
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


def node_weighted_sums(node_weights: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """``sum_v node_weights[v] * columns[v]``, the weighted sum over the
    leading node axis of ``columns``, shaped ``columns.shape[1:]``.

    Each output adds its ``n`` terms in node order, ``acc = acc + w[v] *
    x[v]``, whatever the other outputs hold; every simulation-backed value
    (row values, pool averages) ends here.  einsum adds in that order only
    over C-contiguous node-major columns with more than one output: a
    transposed view or a lone output is summed in another order.  So the
    columns are made contiguous, and a lone output is padded with a zero
    (in float64, which einsum would cast the columns to anyway).
    """
    columns = np.ascontiguousarray(columns)
    outputs = columns.shape[1:]
    if math.prod(outputs) == 1:
        padded = np.zeros((columns.shape[0], 2))
        padded[:, 0] = columns.reshape(-1)
        return np.einsum("v,vr->r", node_weights, padded)[:1].reshape(outputs)
    return np.einsum("v,v...->...", node_weights, columns)


def row_values(graph: Graph, mask: np.ndarray, rows: int) -> np.ndarray:
    """Reach value of each of the first ``rows`` rows of a packed
    ``(words, n)`` node mask, the :func:`node_weighted_sums` of its
    ``(n, rows)`` columns: a row's value adds the weights of its active
    nodes in node order, whatever the other rows hold, and no ``(rows, n)``
    float matrix is formed."""
    return node_weighted_sums(graph.node_weights, unpack_columns(mask, rows))


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
