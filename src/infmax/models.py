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
Sampling follows stream layout 4 (see :mod:`infmax.rng`): simulation
``sim_index`` reads one uniform per random unit of the model's
:attr:`DiffusionModel._units` table, the same table exact enumeration
walks, from a counter-hash stream whose bits are the uniforms' binary
digits.  The uniforms are never formed: :func:`sample_pool` decides each
live bit by comparing digits, 64 simulations per ``uint64`` word, so no
boolean live matrix is built.  Edges at p = 0 or 1 hash nothing, and a mixture hashes
its component choice plus its components' units from one shared stream.
So any one simulation is regenerated in isolation.  :func:`sample_pool`
packs every edge or only those of an edge mask, such as a seed set's
``tau``-ball (:func:`ball_edges`), the only edges its reach within ``tau``
steps depends on, and hashes only the units those edges read; every bit
depends on its own unit and simulation alone, so a column's bits do not
depend on which others are chosen.
Reachability within ``tau`` steps propagates bit-parallel over stacks of
simulations in the one packed layout (:func:`pack_rows`), from the sampler
to the pool reduction: C-contiguous ``(k, words)`` ``uint64``, a row per
edge or node, simulation ``64 j + r`` at bit ``r`` of word ``j``.  One step
of the batched kernel (:func:`propagation_steps`) advances all of them at
once, from one seed set shared by every simulation or from a packed start
mask with its own start nodes per simulation (:func:`start_mask`); reverse
searches run it over :attr:`Graph.reversed`, and :func:`set_reaches` runs
it for many seed sets at once, each over its own copy of the words.
Single sources also have a sparse routine, :func:`reach_rows`: one push
over the out-edges of many sources' frontiers at once, which keeps only
each source's nonzero node rows, so its cost follows the nodes a source
reaches, not ``n``; an oracle caches them for brute force and greedy.
:func:`reverse_reach_set` searches one simulation's reverse reach, kept
as a reference.
"""

from __future__ import annotations

import ctypes
import itertools
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
    """Fix glibc's mmap and trim thresholds at 4 MB and its malloc arenas
    at one; a no-op where the C library has no ``mallopt``.

    The sampler, the kernel and the pool reduction allocate and free
    temporaries of up to a few MB per block.  glibc's own thresholds start
    at 128 kB and rise only when a large mapped block is freed, so until
    some earlier code has freed one, each such temporary is mapped or
    trimmed away at every block and faulted in again.  The speed of a loop
    then depended on what the process had allocated before it: on a 2-core
    Xeon VM perfbench ``maximize`` ran at about 95 or 127 ops/s on the same
    code, and brute force took 3,400 page faults per call in the slow state.

    Worker threads allocate numpy buffers while they hold the GIL, so
    per-thread arenas save no lock waits; each one only keeps up to the trim
    threshold of freed memory of its own.  perfbench ``estimate`` (two
    threads) held about 2.5 MB more after 400 cycles with them.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold, m_arena_max = -1, -3, -8
    mallopt(m_mmap_threshold, 4 << 20)
    mallopt(m_trim_threshold, 4 << 20)
    mallopt(m_arena_max, 1)


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

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def min_component_weight(self) -> float:
        if self.kind != MIXTURE:
            raise ValueError("min_component_weight is defined for mixtures only")
        return float(self.component_weights.min())

    @property
    def parts(self) -> tuple:
        """``(part, weight, offset)`` of each non-mixture model this one
        draws from: a mixture's components, each with its weight and the id
        of its first edge in the union graph, or the model itself as one
        part of weight 1 at offset 0."""
        # A model that cached a tuple holding itself would be freed only by
        # the cycle collector, not when its last reference goes.
        return ((self, 1.0, 0),) if self.kind != MIXTURE else self._mixture_parts

    @cached_property
    def _mixture_parts(self) -> tuple:
        offsets = itertools.accumulate((c.graph.num_edges for c in self.components),
                                       initial=0)
        return tuple(zip(self.components, self.component_weights.tolist(), offsets))

    @cached_property
    def _units(self):
        """:func:`_build_units` of a non-mixture model, built on first use."""
        return _build_units(self)

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
        probs = np.array(self.graph.probs, dtype=np.float64)
        for part, weight, offset in self.parts:
            probs[offset:offset + part.graph.num_edges] *= weight
        return probs


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
        flat.extend((part, weight * w) for part, w, _ in model.parts)
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
    group_base = 0
    for model, _ in flat:
        g = model.graph
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
        component_weights=np.array([w for _, w in flat], dtype=np.float64))


# ---------------------------------------------------------------------------
# Random units
#
# One table of a model's random units serves exact enumeration, which walks
# every choice of every unit, and sampling, which draws one uniform per
# unit and simulation.

def _build_units(model: DiffusionModel):
    """Random-unit table of a non-mixture model: its random units, the
    probability of each unit's choices, and the choice that makes each edge
    live.

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
    return table


# ---------------------------------------------------------------------------
# Sampling, stream layout 4
#
# A non-mixture model draws one uniform per unit of its _units table
# and simulation, from its kind's counter-hash stream (see :mod:`infmax.rng`).
# Edge e is live iff lo[e] <= u < hi[e] for its unit's uniform u, where a
# unit's edge-bearing choices take consecutive slices of [0, 1) in choice
# order: a binary unit's live edges take [0, q), and an LT node's in-edges
# take consecutive slices in in_edges order, the leftover mass choosing none.
# So an edge's words are [u < hi] & ~[u < lo], two bit-sliced tests of
# rng.less_words on the same digits of u; a slice end at 0 or below is never
# passed and one at 1 or above always is.
# A mixture draws its component from STREAM_MIXTURE and its units from one
# STREAM_UNITS stream; each component decides its units in its own rows only.

_KIND_STREAM = {IC: rng.STREAM_EDGES, LT: rng.STREAM_NODES, BDEP: rng.STREAM_UNITS}

# Test x word cells per rng.less_words call, so that its per-cell arrays
# stay near 64 kB and its two rounds x cells hash arrays near 512 kB each,
# whatever the width of the selection.  A sample_pool block spans one
# call's words of every test: about _HASH_CELLS cells up to _CALL_TESTS
# tests, and more past them.  A pool that needs fewer cells, such as a seed
# set's ball, is one block and fills on the calling thread.
_HASH_CELLS = 1 << 13
# Most tests per rng.less_words call while the range is wide enough: a call
# covers at least _HASH_CELLS // _CALL_TESTS words (16), and a wider
# selection is split into blocks of tests.  A call's fixed cost is about
# 100 numpy calls whatever its size, so calls one word wide pay more per
# cell.  On gen_random_ic(2000, 8000)'s 8,000 tests, 128 words per test
# cost 118 ns per cell in 8,000 x 1 calls against 70 in 512 x 16, 66 in
# 256 x 32 and 62 in 64 x 128; at gen_random_ic(20000, 80000), 16 words
# cost 229 ns per cell in 80,000 x 1 calls against 68 in 512 x 16 (one
# core of a 2-core Xeon, numpy 2.4).
_CALL_TESTS = 512


def _build_draw_plan(model: DiffusionModel) -> tuple:
    """``(choice_unit, ends, hi_id, lo_id)`` of a non-mixture model.

    Choice ``b`` of the flat choices of :attr:`DiffusionModel._units`
    belongs to unit ``choice_unit[b]`` and its slice of ``[0, 1)`` ends at
    ``ends[b]``; two more entries end at 0 and 1.  Edge ``e`` is live iff
    ``ends[lo_id[e]] <= u < ends[hi_id[e]]`` for the uniform ``u`` of its
    unit.  A slice starts where the choice before it in its unit ends, so
    the ends of a unit's slices are shared by the edges on both sides.
    """
    radices, choice_probs, edge_choice = model._units
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
    zero = choice_probs.size
    lo_id = np.where(lo[edge_choice] > 0.0, edge_choice - 1, zero)
    hi_id = np.where(lo[edge_choice] < hi[edge_choice], edge_choice, zero)
    lo_id[hi_id == zero] = zero
    choice_unit = np.append(np.repeat(np.arange(radices.size), radices), [0, 0])
    return choice_unit, hi, hi_id, lo_id


def _word_sampler(model: DiffusionModel, edges: np.ndarray, stream_id: int | None = None):
    """``(draw, block)`` for the sorted edge ids ``edges`` of ``model``:
    ``draw(master_seed, start, count)`` returns the packed ``(len(edges),
    ceil(count / 64))`` live words of simulations ``start .. start+count-1``
    and their mixture components (``None`` for other kinds), and ``block``
    is the rows of a :func:`sample_pool` block.  A non-mixture model draws
    from its kind's stream unless ``stream_id`` names another.

    The tests are the distinct slice ends of the selected edges inside
    ``(0, 1)``, so only the units those edges read are hashed, and a
    column's bits do not depend on the other columns chosen.  Each part's
    tests decide the rows it owns (in a mixture, its component's) within
    the range.  Edge words are ``[u < hi] & ~[u < lo]`` over the test
    rows, a zero row and each part's own simulations, which stand for ends at
    0 and at 1.  Words are decided at their position in the stream, and
    shifted into place once.  Each :func:`rng.less_words` call decides at
    most ``_HASH_CELLS`` test x word cells: ``w`` words, ``_HASH_CELLS //
    tests`` but at least ``_HASH_CELLS // _CALL_TESTS`` unless the range is
    narrower, of ``_HASH_CELLS // w`` tests at a time; ``block`` is ``64 w``
    simulations at the widest.
    """
    if model.kind == MIXTURE:
        cum = np.cumsum(model.component_weights)
        cum[-1] = 1.0
        stream_id = rng.STREAM_UNITS
    else:
        cum = None
        stream_id = _KIND_STREAM[model.kind] if stream_id is None else stream_id
    parts = model.parts
    rng.check_range(max(part._units[0].size for part, _, _ in parts), 0)
    # Per part, its tests and the row code of each selected edge's slice
    # ends: a test's index among all tests, -1 for the zero row and
    # -2 - c for part c's own simulations.
    units, ends, owner, codes = [], [], [], []
    tests, num_parts = 0, len(parts)
    for c, (comp, _, off) in enumerate(parts):
        choice_unit, choice_end, hi_id, lo_id = comp._draw_plan
        ids = edges[(edges >= off) & (edges < off + comp.graph.num_edges)] - off
        ids = np.concatenate([hi_id[ids], lo_id[ids]])
        end = choice_end[ids]
        inner = (end > 0.0) & (end < 1.0)
        tested = np.unique(ids[inner])
        code = np.where(end >= 1.0, -2 - c, -1)
        code[inner] = tests + np.searchsorted(tested, ids[inner])
        units.append(choice_unit[tested])
        ends.append(choice_end[tested])
        owner.append(np.full(tested.size, c))
        codes.append(code.reshape(2, -1))
        tests += tested.size
    units, ends, owner = np.concatenate(units), np.concatenate(ends), np.concatenate(owner)
    codes = np.hstack(codes)
    hi_row, lo_row = np.where(codes >= 0, codes, tests - 1 - codes)
    # Edges whose slice starts past 0, and their start rows.
    starts = np.flatnonzero(lo_row != tests)
    lo_row = lo_row[starts]
    cells = _HASH_CELLS
    wide = max(1, cells // _CALL_TESTS, cells // max(tests, 1))

    def draw(master_seed: int, start: int, count: int):
        lead, first = start % 64, start // 64
        words = -(-(lead + count) // 64)
        # The rows each part owns within the range, packed like the words: a
        # non-mixture owns the one run of the range's bits.
        run = np.full(words, ~np.uint64(0))
        run[0] &= ~np.uint64((1 << lead) - 1)
        run[-1] &= np.uint64((1 << (lead + count - 64 * (words - 1))) - 1)
        comps = None
        if cum is None:
            own = run[None]
        else:
            # Row c of below holds the simulations whose choice is below
            # cum[c], which pick a component of 0 .. c; the last is the run.
            choice = rng.sim_uniforms(master_seed, rng.STREAM_MIXTURE, start, count)
            below = np.zeros((num_parts - 1, 64 * words), dtype=bool)
            np.less(choice, cum[:-1, None], out=below[:, lead:lead + count])
            comps = num_parts - 1 - below[:, lead:lead + count].sum(axis=0)
            own = np.vstack([np.packbits(below, axis=1, bitorder="little").view("<u8"),
                             run[None]])
            own[1:] &= ~own[:-1]
        out = np.zeros((hi_row.size, words), dtype=np.uint64)
        step = min(words, wide)
        per = max(1, cells // step)
        for lo in range(0, words, step):
            mine = own[:, lo:lo + step]
            rows = np.empty((tests + 1 + num_parts, mine.shape[1]), dtype=np.uint64)
            rows[tests], rows[tests + 1:] = 0, mine
            for t in range(0, tests, per):
                stop = min(t + per, tests)
                rows[t:stop] = rng.less_words(master_seed, stream_id, units[t:stop],
                                              ends[t:stop], first + lo, mine[owner[t:stop]])
            chunk = out[:, lo:lo + mine.shape[1]]
            np.take(rows, hi_row, axis=0, out=chunk, mode="clip")
            chunk[starts] &= ~rows.take(lo_row, axis=0)
        if not lead:
            return out, comps
        shifted = out[:, :-(-count // 64)] >> np.uint64(lead)
        shifted[:, :words - 1] |= out[:, 1:] << np.uint64(64 - lead)
        return shifted, comps

    return draw, 64 * wide


def sample_pool(model: DiffusionModel, master_seed: int, count: int,
                start: int = 0, threads: int = 1, packed: bool = False,
                edges: np.ndarray | None = None):
    """Live masks for simulation indices ``start .. start+count-1``.

    Returns ``(live, components)``.  ``live`` is a ``(count, k)`` boolean
    matrix, or with ``packed`` the ``(k, ceil(count / 64))`` ``uint64``
    words of :func:`pack_rows`, over the ``k`` edges of the boolean mask
    ``edges`` in id order (every edge when ``None``); ``components`` is an
    int array for mixtures and ``None`` otherwise.  A column does not depend
    on which other edges are chosen.  Rows are drawn in blocks of whole
    words (see :func:`_word_sampler`) dealt round-robin to ``threads``
    workers that each write their own word range, so beyond the result only
    one block's scratch per worker is held.  The result is independent of
    ``threads``.  A range past the stream layout's counter fields raises
    ``ValueError`` before anything is allocated.
    """
    rng.check_master_seed(master_seed)
    count, start = int(count), int(start)
    if min(count, start) < 0:
        raise ValueError("simulation count and start must be nonnegative")
    rng.check_range(0, start + count)
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
    words = np.empty((k, -(-count // 64)), dtype=np.uint64)
    comps = np.empty(count, dtype=np.int64) if model.kind == MIXTURE else None
    blocks = [(lo, min(lo + block, count)) for lo in range(0, count, block)]

    def fill(worker):
        for lo, hi in blocks[worker::threads]:
            block_words, block_comps = draw(master_seed, start + lo, hi - lo)
            words[:, lo // 64:-(-hi // 64)] = block_words
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

def _distances(tails: np.ndarray, heads: np.ndarray, n: int, seeds, tau: int) -> np.ndarray:
    """Fewest of the edges ``tails -> heads`` on a path from ``seeds`` to
    each of the ``n`` nodes, or ``n`` when no path of at most ``tau`` of
    them reaches it: a breadth-first search whose every level is one scan
    of the edges."""
    distance = np.full(n, n, dtype=np.int64)
    distance[list(seeds)] = 0
    for step in range(tau):
        hit = heads[distance[tails] == step]
        if not hit.size:
            break
        distance[hit] = np.minimum(distance[hit], step + 1)
    return distance


def reverse_reach_set(graph: Graph, live: np.ndarray, target: int, tau: int) -> np.ndarray:
    """Nodes that reach ``target`` by live paths of length <= ``tau``."""
    live = np.asarray(live, dtype=bool)
    n = graph.num_nodes
    return np.flatnonzero(_distances(graph.heads[live], graph.tails[live], n,
                                     (int(target),), int(tau)) < n)


def ball(model: DiffusionModel, tau: int, seeds) -> tuple[np.ndarray, np.ndarray]:
    """``(distance, edges)`` of the ``tau``-ball of ``seeds``, from one
    breadth-first search per model part over its ``p > 0`` edges.

    ``distance[v]`` is the fewest such edges on a path from ``seeds`` to
    ``v``, the least over a mixture's components, or ``n`` when no path of
    at most ``tau`` edges reaches ``v``.  ``edges`` is the
    :func:`ball_edges` mask: the ``p > 0`` edges whose tail is within
    ``tau - 1`` steps.
    """
    n = model.num_nodes
    distance = np.full(n, n, dtype=np.int64)
    relevant = np.zeros(model.graph.num_edges, dtype=bool)
    for part, _, offset in model.parts:
        g = part.graph
        possible = g.probs > 0.0
        near = _distances(g.tails[possible], g.heads[possible], n, seeds, tau)
        relevant[offset:offset + g.num_edges] = possible & (near[g.tails] < min(tau, n))
        np.minimum(distance, near, out=distance)
    return distance, relevant


def ball_edges(model: DiffusionModel, tau: int, seeds) -> np.ndarray:
    """Boolean mask over the model's edges that can fire within ``tau``
    steps of ``seeds``: those with ``p > 0`` whose tail is within ``tau - 1``
    steps of ``seeds`` when every ``p > 0`` edge is live, in the graph of the
    edge's own mixture component (:func:`ball`).  Reach within ``tau`` steps
    depends on no other edge."""
    return ball(model, tau, seeds)[1]


def pack_rows(rows: np.ndarray) -> np.ndarray:
    """Pack a ``(count, k)`` boolean matrix into C-contiguous ``(k, words)``
    ``uint64``, the one packed layout: row ``i`` of the result is column
    ``i`` of ``rows``, and bit ``r`` of its word ``j`` holds row ``64 * j +
    r``; the padding bits of a partial last word are zero.
    """
    rows = np.asarray(rows, dtype=bool)
    count, k = rows.shape
    packed = np.zeros((k, -(-count // 64) * 8), dtype=np.uint8)
    packed[:, :(count + 7) // 8] = np.packbits(np.ascontiguousarray(rows.T), axis=1,
                                               bitorder="little")
    return packed.view("<u8")


def unpack_columns(words: np.ndarray, count: int, columns=None) -> np.ndarray:
    """The first ``count`` simulations of packed ``(k, words)`` rows: a
    ``(k, count)`` ``uint8`` 0/1 matrix, the transpose of :func:`unpack_rows`,
    of every row or of the row ids ``columns`` in their order."""
    rows = words if columns is None else words.take(columns, axis=0)
    rows = np.ascontiguousarray(rows, dtype="<u8").view(np.uint8)
    return np.unpackbits(rows, axis=1, count=int(count), bitorder="little")


def unpack_rows(words: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` simulations of packed ``words`` as a ``(count,
    k)`` boolean matrix; inverse of :func:`pack_rows`."""
    return np.ascontiguousarray(unpack_columns(words, count).T).view(bool)


def start_mask(num_nodes: int, targets) -> np.ndarray:
    """Packed ``(n, words)`` start mask with node ``targets[r]`` set in
    simulation ``r`` only, one start node per simulation."""
    targets = np.asarray(targets, dtype=np.int64)
    if targets.size and (targets.min() < 0 or targets.max() >= num_nodes):
        raise ValueError("target id out of range")
    rows = np.arange(targets.shape[0])
    mask = np.zeros((int(num_nodes), -(-rows.shape[0] // 64)), dtype=np.uint64)
    bits = np.left_shift(np.uint64(1), (rows & 63).astype(np.uint64))
    np.bitwise_or.at(mask.reshape(-1), targets * mask.shape[1] + (rows >> 6), bits)
    return mask


# Per step, one numpy call costs about as much work as 1024 words, and one
# padding slot of a row of w words about w + 8: the kernel pads every head
# to the largest in-degree, in one bucket, when the padding costs less than
# the calls it saves.
_CALL_WORDS = 1024
_SLOT_WORDS = 8


def propagation_steps(graph: Graph, live: np.ndarray, seeds, tau: int):
    """Bit-parallel BFS over packed simulations, one step at a time.

    ``live`` is the ``(m, words)`` ``uint64`` edge rows of :func:`pack_rows`:
    bit ``r`` of word ``j`` is simulation ``64 * j + r``.  ``seeds`` is
    either a node collection, set in every bit (padding included), or a
    packed ``(n, words)`` start mask holding one start set per simulation
    (:func:`start_mask`).  Yields ``(newly, active)`` for steps ``0 ..
    tau``, both ``(n, words)`` packed masks: ``newly`` holds the nodes
    first activated at that step (the start nodes at step 0) and ``active``
    the union of all steps so far.  Each step gathers the frontier row of
    every edge's tail, keeps the live bits and ORs the rows of each head's
    in-edges, one reduction per in-degree bucket (:attr:`Graph._in_buckets`)
    or, when padding every head to the largest in-degree costs less than
    the calls it saves, one (:attr:`Graph._in_grid`), then scatters them to
    their heads.
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
        if active.shape != (graph.num_nodes, live.shape[1]):
            raise ValueError("start mask must be (nodes, words)")
    else:
        seeds = as_seed_tuple(graph.num_nodes, seeds)
        active = np.zeros((graph.num_nodes, live.shape[1]), dtype=np.uint64)
        active[list(seeds)] = ~np.uint64(0)
    frontier = active
    yield frontier, active
    if graph.num_edges == 0:
        return
    words = live.shape[1]
    edges, tails, heads, buckets, pads = graph._in_buckets
    padding = heads.size * buckets[-1][0] - edges.size
    if padding * (words + _SLOT_WORDS) < (len(buckets) - 1) * _CALL_WORDS:
        edges, tails, heads, buckets, pads = graph._in_grid
    live_by_head = live[edges]
    live_by_head[pads] = 0
    hit = np.empty_like(live_by_head)
    ored = np.empty((heads.size, words), dtype=np.uint64)
    blocks = [(hit[first:first + d * (hi - lo)].reshape(d, hi - lo, words), ored[lo:hi])
              for d, lo, hi, first in buckets]
    nxt = np.zeros(active.shape, dtype=np.uint64)
    for _ in range(tau):
        # Every index is in range; "clip" lets take write to hit unbuffered.
        np.take(frontier, tails, axis=0, out=hit, mode="clip")
        hit &= live_by_head
        for block, out in blocks:
            np.bitwise_or.reduce(block, axis=0, out=out)
        nxt[heads] = ored
        nxt &= ~active
        if not nxt.any():
            return
        active |= nxt
        frontier = nxt
        yield frontier, active


def reach_mask_batch(graph: Graph, live: np.ndarray, seeds, tau: int) -> np.ndarray:
    """Packed active-node masks for packed simulations.

    ``live`` is ``(m, words)`` and the result ``(n, words)``, both
    ``uint64`` as laid out by :func:`pack_rows`; ``seeds`` is as in
    :func:`propagation_steps`.  Over :attr:`Graph.reversed` from a
    :func:`start_mask`, unpacked simulation ``r`` matches
    :func:`reverse_reach_set` of its live edges and start node.
    """
    for _, active in propagation_steps(graph, live, seeds, tau):
        pass
    return active


# One block of tiled seed sets holds at most this many words x max(edges, nodes).
# Its callers are exact_values, Oracle.query_many and build_sketches, which
# propagates forward only the nodes its reverse passes leave short of k, and
# cuts each reverse pass over rank positions into blocks of the same bound
# (sketches._reverse_hits).  A bigger block makes fewer kernel calls per set,
# and its copies (np.tile here, then live_by_head in the kernel) raise peak
# memory.
# Measured on a 2-core Xeon VM (numpy 2.4.6) before sketch builds searched
# in reverse: perfbench reverse at seed 52, medians of 4 interleaved 10 s
# runs; criterion 7's time per sketch build, then all forward;
# query_many of all 1,770 pairs of gen_random_ic(60, 200) at 300 simulations
# with no table.  exact_influence_map on perfbench maximize's instances read
# 92-96 ms at every size.
#
#   cells   ops_per_s   op_p90_ms   peak_rss_mb   criterion 7   query_many
#   2^14      314.1       5.43        44.57        0.69-0.73 ms    17.3 ms
#   2^15      353.2       4.40        44.86        0.68 ms         13.3 ms
#   2^16      359.1       4.22        45.57        0.59 ms         13.2 ms
#   2^17      373.0       3.94        46.19        0.59 ms         21.8 ms
#
# 2^17 puts peak memory 3.6% above 2^14, too near the benchmark's 5% bound,
# and query_many runs slower there than at 2^14.
_BLOCK_CELLS = 1 << 16
# An oracle's cache of every node's reach_rows, with each row's key and each
# node's pool totals, is kept while it fits here (Oracle._rows).
_EXPLICIT_CACHE_BYTES = 1 << 27


def set_reaches(graph: Graph, live: np.ndarray, tau: int, ids: np.ndarray):
    """Yield the C-contiguous ``(b, n, words)`` :func:`reach_mask_batch`
    masks of the seed sets in the rows of the ``(C, k)`` node ids, ``b``
    consecutive sets at a time: one propagation over ``live`` tiled ``b``
    times along the word axis, each set started in its own tile, cut set by
    set.  A single source is a set of one; a repeated member changes
    nothing."""
    n, width = graph.num_nodes, live.shape[1]
    ids = np.asarray(ids, dtype=np.int64)
    block = max(1, _BLOCK_CELLS // (width * max(graph.num_edges, n, 1)))
    for lo in range(0, len(ids), block):
        rows = ids[lo:lo + block]
        b = len(rows)
        start = np.zeros((n, b, width), dtype=np.uint64)
        start[rows, np.arange(b)[:, None]] = ~np.uint64(0)
        tiled = live if b == 1 else np.tile(live, (1, b))
        mask = reach_mask_batch(graph, tiled, start.reshape(n, -1), tau)
        yield np.ascontiguousarray(mask.reshape(n, b, width).transpose(1, 0, 2))


def reach_rows(graph: Graph, live: np.ndarray, tau: int, sources):
    """Single-source reach within ``tau`` steps of each of ``sources``, as
    sparse rows: ``(start, nodes, rows)``, where ``rows[start[i]:start[i +
    1]]`` are the nonzero ``(words,)`` rows of the :func:`reach_mask_batch`
    of the lone source ``sources[i]``, at the ascending node ids
    ``nodes[start[i]:start[i + 1]]``.  A node that the source reaches in no
    simulation has no row; the source's own row has every bit set, padding
    included, so every source has at least one row.

    All sources push together, keyed ``owner * 2**k + node`` with ``2**k
    >= n``, with a dense map from each key to its active row (8 bytes per
    key, at most ``16 * n`` per source).  Each step expands the frontier
    rows along their out-edges, read from :attr:`Graph.reversed`'s in-edge
    CSR, and ANDs in each edge's live words.  A stable sort brings equal
    keys together, and the few repeated ones are ORed into the first.  The
    bits already active are cleared, the rest ORed into their key's active
    row or appended as a new one.  It stops after a step that adds
    nothing.  Only the frontier's out-edges are read, so a source that
    reaches few nodes costs few rows, whatever ``n`` and ``m``.
    """
    tau = int(tau)
    if tau < 0:
        raise ValueError("step limit must be nonnegative")
    n, words = graph.num_nodes, live.shape[1]
    sources = np.asarray(sources, dtype=np.int64).reshape(-1)
    if sources.size and (sources.min() < 0 or sources.max() >= n):
        raise ValueError("source id out of range")
    shift = max(n - 1, 1).bit_length()
    low = (1 << shift) - 1
    frontier = (np.arange(sources.size, dtype=np.int64) << shift) | sources
    newly = np.full((sources.size, words), ~np.uint64(0))
    # Row 0 is all zero: the active row of every key not yet reached.
    rows = np.concatenate([np.zeros((1, words), dtype=np.uint64), newly])
    slot = np.zeros(sources.size << shift, dtype=np.int64)
    slot[frontier] = np.arange(1, sources.size + 1)
    keys = [frontier]
    start, out_edges = graph.reversed._in_start, graph.reversed._in_order
    for _ in range(tau):
        node = frontier & low
        offset = start[node]
        degree = start[node + 1] - offset
        # Frontier row at[i] pushes along out-edge edges[i].
        at = np.repeat(np.arange(node.size), degree)
        if not at.size:
            break
        offset -= np.cumsum(degree) - degree
        edges = out_edges[np.repeat(offset, degree) + np.arange(at.size)]
        hit = (frontier - node)[at] | graph.heads[edges]
        order = np.argsort(hit, kind="stable")
        hit = hit[order]
        reached = live.take(edges[order], axis=0)
        reached &= newly.take(at[order], axis=0)
        first = np.empty(hit.size, dtype=bool)
        first[0] = True
        np.not_equal(hit[1:], hit[:-1], out=first[1:])
        if not first.all():
            cuts, repeats = np.flatnonzero(first), np.flatnonzero(~first)
            merged = reached.take(cuts, axis=0)
            np.bitwise_or.at(merged, np.cumsum(first)[repeats] - 1,
                             reached.take(repeats, axis=0))
            hit, reached = hit[cuts], merged
        place = slot[hit]
        active = rows.take(place, axis=0)
        reached &= np.invert(active, out=active)
        fresh = reached.any(axis=1)
        if not fresh.all():
            if not fresh.any():
                break
            hit, reached, place = hit[fresh], reached[fresh], place[fresh]
        frontier, newly = hit, reached
        known = place > 0
        if known.any():
            rows[place[known]] |= newly[known]
            new = ~known
            hit, reached = hit[new], reached[new]
        slot[hit] = np.arange(len(rows), len(rows) + hit.size)
        keys.append(hit)
        rows = np.concatenate([rows, reached])
    keys = np.concatenate(keys)
    order = np.argsort(keys)
    keys = keys[order]
    start = np.searchsorted(keys >> shift, np.arange(sources.size + 1))
    return start, keys & low, rows.take(order + 1, axis=0)


def _unit_weights(node_weights: np.ndarray) -> bool:
    """Whether every node weight is exactly 1.0, so that a weighted sum of
    integer terms is their integer total."""
    return np.count_nonzero(node_weights != 1.0) == 0


def _total_dtype(bound: int):
    """Integer accumulator for nonnegative totals of at most ``bound``:
    ``uint16`` when they fit, else ``int64``, or ``None`` from ``2**53``
    on, where a float64 sum may round and the totals would not match it."""
    if bound < 1 << 16:
        return np.uint16
    return np.int64 if bound < 1 << 53 else None


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

    With unit weights (:func:`_unit_weights`), nonnegative integer columns
    are summed as integers (:func:`_total_dtype` of ``n`` times a bound on
    their entries: 255 for one-byte columns, else their largest) and
    converted to float64 once: every product is exact and every partial
    sum an integer below ``2**53``, so the node-order float sum is that
    same integer, bit for bit.
    """
    columns = np.ascontiguousarray(columns)
    if columns.dtype.kind in "biu" and columns.size and _unit_weights(node_weights):
        top = 255 if columns.itemsize == 1 else int(columns.max())
        dtype = _total_dtype(columns.shape[0] * top)
        if dtype is not None and (columns.dtype.kind != "i" or columns.min() >= 0):
            return np.asarray(columns.sum(axis=0, dtype=dtype), dtype=np.float64)
    outputs = columns.shape[1:]
    if math.prod(outputs) == 1:
        padded = np.zeros((columns.shape[0], 2))
        padded[:, 0] = columns.reshape(-1)
        return np.einsum("v,vr->r", node_weights, padded)[:1].reshape(outputs)
    return np.einsum("v,v...->...", node_weights, columns)


def row_values(graph: Graph, mask: np.ndarray, rows: int, nodes=None) -> np.ndarray:
    """Reach value of each of the first ``rows`` simulations of a packed
    ``(n, words)`` node mask, the :func:`node_weighted_sums` of its unpacked
    ``(n, rows)`` columns: a simulation's value adds the weights of its
    active nodes in node order, whatever the others hold, and no ``(rows,
    n)`` float matrix is formed; with unit weights a value is the integer
    count of active nodes.  ``nodes``, ascending ids, limits the sum to
    their rows; a node outside them that is active in no simulation adds
    an exact zero, so leaving it out keeps every bit."""
    weights = graph.node_weights if nodes is None else graph.node_weights[nodes]
    return node_weighted_sums(weights, unpack_columns(mask, rows, nodes))


# ---------------------------------------------------------------------------
# Model files: a JSON document referencing edge-list graph files.

def save_model(model: DiffusionModel, path) -> None:
    """Write ``path`` (JSON) plus edge-list companions next to it.  The
    document goes first, so a path that cannot be written fails before any
    companion is written."""
    path = Path(path)
    stem = path.name.rsplit(".", 1)[0]
    if model.kind == MIXTURE:
        comp_paths = [path.with_name(f"{stem}.comp{c}.model")
                      for c in range(len(model.components))]
        doc = {"kind": MIXTURE,
               "components": [{"path": comp_path.name, "weight": float(weight)}
                              for comp_path, weight in zip(comp_paths, model.component_weights)]}
    else:
        graph_path = path.with_name(stem + ".edges")
        doc = {"kind": model.kind, "graph_path": graph_path.name}
        if model.kind == BDEP:
            doc["b"] = int(model.b)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    if model.kind == MIXTURE:
        for comp, comp_path in zip(model.components, comp_paths):
            save_model(comp, comp_path)
    else:
        write_edge_list(model.graph, graph_path)


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
            # Each edge's key tail * n + head, unique in a parsed edge list.
            n = graph.num_nodes
            keys = graph.tails * n + graph.heads
            order = np.argsort(keys)
            keys = keys[order]
            for t, h, w in overrides:
                t, h = _json_int(t, "lt_weights tail"), _json_int(h, "lt_weights head")
                key = t * n + h
                at = int(np.searchsorted(keys, key)) if 0 <= t < n and 0 <= h < n else keys.size
                if at == keys.size or keys[at] != key:
                    raise ValueError(f"lt_weights names missing edge ({t}, {h})")
                probs[order[at]] = _json_number(w, "lt_weights weight")
            graph = Graph(graph.num_nodes, graph.tails, graph.heads, probs,
                          graph.groups, graph.node_weights)
        return lt_model(graph)
    if kind == BDEP:
        return bdep_model(graph, _json_int(doc["b"], "b"))
    raise ValueError(f"unknown model kind {kind!r}")
