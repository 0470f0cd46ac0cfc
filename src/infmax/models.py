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
Every draw is vectorized over rows and edges, and :func:`sample_pool`
fills a pool in 64-aligned blocks of rows that its workers draw and pack
straight into ``uint64`` words, so a pool is held packed from the start.
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

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .graph import Graph, as_seed_tuple, read_edge_list, write_edge_list
from . import rng

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
    def _plan(self):
        return _sampling_plan(self)

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
# Sampling
#
# Each simulation owns a fixed-width block of a single keyed counter
# stream: the draw for (master_seed, sim_index, unit j) sits at stream
# word sim_index * stride + j, where stride rounds the model's unit count
# up to the generator's 4-word counter block.  A range of simulations is
# drawn in one vectorized call after an O(1) counter advance to its first
# block; a single simulation is a range of one.

def _stride(width: int) -> int:
    return ((width + 3) // 4) * 4


def _block_uniforms(master_seed: int, stream_id: int, start: int, count: int,
                    width: int) -> np.ndarray:
    g = rng.stream(master_seed, stream_id, 0)
    if width == 0:
        return np.empty((count, 0), dtype=np.float64)
    stride = _stride(width)
    g.bit_generator.advance(int(start) * (stride // 4))
    return g.random(int(count) * stride).reshape(int(count), stride)[:, :width]


def _sampling_plan(model: DiffusionModel):
    g = model.graph
    if model.kind == LT:
        # Edge e is live iff lo[e] <= u[head] < hi[e]: [lo, hi) is e's slice of
        # its head's running in-weight sum, accumulated in in_edges order
        # exactly as np.cumsum would.  Zero-weight edges get empty slices.
        order, starts = g._in_order, g._in_start
        slot = np.arange(order.size) - starts[g.heads[order]]
        ordered = g.probs[order]
        cum = np.empty_like(ordered)
        first = slot == 0
        cum[first] = ordered[first]
        for k in range(1, int(slot.max(initial=0)) + 1):
            at = np.flatnonzero(slot == k)
            cum[at] = cum[at - 1] + ordered[at]
        lo, hi = np.empty_like(cum), np.empty_like(cum)
        hi[order] = cum
        lo[order[~first]] = cum[np.flatnonzero(~first) - 1]
        lo[order[first]] = 0.0
        return lo, hi
    if model.kind == BDEP:
        # One unit per group (np.unique order), then one per loose edge (id
        # order); all members of a group share its probability.
        grouped = g.groups >= 0
        gids = np.unique(g.groups[grouped])
        loose = np.flatnonzero(~grouped)
        unit = np.empty(g.num_edges, dtype=np.int64)
        unit[grouped] = np.searchsorted(gids, g.groups[grouped])
        unit[loose] = gids.size + np.arange(loose.size)
        return unit, gids.size + loose.size
    if model.kind == MIXTURE:
        cum = np.cumsum(model.component_weights)
        cum[-1] = 1.0
        return cum
    return None


def _sample_live_block(model: DiffusionModel, master_seed: int, start: int, count: int):
    """Live masks for ``count`` consecutive simulation indices."""
    g = model.graph
    if model.kind == IC:
        u = _block_uniforms(master_seed, rng.STREAM_EDGES, start, count, g.num_edges)
        return u < g.probs, None
    if model.kind == LT:
        lo, hi = model._plan
        u = _block_uniforms(master_seed, rng.STREAM_NODES, start, count, g.num_nodes)
        at_head = u[:, g.heads]
        live = at_head < hi
        live &= at_head >= lo
        return live, None
    if model.kind == BDEP:
        unit, width = model._plan
        u = _block_uniforms(master_seed, rng.STREAM_UNITS, start, count, width)
        return u[:, unit] < g.probs, None
    if model.kind == MIXTURE:
        cum = model._plan
        u = _block_uniforms(master_seed, rng.STREAM_MIXTURE, start, count, 1)[:, 0]
        comps = np.searchsorted(cum, u, side="right").astype(np.int64)
        live = np.zeros((count, g.num_edges), dtype=bool)
        for c, comp in enumerate(model.components):
            rows = comps == c
            if not rows.any():
                continue
            sub, _ = _sample_live_block(comp, master_seed, start, count)
            off = int(model.component_offsets[c])
            live[rows, off:off + sub.shape[1]] = sub[rows]
        return live, comps
    raise ValueError(f"unknown model kind {model.kind!r}")


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
    per worker is held.  The result is independent of ``threads``.
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

class ReachScratch:
    """Reusable BFS workspace (visited epochs + queue) for one node count."""

    def __init__(self, num_nodes: int):
        self.visited = np.zeros(num_nodes, dtype=np.int64)
        self.depth = np.zeros(num_nodes, dtype=np.int64)
        self.queue = np.empty(num_nodes, dtype=np.int64)
        self.epoch = 0


def _bfs(graph: Graph, live: np.ndarray, seeds, tau: int,
         scratch: ReachScratch | None, reverse: bool) -> np.ndarray:
    if scratch is None or scratch.visited.shape[0] != graph.num_nodes:
        scratch = ReachScratch(graph.num_nodes)
    scratch.epoch += 1
    epoch = scratch.epoch
    visited, depth, queue = scratch.visited, scratch.depth, scratch.queue
    head = 0
    for s in seeds:
        visited[s] = epoch
        depth[s] = 0
        queue[head] = s
        head += 1
    tail_ptr = 0
    endpoint = graph.tails if reverse else graph.heads
    edges_of = graph.in_edges if reverse else graph.out_edges
    while tail_ptr < head:
        v = int(queue[tail_ptr])
        tail_ptr += 1
        d = int(depth[v])
        if d >= tau:
            continue
        for e in edges_of(v):
            if not live[e]:
                continue
            w = int(endpoint[e])
            if visited[w] != epoch:
                visited[w] = epoch
                depth[w] = d + 1
                queue[head] = w
                head += 1
    out = np.sort(queue[:head].copy())
    return out


def reach_set(graph: Graph, sim: Simulation, seeds, tau: int,
              scratch: ReachScratch | None = None) -> np.ndarray:
    """Nodes reachable from ``seeds`` by live paths of length <= ``tau``."""
    seeds = as_seed_tuple(graph.num_nodes, seeds)
    if tau < 0:
        raise ValueError("step limit must be nonnegative")
    return _bfs(graph, sim.live, seeds, int(tau), scratch, reverse=False)


def reach_value(graph: Graph, sim: Simulation, seeds, tau: int,
                scratch: ReachScratch | None = None) -> float:
    """Total node weight of the reachable set (its size, for unit weights)."""
    ids = reach_set(graph, sim, seeds, tau, scratch)
    return float(graph.node_weights[ids].sum())


def reverse_reach_set(graph: Graph, live: np.ndarray, target: int, tau: int,
                      scratch: ReachScratch | None = None) -> np.ndarray:
    """Nodes that reach ``target`` by live paths of length <= ``tau``."""
    return _bfs(graph, live, (int(target),), int(tau), scratch, reverse=True)


def pack_rows(rows: np.ndarray) -> np.ndarray:
    """Pack a ``(count, k)`` boolean matrix into ``(words, k)`` ``uint64``.

    Bit ``r`` of word ``j`` holds row ``64 * j + r``; the padding bits of
    a partial last word are zero.
    """
    rows = np.asarray(rows, dtype=bool)
    count, k = rows.shape
    words = -(-count // 64)
    packed = np.zeros((words * 8, k), dtype=np.uint8)
    packed[:(count + 7) // 8] = np.packbits(rows, axis=0, bitorder="little")
    by_word = np.ascontiguousarray(packed.reshape(words, 8, k).transpose(0, 2, 1))
    return by_word.view("<u8")[..., 0]


def unpack_rows(words: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` rows of packed ``words`` as a ``(count, k)`` boolean
    matrix; inverse of :func:`pack_rows`."""
    by_column = np.ascontiguousarray(words.T, dtype="<u8").view(np.uint8)
    bits = np.unpackbits(by_column, axis=1, count=int(count), bitorder="little")
    return np.ascontiguousarray(bits.T).view(bool)


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


def source_reaches(graph: Graph, live: np.ndarray, tau: int):
    """Yield the ``(b, words, n)`` :func:`reach_mask_batch` masks of single
    sources ``0 .. n-1``, ``b`` consecutive sources at a time.  A block is
    one propagation over ``live`` tiled ``b`` times, each source set in all
    of its own rows."""
    n, width = graph.num_nodes, live.shape[0]
    block = max(1, _BLOCK_CELLS // (width * max(graph.num_edges, n, 1)))
    for lo in range(0, n, block):
        b = min(block, n - lo)
        if b == 1:
            yield reach_mask_batch(graph, live, (lo,), tau)[None]
            continue
        start = np.zeros((b, width, n), dtype=np.uint64)
        start[np.arange(b), :, np.arange(lo, lo + b)] = ~np.uint64(0)
        reach = reach_mask_batch(graph, np.tile(live, (b, 1)), start.reshape(-1, n), tau)
        yield reach.reshape(b, width, n)


def reach_table(graph: Graph, live: np.ndarray, tau: int) -> np.ndarray | None:
    """``(n, words, n)`` :func:`source_reaches` of every node, or ``None``
    when they would exceed ``_EXPLICIT_CACHE_BYTES``."""
    n = graph.num_nodes
    if n * live.shape[0] * n * 8 > _EXPLICIT_CACHE_BYTES:
        return None
    table = np.empty((n, live.shape[0], n), dtype=np.uint64)
    lo = 0
    for reach in source_reaches(graph, live, tau):
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
                          graph.groups, graph.node_weights, graph.labels)
        return lt_model(graph)
    if kind == BDEP:
        return bdep_model(graph, _json_int(doc["b"], "b"))
    raise ValueError(f"unknown model kind {kind!r}")
