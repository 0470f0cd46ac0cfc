"""Simulation-averaging influence oracles and reverse-reachability baselines.

An oracle is built once from ``pools x pool_size`` i.i.d. simulations and
then answers influence queries deterministically: each pool contributes
the average reachability value of the query set over its simulations, and
the oracle reports the median of the pool averages.  A single pool is the
plain averaging estimator; many pools trade a constant-factor sample
increase for exponentially better confidence.

Sizing follows two rules, with the constants kept verbatim and exposed:

* averaging:          ``pool_size >= c / (eps^2 * delta)`` with one pool;
* median-of-averages: ``pool_size >= 4 * c / eps^2`` with the smallest odd
  number of pools ``>= 28 * ln(1/delta)``.

Here ``c`` is the scale of the variance bound
``Var[R(T)] <= c * I(T) * max(I(T), opt1)`` for the model at hand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, islice

import numpy as np

from .graph import Graph, as_seed_tuple
# reverse_reach_set is no longer called here; it stays a module attribute
# because perfbench/layers.py wraps it at this site.
from .models import (DiffusionModel, _total_dtype, _unit_weights,
                     ball_edges, node_weighted_sums, pack_rows, reach_mask_batch, reach_rows,
                     reverse_reach_set, sample_pool, set_reaches, start_mask, unpack_rows)
from . import models, rng

POOL_SIZE_FACTOR = 4
POOL_COUNT_FACTOR = 28
TOTAL_SAMPLE_FACTOR = POOL_SIZE_FACTOR * POOL_COUNT_FACTOR  # 112

# query_many reduces as many sets per call as fit their masks and counts here,
# and subset_values and extension_values as many extensions as fit their reach
# rows and counts.
_SCORE_BLOCK_BYTES = 1 << 20

AVERAGING = "averaging"
MEDIAN_OF_AVERAGES = "median_of_averages"

FULL_SIMULATION = "full_simulation"
MARGINAL = "marginal"


@dataclass(frozen=True)
class OracleConfig:
    """Pool layout of an oracle: ``pools`` pools of ``pool_size`` simulations."""
    pools: int
    pool_size: int
    tau: int
    master_seed: int = 0

    def __post_init__(self):
        if self.pools < 1:
            raise ValueError("pool count must be at least 1")
        if self.pools > 1 and self.pools % 2 == 0:
            raise ValueError("pool count must be odd when above 1")
        if self.pool_size < 1:
            raise ValueError("pool size must be at least 1")
        if self.tau < 0:
            raise ValueError("step limit must be nonnegative")
        rng.check_master_seed(self.master_seed)

    @property
    def total_simulations(self) -> int:
        return self.pools * self.pool_size


class Oracle:
    """Immutable median-of-pool-averages influence estimator.

    Pool ``i`` owns simulation indices ``i*pool_size .. (i+1)*pool_size-1``
    of the stream keyed by ``config.master_seed``.  ``live`` is either the
    ``(total_simulations, m)`` boolean live matrix, packed once here, or its
    ``(m, ceil(total_simulations / 64))`` ``uint64`` edge rows
    (:func:`pack_rows`), kept as given; only the packed words are held.
    ``components`` (from :func:`sample_pool`) is accepted but not kept.

    On first use the oracle caches the sparse :func:`reach_rows` of every
    node, while they fit ``models._EXPLICIT_CACHE_BYTES``: brute force
    (:meth:`subset_values`) and greedy (:meth:`extension_values`) score
    from them, and :meth:`query_many` propagates arbitrary sets.
    """

    def __init__(self, model: DiffusionModel, config: OracleConfig,
                 live: np.ndarray, components: np.ndarray | None):
        self.model = model
        self.config = config
        rows, m = config.total_simulations, model.graph.num_edges
        if isinstance(live, np.ndarray) and live.dtype == np.uint64:
            if live.shape != (m, -(-rows // 64)):
                raise ValueError(f"packed live words must be {(m, -(-rows // 64))}, "
                                 f"got {live.shape}")
            self._live = live.view()
        else:
            live = np.asarray(live, dtype=bool)
            if live.shape != (rows, m):
                raise ValueError(f"live matrix must be {(rows, m)}, got {live.shape}")
            self._live = pack_rows(live)
        self._live.setflags(write=False)

    @property
    def num_nodes(self) -> int:
        return self.model.num_nodes

    def pool_averages(self, seeds) -> np.ndarray:
        """Average reachability value of ``seeds`` in each pool."""
        cfg = self.config
        mask = reach_mask_batch(self.model.graph, self._live, seeds, cfg.tau)
        return mask_pool_averages(mask, self.model.graph.node_weights,
                                  cfg.pools, cfg.pool_size)

    def query(self, seeds) -> float:
        """Median over pools of the average reachability value of ``seeds``."""
        return float(pool_median(self.pool_averages(seeds)))

    @cached_property
    def _rows(self) -> tuple | None:
        """Every node's :func:`reach_rows`, ``(start, nodes, rows)`` with the
        rows of node ``u`` at ``start[u]:start[u + 1]``, computed a block of
        sources at a time (:meth:`_computed_blocks`).  ``None``, with no
        block kept, as soon as the rows so far, at their mean bytes per
        source, would pass ``models._EXPLICIT_CACHE_BYTES`` for all ``n``
        sources: a cache too large to keep is not built first.  The bytes
        count each row's words, node id and key (:attr:`_row_keys`) and
        each source's totals (:attr:`_source_totals`, 8 bytes a pool at
        most).  Each block is copied into the end of one pair of buffers,
        which ``ndarray.resize`` grows in place, so no block is kept past
        its copy."""
        n, words = self.num_nodes, self._live.shape[1]
        start = np.zeros(n + 1, dtype=np.int64)
        nodes, rows = np.empty(0, dtype=np.int64), np.empty((0, words), dtype=np.uint64)
        done = 0
        for at, cols, block in self._computed_blocks(np.arange(n)):
            fill = start[done]
            start[done + 1:done + at.size] = fill + at[1:]
            done += at.size - 1
            held = start[done] * (16 + 8 * words) + done * 8 * self.config.pools
            if held * n > models._EXPLICIT_CACHE_BYTES * done:
                return None
            nodes.resize(start[done], refcheck=False)
            rows.resize((start[done], words), refcheck=False)
            nodes[fill:start[done]] = cols
            rows[fill:start[done]] = block
        return start, nodes, rows

    @cached_property
    def _row_keys(self) -> np.ndarray:
        """``u * n + v`` of each cached row, of source ``u`` at node ``v``:
        ascending, the keys of :func:`_union_rows` with every node a set of
        its own."""
        start, nodes, _ = self._rows
        n = start.size - 1
        return np.repeat(np.arange(n) * n, np.diff(start)) + nodes

    @cached_property
    def _source_totals(self) -> np.ndarray:
        """Per-pool activation totals ``(n, pools)`` of every node's cached
        rows, in the unit-weight accumulator (:attr:`_unit_dtype`), counted
        a block of nodes at a time."""
        start, _, rows = self._rows
        lengths = np.diff(start)
        return np.concatenate([np.zeros((0, self.config.pools), dtype=self._unit_dtype)] + [
            self._totals(np.repeat(np.arange(hi - lo), lengths[lo:hi]),
                         rows[start[lo]:start[hi]], hi - lo)
            for lo, hi in _budget_slices(lengths * self._extension_bytes()[1],
                                         _SCORE_BLOCK_BYTES)])

    @cached_property
    def _unit_dtype(self):
        """The integer accumulator of this oracle's pool totals when every
        node weight is 1.0 (:func:`_total_dtype` of ``n * pool_size``), or
        ``None``, when values take the weighted sum of count tables."""
        g = self.model.graph
        dtype = _total_dtype(g.num_nodes * self.config.pool_size)
        return dtype if dtype is not None and _unit_weights(g.node_weights) else None

    def _totals(self, segment: np.ndarray, rows: np.ndarray, count: int) -> np.ndarray:
        """Per-pool activation totals ``(count, pools)`` of packed ``rows``
        grouped by ``segment`` (:func:`_segment_sums`), in
        :attr:`_unit_dtype`."""
        cfg = self.config
        return _segment_sums(_unit_counts(rows, cfg.pools, cfg.pool_size), segment, count,
                             self._unit_dtype)

    def _computed_blocks(self, sources: np.ndarray, per_source: int = 0, per_row: int = 0):
        """Yield the :func:`reach_rows` ``(start, nodes, rows)`` of
        consecutive blocks of ``sources``.  A block holds as many sources as
        fit ``_SCORE_BLOCK_BYTES`` at ``per_source`` bytes each plus their
        rows at ``per_row`` bytes each beyond their words, counted at the
        mean row count of the blocks so far (``n`` per source before the
        first)."""
        g, live = self.model.graph, self._live
        row_bytes, lo, seen = live.shape[1] * 8 + per_row, 0, 0
        while lo < len(sources):
            mean = seen / lo if lo else g.num_nodes
            hi = lo + max(1, int(_SCORE_BLOCK_BYTES // (mean * row_bytes + per_source)))
            block = reach_rows(g, live, self.config.tau, sources[lo:hi])
            yield block
            lo, seen = min(hi, len(sources)), seen + block[1].size

    def query_many(self, seed_sets) -> np.ndarray:
        """:meth:`query` of each of ``seed_sets`` (equal-size tuples of ids),
        bit for bit, read a block at a time: the block's sets propagate
        together (:func:`set_reaches`) and their masks go through
        :func:`mask_pool_averages`, each row reduced on its own."""
        g, cfg = self.model.graph, self.config
        n, words = g.num_nodes, self._live.shape[1]
        block = max(1, _SCORE_BLOCK_BYTES // ((words + cfg.pools + 1) * max(n, 1) * 8))
        seed_sets, values = iter(seed_sets), [np.empty(0)]
        while sets := list(islice(seed_sets, block)):
            for masks in set_reaches(g, self._live, cfg.tau, _id_block(sets, n)):
                values.append(pool_median(mask_pool_averages(masks, g.node_weights, cfg.pools,
                                                             cfg.pool_size)))
        return np.concatenate(values)

    def subset_values(self, size: int) -> np.ndarray:
        """:meth:`query_many` of every ``size``-subset of the nodes, in
        lexicographic order, bit for bit.

        From the cached rows (:attr:`_rows`) the subsets are walked as
        ``(size - 1)``-prefixes in lexicographic order, each grown by every
        node above its largest member (:meth:`_grown_values`), a block at a
        time (:meth:`_prefix_blocks`).  The nodes from ``v`` on own the
        cached rows from ``start[v]`` on, so a prefix's extensions read one
        run of them.  With unit weights a prefix of one node is that node's
        cached rows and totals, and the subsets of one node are its totals
        alone.  Without the cache the subsets go through :meth:`query_many`.
        """
        n, size = self.num_nodes, int(size)
        if not 1 <= size <= n:
            raise ValueError("subset size must be in [1, n]")
        cache, dtype = self._rows, self._unit_dtype
        if cache is None:
            return self.query_many(combinations(range(n), size))
        if size == 1 and dtype is not None:
            return pool_median(self._source_totals) / self.config.pool_size
        start, nodes, rows = cache
        keys, totals = self._row_keys, None if dtype is None else self._source_totals
        # A prefix's base is its totals, or its (n, pools) float64 count table.
        single = size == 2 and dtype is not None
        base_bytes = 8 * self.config.pools * (1 if dtype is not None else n)
        values = [np.empty(0)]
        for prefixes, first, last in self._prefix_blocks(size - 1, 0 if single else 3,
                                                         base_bytes):
            count, span = last - first, start[last] - start[first]
            at = _ranges(start[first], span)
            # Prefix i's extensions are numbered from offset[i] on, by node.
            offset = np.cumsum(count) - count
            segment = keys[at] // n + np.repeat(offset - first, span)
            if single:
                union_keys, union, base = keys, rows, totals
                owner = np.repeat(prefixes[:, 0], count)
            else:
                union_keys, union = _union_rows(cache, prefixes, n)
                base = self._prefix_base(union_keys, union, len(prefixes))
                owner = np.repeat(np.arange(len(prefixes)), count)
            grown = None if totals is None else totals[_ranges(first, count)]
            values.append(self._grown_values(union_keys, union, base, owner, segment,
                                             nodes[at], rows, at, grown))
        return np.concatenate(values)

    def _prefix_blocks(self, width: int, member: int, prefix: int):
        """Yield ``(prefixes, first, last)``: the ``width``-subsets of the
        nodes that have a node above them, in lexicographic order, each
        grown by the nodes above it, cut into consecutive blocks of grown
        sets.  Block prefix ``i`` is grown by the nodes ``first[i] ..
        last[i] - 1``: only a block's first and last prefix may be cut.  A
        block holds as many grown sets as fit ``_SCORE_BLOCK_BYTES``
        (:meth:`_extension_bytes`), and at least one; each prefix adds
        ``prefix`` bytes and ``member`` rows' bytes per cached row of its
        members, counted once."""
        n = self.num_nodes
        lengths = np.diff(self._rows[0])
        entry, _, pair = self._extension_bytes()
        # Bytes to grow a prefix by the nodes from m on, descending in m.
        suffix = np.zeros(n + 1, dtype=np.int64)
        suffix[:-1] = np.cumsum((lengths * entry + pair)[::-1])[::-1]
        rising, member = -suffix, member * 8 * self._live.shape[1]
        budget, sets = _SCORE_BLOCK_BYTES, combinations(range(n), width)
        while prefixes := list(islice(sets, max(1, budget // (8 * max(width, 1))))):
            prefixes = np.array(prefixes, dtype=np.int64).reshape(len(prefixes), width)
            low = prefixes[:, -1] + 1 if width else np.zeros(1, dtype=np.int64)
            prefixes, low = prefixes[low < n], low[low < n]
            # Bytes through each prefix's last grown set; through prefix j
            # grown by the nodes up to m - 1 they are ends[j] - suffix[m].
            ends = np.cumsum(lengths[prefixes].sum(axis=1) * member + prefix + suffix[low])
            i, v = 0, int(low[0]) if low.size else n
            while i < low.size:
                limit = ends[i] - suffix[v] + budget
                j = int(np.searchsorted(ends, limit, side="right"))
                # Prefix j, the first past the limit, is grown up to node e - 1.
                if j == low.size:
                    j, e = j - 1, n
                else:
                    e = int(np.searchsorted(rising, limit - ends[j], side="right")) - 1
                    if j == i:
                        e = max(e, v + 1)
                    elif e <= low[j]:
                        j, e = j - 1, n
                block = slice(i, j + 1)
                first, last = low[block].copy(), np.full(j + 1 - i, n)
                first[0], last[-1] = v, e
                yield prefixes[block], first, last
                i, v = (j, e) if e < n else (j + 1, int(low[j + 1]) if j + 1 < low.size else n)

    def extension_values(self, base, candidates) -> np.ndarray:
        """:meth:`query_many` of ``base`` plus each node of ``candidates``,
        in order, bit for bit; ``base`` may be empty.

        ``base`` is one prefix of :meth:`_grown_values`.  From the cache
        (:attr:`_rows`) its mask is the dense ``(n, words)`` scatter of its
        members' rows, which every node's rows read without a search; every
        node is scored, a block of nodes at a time, and the candidates are
        read out.  Without the cache the rows are computed for ``base``,
        whose mask is their sparse union, and for each block of candidates
        alone (:meth:`_computed_blocks`).
        """
        g, cfg, live = self.model.graph, self.config, self._live
        n = g.num_nodes
        base, candidates = _node_ids(base, n), _node_ids(candidates, n)
        unit = self._unit_dtype is not None
        cache, values = self._rows, [np.empty(0)]
        if cache is None:
            entry, _, pair = self._extension_bytes()
            keys, union = _union_rows(reach_rows(g, live, cfg.tau, base),
                                      np.arange(base.size)[None], n)
            prefix = self._prefix_base(keys, union, 1)
            for start, nodes, rows in self._computed_blocks(candidates, pair, entry):
                count = start.size - 1
                segment = np.repeat(np.arange(count), np.diff(start))
                totals = self._totals(segment, rows, count) if unit else None
                values.append(self._grown_values(keys, union, prefix,
                                                 np.zeros(count, dtype=np.int64), segment,
                                                 nodes, rows, None, totals))
            return np.concatenate(values)
        # Every node has a cached row, so the dense mask is no larger than
        # the cache.
        start, nodes, rows = cache
        mask = np.zeros((n, rows.shape[1]), dtype=np.uint64)
        for u in base.tolist():
            mask[nodes[start[u]:start[u + 1]]] |= rows[start[u]:start[u + 1]]
        prefix = self._prefix_base(None, mask, 1)
        for at, segment in self._cache_blocks:
            values.append(self._grown_values(None, mask, prefix,
                                             np.zeros(segment[-1] + 1, dtype=np.int64), segment,
                                             nodes[at], rows[at], None, None))
        return np.concatenate(values)[candidates]

    @cached_property
    def _cache_blocks(self) -> list:
        """``(rows, segment)`` of the blocks of consecutive nodes whose
        cached rows :meth:`extension_values` grows its base by at a time
        (:func:`_budget_slices` of :meth:`_extension_bytes`, every row
        meeting the base's dense mask): the slice of the block's rows, and
        the block's node of each, counted from its first."""
        lengths = np.diff(self._rows[0])
        entry, meet, pair = self._extension_bytes()
        return [(slice(self._rows[0][lo], self._rows[0][hi]),
                 np.repeat(np.arange(hi - lo), lengths[lo:hi]))
                for lo, hi in _budget_slices(lengths * (entry + meet) + pair, _SCORE_BLOCK_BYTES)]

    def _extension_bytes(self) -> tuple[int, int, int]:
        """Bytes that :meth:`_grown_values` holds per row of a node grown
        into a prefix, per such row that meets a row of the prefix (with
        unit weights, where the met rows are taken a chunk at a time), and
        per grown set."""
        cfg, row = self.config, 8 * self._live.shape[1]
        g = math.gcd(cfg.pool_size, 64)
        # The pool units of a row, and the bytes _unit_counts gathers for them.
        if g >= 8:
            units = cfg.pools * (cfg.pool_size // g)
            gathered = units
        else:
            units = cfg.pools * _pool_segments(cfg.pools, cfg.pool_size)[2]
            gathered = 9 * units
        dtype = self._unit_dtype
        if dtype is not None:
            return 64, 2 * row + gathered + 16, (2 * units + 3 * cfg.pools) * dtype().itemsize + 64
        return 2 * row + gathered + 8 * cfg.pools + 64, 0, 8 * cfg.pools * (self.num_nodes + 1)

    def _prefix_base(self, keys, union: np.ndarray, count: int) -> np.ndarray:
        """What :meth:`_grown_values` grows each set from, for ``count``
        prefixes whose masks are the rows ``keys, union`` (``keys`` ``None``
        for one prefix's dense mask): with unit weights their per-pool
        totals ``(count, pools)``, else their count tables, node-major
        ``(n, count, pools)`` float64, the layout that
        :func:`node_weighted_sums` reads in place."""
        cfg, n = self.config, self.num_nodes
        keys = np.arange(len(union)) if keys is None else keys
        owner = keys // n
        if self._unit_dtype is not None:
            return self._totals(owner, union, count)
        table = np.zeros((n, count, cfg.pools))
        table[keys - owner * n, owner] = _node_counts(union, cfg.pools, cfg.pool_size)
        return table

    def _grown_values(self, keys, union, base, owner, segment, nodes, rows, at,
                      totals) -> np.ndarray:
        """Pool medians of prefixes grown by one node each: the one scorer
        of :meth:`subset_values` and :meth:`extension_values`.

        Prefix ``i``'s mask ``M`` is the sparse rows ``union`` at the
        ascending ``keys``, ``i * n + v`` at node ``v`` (:func:`_union_rows`),
        or, with ``keys`` ``None``, the one prefix's dense ``(n, words)``
        mask; ``base`` is its :meth:`_prefix_base`.  Grown set ``j`` adds to
        prefix ``owner[j]`` a node whose reach rows ``R`` are the entries
        ``e`` with ``segment[e] == j``, non-decreasing: each at node
        ``nodes[e]``, with words ``rows[at[e]]`` (``rows[e]`` when ``at`` is
        ``None``).  Only the columns of ``R`` can change, so each is looked
        up among ``keys`` by ``np.searchsorted`` (in a dense mask, read
        directly).

        With unit weights and sparse rows the grown set's pool totals are
        ``tot(M) + tot(R) - |M & R|``, where ``totals[j]`` is ``tot(R)``:
        only the columns that both reach are popcounted (:func:`_unit_counts`),
        a chunk of them at a time, and summed per grown set
        (:func:`_segment_sums`); ``|M & R| <= tot(R)``, so no total wraps.
        From a dense mask they are ``tot(M) + |R & ~M|``, every column of
        ``R`` popcounted and ``totals`` not read.  The median is taken on
        the integer totals and then divided, which is the median of the
        averages.  Otherwise the grown set's count table is its prefix's
        with the columns of ``R`` replaced by the counts of ``M[col] |
        row``, reduced over all ``n`` nodes in node order by
        :func:`node_weighted_sums`, as :func:`count_pool_averages` does.
        Either way the values equal :func:`mask_pool_averages` of the grown
        set's mask bit for bit."""
        cfg, n, dtype = self.config, self.num_nodes, self._unit_dtype
        if keys is not None:
            query = owner[segment] * n + nodes
            found = np.searchsorted(keys, query)
            hit = np.flatnonzero(np.append(keys, -1)[found] == query)
        if dtype is None:
            columns = rows.copy() if at is None else rows.take(at, axis=0)
            if keys is None:
                columns |= union.take(nodes, axis=0)
            else:
                columns[hit] |= union.take(found[hit], axis=0)
            table = base.take(owner, axis=1)
            table[nodes, segment] = _node_counts(columns, cfg.pools, cfg.pool_size)
            return pool_median(node_weighted_sums(self.model.graph.node_weights, table)
                               / cfg.pool_size)
        if keys is None:
            # Every entry reads its column of the dense mask, so each grown
            # set's entries are one run, never empty, that np.add.reduceat sums.
            added = union.take(nodes, axis=0)
            np.invert(added, out=added)
            added &= rows if at is None else rows.take(at, axis=0)
            runs = np.searchsorted(segment, np.arange(owner.size))
            grown = _run_sums(np.add.reduceat(_unit_counts(added, cfg.pools, cfg.pool_size),
                                              runs, axis=0, dtype=dtype), dtype)
        else:
            grown = totals.copy()
            step = max(1, _SCORE_BLOCK_BYTES // self._extension_bytes()[1])
            for lo in range(0, hit.size, step):
                met = hit[lo:lo + step]
                shared = union.take(found[met], axis=0)
                shared &= rows.take(met if at is None else at[met], axis=0)
                first, last = segment[met[0]], segment[met[-1]] + 1
                grown[first:last] -= _segment_sums(
                    _unit_counts(shared, cfg.pools, cfg.pool_size), segment[met] - first,
                    last - first, dtype)
        grown += base[owner]
        return pool_median(grown) / cfg.pool_size


def _ranges(first: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenated ``arange(first[i], first[i] + lengths[i])``."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(first + lengths - ends, lengths)


def _budget_slices(cost: np.ndarray, budget: int):
    """Yield ``(lo, hi)`` cuts of consecutive items of the given costs, each
    as long as its items' total stays within ``budget``, and at least one
    item long."""
    total = np.concatenate([[0], np.cumsum(cost)])
    lo = 0
    while lo < cost.size:
        hi = cost.size
        if total[-1] - total[lo] > budget:
            hi = max(lo + 1, int(np.searchsorted(total, total[lo] + budget, side="right")) - 1)
        yield lo, hi
        lo = hi


def _union_rows(sources: tuple, sets: np.ndarray, n: int) -> tuple:
    """The packed masks of the ``(B, k)`` sets of source indices, as sparse
    rows ``(keys, rows)``: key ``i * n + v`` for each node ``v`` that set
    ``i`` reaches, ascending, and the OR of its members' rows of
    ``sources``, ``(start, nodes, rows)``, at ``v``."""
    start, nodes, rows = sources
    members = sets.reshape(-1)
    lengths = start[members + 1] - start[members]
    at = _ranges(start[members], lengths)
    keys = nodes[at]
    if len(sets) > 1:
        keys += np.repeat(np.repeat(np.arange(len(sets)) * n, sets.shape[1]), lengths)
    if sets.shape[1] < 2:
        return keys, rows.take(at, axis=0)
    order = np.argsort(keys, kind="stable")
    keys, at = keys[order], at[order]
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    union = rows.take(at[first], axis=0)
    np.bitwise_or.at(union, np.cumsum(first)[~first] - 1, rows.take(at[~first], axis=0))
    return keys[first], union


def _segment_sums(counts: np.ndarray, segment: np.ndarray, count: int, dtype) -> np.ndarray:
    """Per-pool sums ``(count, pools)`` of the ``(h, pools, runs)`` unit
    counts grouped by ``segment``, non-decreasing, empty segments summing
    to zero.  The counts are gathered into an ``(L, count)`` padding of the
    longest segment, whose empty slots read a zero row, and summed along
    ``L``, as many slots at a time as fit ``_SCORE_BLOCK_BYTES``.  That
    runs several times faster than ``np.add.reduceat`` along the rows,
    which loops over every segment and unit."""
    h = segment.size
    if count == 1:
        return _run_sums(counts.sum(axis=0, dtype=dtype), dtype)[None]
    flat = counts.reshape(h, math.prod(counts.shape[1:]))
    slot = np.arange(h) - np.searchsorted(segment, segment)
    index = np.full((int(slot.max(initial=-1)) + 1, count), h)
    index[slot, segment] = np.arange(h)
    padded = np.concatenate([flat, np.zeros((1, flat.shape[1]), flat.dtype)])
    sums = np.zeros((count, flat.shape[1]), dtype=dtype)
    step = max(1, _SCORE_BLOCK_BYTES // max(padded[:1].nbytes * count, 1))
    for lo in range(0, len(index), step):
        sums += padded.take(index[lo:lo + step], axis=0).sum(axis=0, dtype=dtype)
    return _run_sums(sums.reshape((count,) + counts.shape[1:]), dtype)


def _node_ids(ids, n: int) -> np.ndarray:
    """A collection of node ids as an int64 array, each in ``[0, n)``."""
    ids = np.asarray(ids)
    if ids.size == 0:
        return np.zeros(0, dtype=np.int64)
    if ids.ndim != 1 or ids.dtype.kind not in "iu":
        raise ValueError("node ids must be a flat collection of integers")
    if ids.min() < 0 or ids.max() >= n:
        raise ValueError("seed id out of range")
    return ids.astype(np.int64)


def _id_block(seed_sets: list, n: int) -> np.ndarray:
    """``(C, k)`` ids of ``C`` seed sets of one size ``k >= 1``, all in ``[0, n)``."""
    try:
        ids = np.array(seed_sets)
    except ValueError:  # ragged
        ids = np.empty(0)
    if ids.ndim != 2 or ids.shape[1] == 0 or ids.dtype.kind not in "iu":
        raise ValueError("seed sets must be non-empty, equal-size tuples of integer ids")
    if ids.min() < 0 or ids.max() >= n:
        raise ValueError("seed id out of range")
    return ids


# _LOW_BITS[b] keeps the low b bits of a word, for b in 0 .. 64.
_LOW_BITS = np.append((np.uint64(1) << np.arange(64, dtype=np.uint64)) - np.uint64(1),
                      ~np.uint64(0))
_LOW_BITS.setflags(write=False)


@lru_cache(maxsize=32)
def _pool_segments(pools: int, pool_size: int) -> tuple:
    """Rows ``0 .. pools*pool_size-1`` cut at every word boundary and every
    pool boundary into segments, ``runs`` per pool: ``(word, bits, runs)``,
    where segment ``i * runs + j`` holds the rows of pool ``i`` set in its
    ``bits`` of word ``word``.  A pool cut into fewer segments is padded
    with empty ones (no bits of word 0)."""
    rows = pools * pool_size
    cuts = np.union1d(np.arange(0, rows + 1, pool_size), np.arange(0, rows, 64))
    lo, hi = cuts[:-1], cuts[1:]
    pool, at = lo // pool_size, lo // 64
    slot = np.arange(lo.size) - np.searchsorted(lo, pool * pool_size)
    runs = int(slot.max()) + 1
    word = np.zeros((pools, runs), dtype=np.int64)
    bits = np.zeros((pools, runs), dtype=np.uint64)
    word[pool, slot] = at
    bits[pool, slot] = _LOW_BITS[hi - 64 * at] & ~_LOW_BITS[lo - 64 * at]
    word, bits = word.reshape(-1), bits.reshape(-1)
    word.setflags(write=False)
    bits.setflags(write=False)
    return word, bits, runs


def _unit_counts(mask: np.ndarray, pools: int, pool_size: int) -> np.ndarray:
    """``uint8`` popcounts ``(..., n, pools, runs)`` of a packed ``(..., n,
    words)`` node mask, read as given, every pool a run of ``runs`` units:
    when ``g = gcd(pool_size, 64)`` is at least 8, the words read as
    ``uint{g}``, ``pool_size // g`` per pool, else the
    :func:`_pool_segments` of each pool, gathered and masked.  Bits past
    the last pool (padding) are counted in no pool."""
    g = math.gcd(pool_size, 64)
    if g >= 8:
        runs = pool_size // g
        # Whole rows count faster than a strided slice of them; the units
        # past the last pool are cut off after the count.
        counts = np.bitwise_count(mask.view(f"<u{g // 8}"))[..., :pools * runs]
    else:
        word, bits, runs = _pool_segments(pools, pool_size)
        units = mask[..., word]
        units &= bits
        counts = np.bitwise_count(units)
    return counts.reshape(counts.shape[:-1] + (pools, runs))


def pool_counts(mask: np.ndarray, pools: int, pool_size: int) -> np.ndarray:
    """Per-pool activation counts of a packed ``(..., n, words)`` node mask.

    Simulation ``r`` is bit ``r % 64`` of word ``r // 64``; simulations
    split into ``pools`` consecutive pools of ``pool_size``.  Returns the
    ``(..., pools, n)`` int64 count of simulations in each pool that
    activate each node; leading axes are a batch of masks, each counted on
    its own.  Pool boundaries may fall inside a word, and bits past the last
    pool (padding) are never counted.

    The units of each pool (:func:`_unit_counts`) move node-first as their
    counts widen to int64, and the result views that node-major memory,
    which the weighted sum of :func:`count_pool_averages` reads in place.
    """
    totals = _node_counts(mask, int(pools), int(pool_size))
    return totals.transpose(*range(1, totals.ndim), 0)


def _node_counts(mask: np.ndarray, pools: int, pool_size: int) -> np.ndarray:
    """The counts of :func:`pool_counts` in the node-major memory it views,
    C-contiguous ``(n, ..., pools)`` int64."""
    units = _unit_counts(mask, pools, pool_size)
    # The same node-first view as np.moveaxis(units, -3, 0), without its
    # call cost.
    d = units.ndim
    return _run_sums(units.transpose(d - 3, *range(d - 3), d - 2, d - 1), np.int64)


def _run_sums(counts: np.ndarray, dtype) -> np.ndarray:
    """``counts.sum(axis=-1)`` of ``(..., pools, runs)`` unit counts in
    ``dtype``, C-contiguous.  A sum along each run costs per pool; runs no
    longer than the pool count are added instead as strided columns of
    whole pools, one add per unit of a run."""
    runs = counts.shape[-1]
    if runs > counts.shape[-2]:
        return counts.sum(axis=-1, dtype=dtype, out=np.empty(counts.shape[:-1], dtype))
    totals = counts[..., 0].astype(dtype, order="C")
    for j in range(1, runs):
        totals += counts[..., j]
    return totals


def count_pool_averages(counts: np.ndarray, node_weights: np.ndarray,
                        pool_size: int) -> np.ndarray:
    """Pool averages ``sum_v node_weights[v] * counts[..., v] / pool_size``
    of a ``(..., pools, n)`` count table, shaped ``(..., pools)``.

    Every simulation-backed value (oracle queries, brute force, greedy and
    lossless sketch queries) ends in this one expression, so equal counts
    give values equal bit for bit, for any node weights.  The weighted sum is
    :func:`node_weighted_sums` over the node-major counts, which adds each
    pool's terms in node order, the order :func:`row_values` uses, whatever
    the leading axes and the other pools hold; with unit weights it is the
    integer total of each pool's counts.
    """
    # The same node-first view as np.moveaxis(counts, -1, 0), at an eighth of
    # its call cost.
    nodes_first = counts.transpose(-1, *range(counts.ndim - 1))
    return node_weighted_sums(node_weights, nodes_first) / pool_size


def mask_pool_averages(mask: np.ndarray, node_weights: np.ndarray, pools: int,
                       pool_size: int) -> np.ndarray:
    """Per-pool average reach value ``(..., pools)`` of a packed
    ``(..., n, words)`` node mask: :func:`count_pool_averages` of its
    :func:`pool_counts`, bit for bit.

    With unit weights a pool's value is its activation total over
    ``pool_size``: the popcounts of its units (:func:`_unit_counts`) are
    summed over nodes and runs in an integer accumulator
    (:func:`_total_dtype` of ``n * pool_size``), with no node-major count
    table and no float sum.  That total is exactly the node-order float sum
    of the counts, so no bit moves; other weights take the weighted sum.
    """
    pools, pool_size = int(pools), int(pool_size)
    dtype = _total_dtype(mask.shape[-2] * pool_size)
    if dtype is not None and _unit_weights(node_weights):
        return _unit_totals(mask, pools, pool_size, dtype) / pool_size
    return count_pool_averages(pool_counts(mask, pools, pool_size), node_weights,
                               pool_size)


def _unit_totals(mask: np.ndarray, pools: int, pool_size: int, dtype) -> np.ndarray:
    """Per-pool activation totals ``(..., pools)`` of a packed ``(..., n,
    words)`` node mask, summed in ``dtype`` from its :func:`_unit_counts`."""
    # Nodes first: a sum over two axes at once is slow when runs > 1.
    totals = _unit_counts(mask, pools, pool_size).sum(axis=-3, dtype=dtype)
    return totals.sum(axis=-1, dtype=dtype)


def pool_median(averages: np.ndarray) -> np.ndarray:
    """Median over the last axis of an odd number of pool averages: its
    middle order statistic, equal to ``np.median(averages, axis=-1)`` bit
    for bit when the values are not NaN."""
    mid = averages.shape[-1] // 2
    return np.partition(averages, mid, axis=-1)[..., mid]


def build_oracle(model: DiffusionModel, config: OracleConfig, threads: int = 1) -> Oracle:
    """Sample the oracle's simulation grid; identical for any ``threads``."""
    words, comps = sample_pool(model, config.master_seed, config.total_simulations,
                               threads=threads, packed=True)
    return Oracle(model, config, words, comps)


def seed_set_pool_averages(model: DiffusionModel, config: OracleConfig, seeds,
                           threads: int = 1) -> np.ndarray:
    """``build_oracle(model, config).pool_averages(seeds)``, bit for bit.

    Only the columns of the ``tau``-ball of ``seeds`` (:func:`ball_edges`)
    are sampled, which draws only their units, and they propagate over the
    graph of those edges; a ball of every edge takes the oracle's pool.
    """
    g = model.graph
    seeds = as_seed_tuple(g.num_nodes, seeds)
    ball = ball_edges(model, config.tau, seeds)
    edges = None if ball.all() else ball
    words, _ = sample_pool(model, config.master_seed, config.total_simulations,
                           threads=threads, packed=True, edges=edges)
    if edges is not None:
        g = Graph(g.num_nodes, g.tails[ball], g.heads[ball], g.probs[ball],
                  np.full(words.shape[0], -1, dtype=np.int64), g.node_weights)
    mask = reach_mask_batch(g, words, seeds, config.tau)
    return mask_pool_averages(mask, g.node_weights, config.pools, config.pool_size)


def required_pools(delta: float) -> int:
    """Smallest odd pool count >= 28 ln(1/delta)."""
    pools = POOL_COUNT_FACTOR * math.log(1.0 / delta)
    if not math.isfinite(pools):
        raise ValueError("the pool count is not a finite number: delta is too small")
    pools = max(1, math.ceil(pools))
    return pools if pools % 2 == 1 else pools + 1


def _pool_size(numerator: float, denominator: float) -> int:
    """``ceil(numerator / denominator)``, or ``ValueError`` when the ratio is
    not a finite number, a denominator that underflowed to 0 included."""
    size = numerator / denominator if denominator > 0.0 else math.inf
    if not math.isfinite(size):
        raise ValueError("the pool size is not a finite number: "
                         "epsilon or delta is too small")
    return math.ceil(size)


def size_for_guarantee(epsilon: float, delta: float, c: float, mode: str,
                       tau: int = 0, master_seed: int = 0) -> OracleConfig:
    """Pool layout guaranteeing an (epsilon, delta) approximation.

    Raises ``ValueError`` when ``epsilon`` or ``delta`` is so small that the
    layout is not a finite number.  ``tau`` and ``master_seed`` are passed
    through to the config so the result can be handed straight to
    :func:`build_oracle`.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if c < 1.0:
        raise ValueError("variance-bound scale c must be at least 1")
    if mode == AVERAGING:
        return OracleConfig(1, _pool_size(c, epsilon * epsilon * delta), tau, master_seed)
    if mode == MEDIAN_OF_AVERAGES:
        return OracleConfig(required_pools(delta),
                            _pool_size(POOL_SIZE_FACTOR * c, epsilon * epsilon), tau,
                            master_seed)
    raise ValueError(f"unknown oracle mode {mode!r}")


def check_eps_approx(estimate: float, truth: float, opt1: float, epsilon: float) -> bool:
    """Relative error above ``opt1``, additive error ``epsilon * opt1`` below it."""
    return abs(estimate - truth) <= epsilon * max(truth, opt1)


# ---------------------------------------------------------------------------
# Reverse-reachability search baselines

def marginal_edge_model(model: DiffusionModel) -> DiffusionModel:
    """Independent-edge model at the marginal probabilities.

    This is the model a dependence-ignoring estimator effectively samples;
    its exact influence values are the expectations of the ``marginal``
    reverse-search estimates.  It is built once per model.
    """
    return model._marginal_edge_model


_RRS_CELLS = 1 << 20  # searches x nodes per chunk: 8 MB of weighted float64 credits


def rrs_estimate(model: DiffusionModel, mode: str, num_searches: int, tau: int,
                 master_seed: int) -> np.ndarray:
    """Per-node influence estimates from reverse reachability searches.

    ``full_simulation`` draws one fresh full simulation per search and is
    unbiased for any model.  ``marginal`` flips each encountered edge
    independently with its marginal probability, which is cheap but
    deliberately ignores dependence between edges.

    Search ``t`` picks a uniform target node and credits its weight to
    every node that reaches it within ``tau`` live steps.  Each chunk of
    searches runs as one propagation over ``Graph.reversed``, one search
    per row with its target set in that row only; the credits are added
    search by search, in order, like a loop over scalar searches.  A
    search reads an edge only when its head is within ``tau - 1`` steps of
    the target, so a chunk draws only those edge bits, marked by one
    propagation over the ``p > 0`` edges from the same start rows; the
    others are 0 and never read.  At ``tau`` 0 nothing is drawn.  With
    unit weights a node's credit is the number of searches it reaches, the
    popcount of its row of the chunk's mask, added as an integer: every
    partial sum of the scalar loop is that integer count, exact below the
    ``2**33`` searches the counter allows.
    """
    if mode not in (FULL_SIMULATION, MARGINAL):
        raise ValueError(f"unknown search mode {mode!r}")
    if num_searches < 1:
        raise ValueError("need at least one search")
    num_searches = int(num_searches)
    rng.check_range(0, num_searches)
    g = model.graph
    n = g.num_nodes
    w = g.node_weights
    unit = _unit_weights(w)
    acc = np.zeros(n, dtype=np.int64 if unit else np.float64)
    # A full search reads a simulation of the model; a marginal one, of its
    # marginal_edge_model on the marginal-flip stream.
    draw, _, tests = model._edge_sampler if mode == FULL_SIMULATION else model._marginal_sampler
    # Every bit set on the p > 0 edges, the ones any simulation can hold live.
    can_live = np.where(g.probs > 0.0, ~np.uint64(0), np.uint64(0))[:, None]
    # Chunks of whole words where they hold more than one.
    chunk = max(1, _RRS_CELLS // max(n, 1))
    if chunk > 64:
        chunk -= chunk % 64
    for lo in range(0, num_searches, chunk):
        count = min(chunk, num_searches - lo)
        u = rng.sim_uniforms(master_seed, rng.STREAM_RRS_TARGET, lo, count)
        targets = np.minimum((u * n).astype(np.int64), n - 1)
        start = start_mask(n, targets)
        if tau == 0:
            mask = start
        else:
            need = None
            if tests:
                # A search reads an edge only when its head is within tau - 1
                # steps of the target, which no edge at p = 0 shortens.
                live = np.broadcast_to(can_live, (g.num_edges, start.shape[1]))
                need = reach_mask_batch(g.reversed, live, start, tau - 1)[g.heads]
            words, _ = draw(master_seed, lo, count, need)
            mask = reach_mask_batch(g.reversed, words, start, tau)
        if unit:
            # Padding bits never spread from the start mask's zero padding.
            acc += np.bitwise_count(mask).sum(axis=1, dtype=np.int64)
            continue
        # An axis-0 reduce over C-contiguous rows adds them in row order,
        # so the sums equal the scalar loop's ``acc[reached] += w[t]``.
        contrib = unpack_rows(mask, count) * w[targets][:, None]
        contrib[0] += acc
        acc = np.add.reduce(contrib, axis=0)
    return n * acc.astype(np.float64) / float(num_searches)
