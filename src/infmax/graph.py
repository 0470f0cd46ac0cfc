"""Directed graphs with edge probabilities, dependence groups, and node weights.

Nodes carry dense ids ``0..n-1``.  Edge arrays are parallel: edge ``e``
runs ``tails[e] -> heads[e]``, is live with probability ``probs[e]``, and
may belong to dependence group ``groups[e]`` (``-1`` when ungrouped).  All
edges of a group must share one tail node and one probability.
"""

from __future__ import annotations

import io
import math
import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np


@dataclass(frozen=True, eq=False)
class Graph:
    num_nodes: int
    tails: np.ndarray
    heads: np.ndarray
    probs: np.ndarray
    groups: np.ndarray
    node_weights: np.ndarray

    def __post_init__(self):
        n = int(self.num_nodes)
        if n < 0:
            raise ValueError("node count must be nonnegative")
        object.__setattr__(self, "num_nodes", n)
        for name, dtype in (("tails", np.int64), ("heads", np.int64),
                            ("probs", np.float64), ("groups", np.int64),
                            ("node_weights", np.float64)):
            arr = np.asarray(getattr(self, name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        m = self.tails.shape[0]
        if self.heads.shape[0] != m or self.probs.shape[0] != m or self.groups.shape[0] != m:
            raise ValueError("edge arrays must have equal length")
        if self.node_weights.shape[0] != n:
            raise ValueError("node_weights must have one entry per node")
        if m and (self.tails.min() < 0 or self.tails.max() >= n
                  or self.heads.min() < 0 or self.heads.max() >= n):
            raise ValueError("edge endpoint out of range")
        # NaN propagates through min/max and fails every comparison.
        if m and not (self.probs.min() >= 0.0 and self.probs.max() <= 1.0):
            raise ValueError("edge probability outside [0, 1]")
        if n:
            lo, hi = float(self.node_weights.min()), float(self.node_weights.max())
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("node weights must be finite")
            if lo < 0.0:
                raise ValueError("node weights must be nonnegative")
        # Each grouped edge against its group's first edge, in one sort; the
        # smallest group id with a mismatch is named.
        grouped = np.flatnonzero(self.groups >= 0)
        if grouped.size:
            order = grouped[np.argsort(self.groups[grouped], kind="stable")]
            gids = self.groups[order]
            first = np.flatnonzero(np.diff(gids, prepend=-1))
            lead = order[np.repeat(first, np.diff(first, append=order.size))]
            bad_tail = self.tails[order] != self.tails[lead]
            bad = bad_tail | (self.probs[order] != self.probs[lead])
            if bad.any():
                gid = gids[bad.argmax()]
                if bad_tail[gids == gid].any():
                    raise ValueError(f"group {gid}: edges must share one tail node")
                raise ValueError(f"group {gid}: per-edge probabilities must agree")

    @property
    def num_edges(self) -> int:
        return int(self.tails.shape[0])

    @cached_property
    def _in_order(self) -> np.ndarray:
        """Edge ids sorted by head, then id: the in-edge CSR's columns,
        built on first use."""
        # One sort of the keys head * 2**32 + id, which fit int64 while every
        # head is below 2**31 and every id below 2**32, is several times
        # faster than a stable argsort of the heads.
        m = self.num_edges
        if self.num_nodes <= 1 << 31 and m < 1 << 32:
            order = np.sort((self.heads << 32) | np.arange(m)) & 0xFFFFFFFF
        else:
            order = np.argsort(self.heads, kind="stable").astype(np.int64)
        order.setflags(write=False)
        return order

    @cached_property
    def _in_start(self) -> np.ndarray:
        """Each node's first slot in :attr:`_in_order`, and the edge count
        last: the in-edge CSR's row starts."""
        start = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.heads, minlength=self.num_nodes), out=start[1:])
        start.setflags(write=False)
        return start

    @cached_property
    def _in_buckets(self) -> tuple:
        """The in-edges as the propagation kernel reads them, one bucket per
        distinct in-degree (:meth:`_in_layout`)."""
        return self._in_layout(padded=False)

    @cached_property
    def _in_grid(self) -> tuple:
        """The in-edges in one bucket as wide as the largest in-degree
        (:meth:`_in_layout`)."""
        return self._in_layout(padded=True)

    def _in_layout(self, padded: bool) -> tuple:
        """The nodes with in-edges ordered by in-degree, then id, and their
        in-edges laid out in buckets of heads with equal in-degree or, when
        ``padded``, in one bucket where the slots past a head's in-degree
        are padding.  A bucket of width ``d`` holds ``d`` consecutive runs,
        the ``j``-th in-edge of each of its heads in head order.

        Returns the edge id of every slot (0 for padding), their tails, the
        heads in order, one ``(d, first head, last head + 1, first slot)``
        tuple per bucket, and the padding slots, whose live words the
        kernel zeroes."""
        degree = np.diff(self._in_start)
        heads = np.flatnonzero(degree)
        heads = heads[np.argsort(degree[heads], kind="stable")]
        counts = degree[heads]
        widths = np.full(heads.size, counts[-1] if heads.size else 0) if padded else counts
        # A bucket starts where the ascending widths change.
        change = np.ones(heads.size, dtype=bool)
        change[1:] = widths[1:] != widths[:-1]
        cuts = np.flatnonzero(change).tolist() + [heads.size]
        sizes = np.diff(cuts)
        starts = np.cumsum(widths) - widths
        # Each head's slot 0 and the stride between its slots.
        base = np.repeat(starts[cuts[:-1]] - cuts[:-1], sizes) + np.arange(heads.size)
        stride = np.repeat(sizes, sizes)
        firsts = np.cumsum(counts) - counts
        rank = np.repeat(np.arange(heads.size), counts)
        slot = np.arange(counts.sum()) - firsts[rank]
        at = base[rank] + slot * stride[rank]
        edges = np.zeros(int(widths.sum()), dtype=np.int64)
        edges[at] = self._in_order[self._in_start[heads][rank] + slot]
        pads = np.ones(edges.size, dtype=bool)
        pads[at] = False
        buckets = tuple((int(widths[lo]), lo, hi, int(starts[lo]))
                        for lo, hi in zip(cuts, cuts[1:]))
        layout = (edges, self.tails[edges], heads, buckets, np.flatnonzero(pads))
        for arr in layout:
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)
        return layout

    @cached_property
    def reversed(self) -> "Graph":
        """Every edge turned around, with the same ids, probabilities and node
        weights and no groups: a group's turned edges would share no tail."""
        return Graph(self.num_nodes, self.heads, self.tails, self.probs,
                     np.full(self.num_edges, -1, dtype=np.int64), self.node_weights)

    def out_edges(self, node: int) -> np.ndarray:
        """Edge ids leaving ``node``, ascending."""
        return self.reversed.in_edges(node)

    def in_edges(self, node: int) -> np.ndarray:
        """Edge ids entering ``node``, ascending."""
        return self._in_order[self._in_start[node]:self._in_start[node + 1]]

    def edge_tuples(self) -> list[tuple]:
        """Edges as ``(tail, head, p)`` or ``(tail, head, p, group)`` tuples."""
        out = []
        for e in range(self.num_edges):
            if self.groups[e] >= 0:
                out.append((int(self.tails[e]), int(self.heads[e]),
                            float(self.probs[e]), int(self.groups[e])))
            else:
                out.append((int(self.tails[e]), int(self.heads[e]), float(self.probs[e])))
        return out

    @staticmethod
    def from_edges(num_nodes: int, edges, node_weights=None) -> "Graph":
        """Build from an iterable of ``(tail, head, p[, group_id])`` tuples."""
        edges = list(edges)
        tails = np.array([e[0] for e in edges], dtype=np.int64)
        heads = np.array([e[1] for e in edges], dtype=np.int64)
        probs = np.array([e[2] for e in edges], dtype=np.float64)
        groups = np.array([e[3] if len(e) > 3 else -1 for e in edges], dtype=np.int64)
        if node_weights is None:
            node_weights = np.ones(num_nodes, dtype=np.float64)
        return Graph(num_nodes, tails, heads, probs, groups,
                     np.asarray(node_weights, dtype=np.float64))


def as_seed_tuple(num_nodes: int, seeds) -> tuple[int, ...]:
    """Normalize a seed collection: sorted, deduplicated, validated."""
    if isinstance(seeds, (int, np.integer)):
        seeds = (int(seeds),)
    ids = sorted({int(s) for s in seeds})
    if not ids:
        raise ValueError("empty seed set")
    if ids[0] < 0 or ids[-1] >= num_nodes:
        raise ValueError("seed id out of range")
    return tuple(ids)


# ---------------------------------------------------------------------------
# Edge-list text format: one edge per line `tail head p [group_id]`, with a
# `#nodes N` header and optional `#weight v w` lines.  `#` starts a directive
# only at the start of a line.

def format_edge_list(graph: Graph) -> str:
    weights = graph.node_weights
    weighted = np.flatnonzero(weights != 1.0)
    lines = [f"#nodes {graph.num_nodes}"]
    lines += map("#weight {} {!r}".format, weighted.tolist(), weights[weighted].tolist())
    groups = [f" {g}" if g >= 0 else "" for g in graph.groups.tolist()]
    lines += map("{} {} {!r}{}".format, graph.tails.tolist(), graph.heads.tolist(),
                 graph.probs.tolist(), groups)
    return "\n".join(lines) + "\n"


def _int64(token: str, lineno: int) -> int:
    value = int(token)
    if not -2**63 <= value < 2**63:
        raise ValueError(f"line {lineno}: integer {token} out of range")
    return value


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format.

    Self-loops and repeated ``(tail, head)`` pairs are rejected here, at
    the file boundary, not in :class:`Graph`: a mixture's union graph
    concatenates its components' edge lists, which may share pairs.
    A well-formed file is read by :func:`_read_columns`; anything else
    goes through the line loop, whose errors name the line.
    """
    fields = _read_columns(text)
    if fields is None:
        return _parse_lines(text)
    return Graph(*fields)


def _directive(parts: list[str], lineno: int, header: list, weights: dict) -> None:
    """Apply one split ``#`` line: ``header`` becomes ``[N, lineno]`` for
    ``#nodes N``, and ``#weight v w`` sets ``weights[v]``."""
    if parts[0] == "#nodes" and len(parts) == 2:
        header[:] = _int64(parts[1], lineno), lineno
        if header[0] < 0:
            raise ValueError(f"line {lineno}: negative node count {header[0]}")
    elif parts[0] == "#weight" and len(parts) == 3:
        weights[_int64(parts[1], lineno)] = float(parts[2])
    else:
        raise ValueError(f"line {lineno}: unknown directive {parts[0]!r}")


def _node_weights(header: list, weights: dict) -> np.ndarray:
    """One weight per node of the ``#nodes`` header, 1 unless set by
    ``#weight``."""
    if not header:
        raise ValueError("missing `#nodes N` header")
    num_nodes, nodes_line = header
    try:
        node_weights = np.ones(num_nodes, dtype=np.float64)
    except MemoryError:
        raise ValueError(f"line {nodes_line}: no memory for {num_nodes} nodes") from None
    for v, w in weights.items():
        if not 0 <= v < num_nodes:
            raise ValueError(f"#weight node {v} out of range")
        node_weights[v] = w
    return node_weights


def _parse_lines(text: str) -> Graph:
    """The edge-list parser, one line at a time: the reference that names
    the first bad line."""
    header: list = []
    weights: dict[int, float] = {}
    edges = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            _directive(line.split(), lineno, header, weights)
            continue
        parts = line.split()
        if len(parts) not in (3, 4):
            raise ValueError(f"line {lineno}: expected `tail head p [group_id]`")
        tail, head, p = _int64(parts[0], lineno), _int64(parts[1], lineno), float(parts[2])
        if tail == head:
            raise ValueError(f"line {lineno}: self-loop on node {tail}")
        if (tail, head) in seen:
            raise ValueError(f"line {lineno}: duplicate edge ({tail}, {head})")
        seen.add((tail, head))
        if len(parts) == 4:
            edges.append((tail, head, p, _int64(parts[3], lineno)))
        else:
            edges.append((tail, head, p))
    node_weights = _node_weights(header, weights)
    return Graph.from_edges(header[0], edges, node_weights)


# The only characters the vectorized reader takes: printable ASCII, tab and
# newline.  Other line breaks that str.splitlines honours, other whitespace
# and non-ASCII text go to the line loop.
_COLUMN_BYTES = bytes(range(32, 127)) + b"\t\n"
_EDGE_LINE = re.compile(r"^[ \t]*[^#\s]", re.MULTILINE)
_COLUMNS = {3: np.dtype([("t", "<i8"), ("h", "<i8"), ("p", "<f8")]),
            4: np.dtype([("t", "<i8"), ("h", "<i8"), ("p", "<f8"), ("g", "<i8")])}


def _read_columns(text: str):
    """The :class:`Graph` fields of a well-formed edge list, its edges read
    by one ``np.loadtxt`` call, or ``None`` for :func:`_parse_lines` to
    parse: when some character is not printable ASCII, tab or newline, a
    ``#`` follows other text on its line, edge lines are absent or differ
    in width, or a token, directive or check fails.  Every value is parsed
    as :func:`_parse_lines` parses it, and every check it makes line by
    line is made on the arrays, so the fields equal its graph's bit for
    bit."""
    if not text.isascii() or text.encode("ascii").translate(None, _COLUMN_BYTES):
        return None
    header: list = []
    weights: dict[int, float] = {}
    # Each '#' must start its line: a directive, which loadtxt then skips.
    at = text.find("#")
    while at >= 0:
        end = text.find("\n", at)
        end = len(text) if end < 0 else end
        if text[text.rfind("\n", 0, at) + 1:at].strip():
            return None
        try:
            _directive(text[at:end].split(), 0, header, weights)
        except ValueError:
            return None
        at = text.find("#", end)
    first = _EDGE_LINE.search(text)
    if first is None:
        return None
    end = text.find("\n", first.start())
    width = len(text[first.start():end if end >= 0 else len(text)].split())
    if width not in _COLUMNS:
        return None
    try:
        node_weights = _node_weights(header, weights)
        with warnings.catch_warnings():
            # numpy 2.0 still reads an integer column through float, with a
            # DeprecationWarning, where int() raises.
            warnings.simplefilter("error")
            columns = np.loadtxt(io.StringIO(text), dtype=_COLUMNS[width], comments="#",
                                 ndmin=1)
    except (ValueError, Warning):
        return None
    n = header[0]
    tails, heads, probs = (np.ascontiguousarray(columns[f]) for f in "thp")
    groups = (np.ascontiguousarray(columns["g"]) if width == 4
              else np.full(tails.size, -1, dtype=np.int64))
    # Ids in range and n <= 2**31, so every key tail * n + head fits int64.
    if n > 1 << 31 or min(tails.min(), heads.min()) < 0 or max(tails.max(), heads.max()) >= n:
        return None
    keys = np.sort(tails * n + heads)
    if (tails == heads).any() or (keys[1:] == keys[:-1]).any():
        return None
    return n, tails, heads, probs, groups, node_weights


def write_edge_list(graph: Graph, path) -> None:
    Path(path).write_text(format_edge_list(graph))


def read_edge_list(path) -> Graph:
    return parse_edge_list(Path(path).read_text())
