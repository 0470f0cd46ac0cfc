"""Directed graphs with edge probabilities, dependence groups, and node weights.

Nodes carry dense ids ``0..n-1``.  Edge arrays are parallel: edge ``e``
runs ``tails[e] -> heads[e]``, is live with probability ``probs[e]``, and
may belong to dependence group ``groups[e]`` (``-1`` when ungrouped).  All
edges of a group must share one tail node and one probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
        for gid in np.unique(self.groups[self.groups >= 0]):
            members = np.flatnonzero(self.groups == gid)
            if np.unique(self.tails[members]).size != 1:
                raise ValueError(f"group {gid}: edges must share one tail node")
            if np.unique(self.probs[members]).size != 1:
                raise ValueError(f"group {gid}: per-edge probabilities must agree")
        # CSR views, sorted by endpoint then edge id for deterministic traversal.
        out_order = np.argsort(self.tails, kind="stable").astype(np.int64)
        in_order = np.argsort(self.heads, kind="stable").astype(np.int64)
        out_start = np.zeros(n + 1, dtype=np.int64)
        in_start = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.tails, minlength=n), out=out_start[1:])
        np.cumsum(np.bincount(self.heads, minlength=n), out=in_start[1:])
        for name, arr in (("out_order", out_order), ("in_order", in_order),
                          ("out_start", out_start), ("in_start", in_start)):
            arr.setflags(write=False)
            object.__setattr__(self, "_" + name, arr)

    @property
    def num_edges(self) -> int:
        return int(self.tails.shape[0])

    def out_edges(self, node: int) -> np.ndarray:
        """Edge ids leaving ``node``, ascending."""
        return self._out_order[self._out_start[node]:self._out_start[node + 1]]

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
# `#nodes N` header and optional `#weight v w` lines.

def format_edge_list(graph: Graph) -> str:
    lines = [f"#nodes {graph.num_nodes}"]
    for v in range(graph.num_nodes):
        w = float(graph.node_weights[v])
        if w != 1.0:
            lines.append(f"#weight {v} {w!r}")
    for edge in graph.edge_tuples():
        if len(edge) == 4:
            t, h, p, g = edge
            lines.append(f"{t} {h} {p!r} {g}")
        else:
            t, h, p = edge
            lines.append(f"{t} {h} {p!r}")
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
    """
    num_nodes = None
    weights: dict[int, float] = {}
    edges = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if parts[0] == "#nodes" and len(parts) == 2:
                num_nodes = _int64(parts[1], lineno)
            elif parts[0] == "#weight" and len(parts) == 3:
                weights[_int64(parts[1], lineno)] = float(parts[2])
            else:
                raise ValueError(f"line {lineno}: unknown directive {parts[0]!r}")
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
    if num_nodes is None:
        raise ValueError("missing `#nodes N` header")
    node_weights = np.ones(num_nodes, dtype=np.float64)
    for v, w in weights.items():
        if not 0 <= v < num_nodes:
            raise ValueError(f"#weight node {v} out of range")
        node_weights[v] = w
    return Graph.from_edges(num_nodes, edges, node_weights)


def write_edge_list(graph: Graph, path) -> None:
    Path(path).write_text(format_edge_list(graph))


def read_edge_list(path) -> Graph:
    return parse_edge_list(Path(path).read_text())
