"""Reach within ``tau`` steps of one simulation, searched the long way.

A breadth-first search over one boolean live row that scans every live
edge at each step, for the tests to check the packed kernel against.
"""

import numpy as np


def reach_ids(graph, live, seeds, tau):
    """Sorted ids of the nodes that live paths of at most ``tau`` edges
    reach from ``seeds``; ``live`` is a boolean mask over the edge list."""
    live_ids = np.flatnonzero(live)
    reached = frontier = set(seeds)
    for _ in range(tau):
        frontier = {int(graph.heads[e]) for e in live_ids
                    if int(graph.tails[e]) in frontier} - reached
        reached = reached | frontier
    return np.array(sorted(reached), dtype=np.int64)
