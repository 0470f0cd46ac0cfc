"""Reference versions, the long way, for the tests to check against.

A breadth-first search over one boolean live row that scans every live
edge at each step, against the packed kernel, the report writer's
element-by-element conversion to JSON values, and the sampler's draw plan
built from the unit table by one cumulative sum per radix.
"""

import math
from dataclasses import asdict, is_dataclass

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


def ball_edges_by_sets(model, tau, seeds):
    """The ``tau``-ball's edge mask, one set search per model part: the
    part's ``p > 0`` edges whose tail some path of at most ``tau - 1`` such
    edges reaches from ``seeds``, in the part's own graph."""
    relevant = np.zeros(model.graph.num_edges, dtype=bool)
    if tau > 0:
        for part, _, offset in model.parts:
            g = part.graph
            possible = g.probs > 0.0
            near = np.zeros(g.num_nodes, dtype=bool)
            near[reach_ids(g, possible, seeds, tau - 1)] = True
            relevant[offset:offset + g.num_edges] = possible & near[g.tails]
    return relevant


def jsonify(obj):
    """``cli._jsonify`` one element at a time: every value goes through
    the dataclass, container, array and numpy scalar tests."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return jsonify(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return jsonify(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, float) and (math.isinf(obj) or math.isnan(obj)):
        return repr(obj)
    return obj


def draw_plan(model):
    """``models._build_draw_plan`` from the unit table's probabilities: per
    radix, one ``np.cumsum`` in choice order over the masses of the choices
    that make an edge live, giving every choice's ``[lo, hi)`` slice."""
    radices, choice_probs, edge_choice = model._units[:3]
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
