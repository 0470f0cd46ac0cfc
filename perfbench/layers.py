"""Which program functions the traced run wraps, and the per-layer metrics.

Layers are the package's modules.  Each target names a span, the module
attributes through which callers reach the function, and a counter that
derives work counts from the call's arguments and result.  Counts marked
computed in ``COMPUTED`` are derived from input sizes, not measured.
"""

from __future__ import annotations

import math

import numpy as np


def _model_units(model) -> tuple[int, int]:
    """Uniforms drawn per simulation, and how many of them are random.

    Follows the current stream layout: one draw per IC edge, per LT node,
    per BDEP group or loose edge, and for a mixture one component draw
    plus a full draw of every component.
    """
    g = model.graph
    if model.kind == "mixture":
        parts = [_model_units(c) for c in model.components]
        return (1 + sum(p[0] for p in parts),
                int(len(model.components) > 1) + sum(p[1] for p in parts))
    if model.kind == "lt":
        random = 0
        for v in range(g.num_nodes):
            p = g.probs[g.in_edges(v)]
            if p.size and max(p.max(), 1.0 - p.sum()) < 1.0:
                random += 1
        return g.num_nodes, random
    is_random = (g.probs > 0.0) & (g.probs < 1.0)
    if model.kind == "bdep":
        grouped = g.groups >= 0
        groups = np.unique(g.groups[grouped]).size
        random_groups = np.unique(g.groups[grouped & is_random]).size
        loose = ~grouped
        return groups + int(loose.sum()), random_groups + int((loose & is_random).sum())
    return g.num_edges, int(is_random.sum())


def _sample_pool_counts(args, result):
    units, random = _model_units(args["model"])
    count = int(args["count"])
    return {"sims": count, "unit_draws": count * units, "random_units": count * random}


def _reach_counts(args, result):
    live = args["live"]
    return {"row_edge_steps": int(live.shape[0]) * args["graph"].num_edges * int(args["tau"])}


def _oracle_counts(args, result):
    return {"live_matrix_bytes": args["config"].total_simulations
            * args["model"].graph.num_edges}


def _rrs_counts(args, result):
    return {"searches": int(args["num_searches"])}


def _sketch_counts(args, result):
    return {"entries": sum(sk.size for sk in result.sketches)}


def _query_counts(args, result):
    from infmax.sketches import merged_seed_sketch
    sk = args["sketches"]
    return {"lossless": int(merged_seed_sketch(sk, args["seeds"]).size < sk.k)}


def _adaptive_counts(args, result):
    return {"rounds": len(result.rounds), "validation_sims": result.validation_simulations}


def _brute_counts(args, result):
    n = args["oracle"].num_nodes
    s = min(int(args["s"]), n)
    return {"subsets": sum(math.comb(n, size) for size in range(1, s + 1))}


def _exact_counts(args, result):
    return {"outcomes": result.enumeration_size}


TARGETS = [
    ("cli.main", [("infmax.cli", "main")], None),
    ("models.load_model", [("infmax.cli", "load_model")], None),
    ("models.sample_pool", [("infmax.estimators", "sample_pool"),
                            ("infmax.sketches", "sample_pool"),
                            ("infmax.cli", "sample_pool")], _sample_pool_counts),
    ("models.reach_mask_batch", [("infmax.models", "reach_mask_batch"),
                                 ("infmax.estimators", "reach_mask_batch"),
                                 ("infmax.maximize", "reach_mask_batch")], _reach_counts),
    ("models.reverse_reach_set", [("infmax.estimators", "reverse_reach_set"),
                                  ("infmax.sketches", "reverse_reach_set")], None),
    ("estimators.build_oracle", [("infmax.estimators", "build_oracle"),
                                 ("infmax.maximize", "build_oracle"),
                                 ("infmax.cli", "build_oracle")], _oracle_counts),
    ("estimators.Oracle.query", [("infmax.estimators", "Oracle.query")], None),
    ("estimators.Oracle.pool_averages", [("infmax.estimators", "Oracle.pool_averages")], None),
    ("estimators.rrs_estimate", [("infmax.estimators", "rrs_estimate"),
                                 ("infmax.cli", "rrs_estimate")], _rrs_counts),
    ("sketches.build_sketches", [("infmax.sketches", "build_sketches"),
                                 ("infmax.cli", "build_sketches")], _sketch_counts),
    ("sketches.sketch_query", [("infmax.sketches", "sketch_query"),
                               ("infmax.cli", "sketch_query")], _query_counts),
    ("maximize.maximize_im", [("infmax.maximize", "maximize_im"),
                              ("infmax.cli", "maximize_im")], None),
    ("maximize.adaptive_maximize", [("infmax.maximize", "adaptive_maximize"),
                                    ("infmax.cli", "adaptive_maximize")], _adaptive_counts),
    ("maximize.brute_force_max", [("infmax.maximize", "brute_force_max"),
                                  ("infmax.cli", "brute_force_max")], _brute_counts),
    ("maximize.greedy_max", [("infmax.maximize", "greedy_max")], None),
    ("exact.exact_report", [("infmax.exact", "exact_report"),
                            ("infmax.cli", "exact_report")], _exact_counts),
]

COMPUTED = {
    "models.sample_pool.unit_draws",
    "models.sample_pool.random_unit_share",
    "models.reach_mask_batch.row_edge_steps",
    "estimators.build_oracle.live_matrix_bytes",
    "maximize.brute_force_max.subsets",
    "exact.exact_report.outcomes",
}

_MB = float(1 << 20)


def _rate(count, seconds) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(stats: dict) -> dict:
    """Per-layer metrics as ``name -> (value, unit)``; zeros for layers a
    workload does not exercise."""
    from spans import SpanStats
    empty = SpanStats()

    def get(name):
        return stats.get(name, empty)

    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    put("cli.main.self_s", get("cli.main").self_s, "s")
    put("models.load_model.busy_s", get("models.load_model").busy_s, "s")

    sp = get("models.sample_pool")
    sims = sp.counts.get("sims", 0)
    draws = sp.counts.get("unit_draws", 0)
    put("models.sample_pool.calls", sp.calls, "count")
    put("models.sample_pool.busy_s", sp.busy_s, "s")
    put("models.sample_pool.sims", sims, "count")
    put("models.sample_pool.sims_per_s", _rate(sims, sp.busy_s), "1/s")
    put("models.sample_pool.unit_draws", draws, "count")
    put("models.sample_pool.random_unit_share",
        sp.counts.get("random_units", 0) / draws if draws else 0.0, "share")

    rm = get("models.reach_mask_batch")
    steps = rm.counts.get("row_edge_steps", 0)
    put("models.reach_mask_batch.calls", rm.calls, "count")
    put("models.reach_mask_batch.busy_s", rm.busy_s, "s")
    put("models.reach_mask_batch.row_edge_steps", steps, "count")
    put("models.reach_mask_batch.row_edge_steps_per_s", _rate(steps, rm.busy_s), "1/s")

    rr = get("models.reverse_reach_set")
    put("models.reverse_reach_set.calls", rr.calls, "count")
    put("models.reverse_reach_set.busy_s", rr.busy_s, "s")

    bo = get("estimators.build_oracle")
    put("estimators.build_oracle.calls", bo.calls, "count")
    put("estimators.build_oracle.busy_s", bo.busy_s, "s")
    put("estimators.build_oracle.self_s", bo.self_s, "s")
    put("estimators.build_oracle.peak_alloc_mb", bo.peak_alloc / _MB, "MB")
    put("estimators.build_oracle.live_matrix_bytes",
        bo.counts.get("live_matrix_bytes", 0), "B")

    q = get("estimators.Oracle.query")
    put("estimators.Oracle.query.calls", q.calls, "count")
    put("estimators.Oracle.query.busy_s", q.busy_s, "s")
    put("estimators.Oracle.query.self_s", q.self_s, "s")
    put("estimators.Oracle.pool_averages.busy_s",
        get("estimators.Oracle.pool_averages").busy_s, "s")

    rs = get("estimators.rrs_estimate")
    searches = rs.counts.get("searches", 0)
    put("estimators.rrs_estimate.calls", rs.calls, "count")
    put("estimators.rrs_estimate.busy_s", rs.busy_s, "s")
    put("estimators.rrs_estimate.self_s", rs.self_s, "s")
    put("estimators.rrs_estimate.searches", searches, "count")
    put("estimators.rrs_estimate.searches_per_s", _rate(searches, rs.busy_s), "1/s")

    bs = get("sketches.build_sketches")
    put("sketches.build_sketches.calls", bs.calls, "count")
    put("sketches.build_sketches.busy_s", bs.busy_s, "s")
    put("sketches.build_sketches.self_s", bs.self_s, "s")
    put("sketches.build_sketches.entries", bs.counts.get("entries", 0), "count")
    put("sketches.build_sketches.peak_alloc_mb", bs.peak_alloc / _MB, "MB")

    sq = get("sketches.sketch_query")
    put("sketches.sketch_query.calls", sq.calls, "count")
    put("sketches.sketch_query.busy_s", sq.busy_s, "s")
    put("sketches.sketch_query.lossless_share",
        sq.counts.get("lossless", 0) / sq.calls if sq.calls else 0.0, "share")

    put("maximize.maximize_im.busy_s", get("maximize.maximize_im").busy_s, "s")
    ad = get("maximize.adaptive_maximize")
    put("maximize.adaptive_maximize.busy_s", ad.busy_s, "s")
    put("maximize.adaptive_maximize.rounds", ad.counts.get("rounds", 0), "count")
    put("maximize.adaptive_maximize.validation_sims",
        ad.counts.get("validation_sims", 0), "count")

    bf = get("maximize.brute_force_max")
    put("maximize.brute_force_max.calls", bf.calls, "count")
    put("maximize.brute_force_max.busy_s", bf.busy_s, "s")
    put("maximize.brute_force_max.self_s", bf.self_s, "s")
    put("maximize.brute_force_max.peak_alloc_mb", bf.peak_alloc / _MB, "MB")
    put("maximize.brute_force_max.subsets", bf.counts.get("subsets", 0), "count")

    gm = get("maximize.greedy_max")
    put("maximize.greedy_max.calls", gm.calls, "count")
    put("maximize.greedy_max.busy_s", gm.busy_s, "s")
    put("maximize.greedy_max.self_s", gm.self_s, "s")
    put("maximize.greedy_max.reach_calls",
        gm.child_calls.get("models.reach_mask_batch", 0), "count")
    put("maximize.greedy_max.peak_alloc_mb", gm.peak_alloc / _MB, "MB")

    ex = get("exact.exact_report")
    outcomes = ex.counts.get("outcomes", 0)
    put("exact.exact_report.calls", ex.calls, "count")
    put("exact.exact_report.busy_s", ex.busy_s, "s")
    put("exact.exact_report.outcomes", outcomes, "count")
    put("exact.exact_report.outcomes_per_s", _rate(outcomes, ex.busy_s), "1/s")
    put("exact.exact_report.peak_alloc_mb", ex.peak_alloc / _MB, "MB")
    return out
