"""Batch command-line front end.

Every subcommand emits a structured report carrying the command, its
parameters, the master seed, and library and stream-layout versions, so
two runs of the same command line are byte-identical.  Exit codes: 0
success, 2 input validation error, 3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import platform
import stat
import sys
from dataclasses import asdict, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, bench, families, rng
from .exact import (EnumerationBudgetError, audit_variance_bound, c_value,
                    exact_report, exact_values)
from .estimators import (AVERAGING, FULL_SIMULATION, MARGINAL, MEDIAN_OF_AVERAGES,
                         OracleConfig, build_oracle, marginal_edge_model, pool_median,
                         rrs_estimate, seed_set_pool_averages, size_for_guarantee)
from .graph import as_seed_tuple
# maximize_im is unused here but stays a module attribute: perfbench's
# traced run wraps it at infmax.cli.maximize_im.
from .maximize import (adaptive_maximize, brute_force_fits, brute_force_max, greedy_max,
                       im_oracle_config, maximize_im)  # noqa: F401
from .models import load_model, reach_mask_batch, row_values, sample_pool, save_model
from .sketches import MIN_SKETCH_SIZE, SketchSet, build_sketches, sketch_query

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _versions() -> dict:
    return {"infmax": __version__, "numpy": np.__version__,
            "python": platform.python_version(), "stream_layout": rng.STREAM_LAYOUT}


_PLAIN = frozenset((int, str, bool, type(None)))


def _finite_floats(values) -> bool:
    """Whether every item of ``values`` is a finite Python float."""
    return all(type(v) is float for v in values) and math.isfinite(sum(values))


def _jsonify(obj):
    """``obj`` as plain JSON values: dataclasses and dicts as dicts, tuples
    and arrays as lists, numpy scalars as Python scalars, and ``inf`` and
    ``nan`` as their ``repr``.  Values already plain, and lists of finite
    floats, come back as they are."""
    kind = type(obj)
    if kind is float:
        return obj if math.isfinite(obj) else repr(obj)
    if kind in _PLAIN:
        return obj
    if kind is list and _finite_floats(obj):
        return obj
    if is_dataclass(obj) and not isinstance(obj, type):
        return _jsonify(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, float) and (math.isinf(obj) or math.isnan(obj)):
        return repr(obj)
    return obj


def _write_report(path, text: str) -> None:
    """Write ``text`` to ``path``, over any file already there.

    The file is opened without ``O_TRUNC``, written from its start, and only
    then cut to the new length, and only when it is a regular file, so that
    ``/dev/stdout``, pipes and other devices still take the report.  An
    existing file is never emptied before it is rewritten: on ext4 closing
    a file that was truncated and rewritten forces its writeback
    (``auto_da_alloc``).  Rewriting a 2.4 kB report took about 0.12 ms
    that way against 0.015 ms in place on a 2-core Xeon VM.
    """
    data = text.encode()
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        f.write(data)
        if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
            f.truncate(len(data))


_ESCAPE = json.encoder.encode_basestring_ascii


def _dumps(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` of the plain values :func:`_jsonify`
    returns, without the pure-Python encoder that ``indent`` selects:
    strings are escaped by the C helper and a list of finite floats is
    joined in one call.  Dict keys must be strings, as :func:`_jsonify`
    makes them; they and any other type raise ``TypeError``.  ``indent``
    is the newline and indentation before ``value``'s closing bracket."""
    if isinstance(value, str):
        return _ESCAPE(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else json.dumps(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if _finite_floats(value):
            items = map(float.__repr__, value)
        else:
            items = (_dumps(v, inner) for v in value)
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (_ESCAPE(k) + ": " + _dumps(v, inner) for k, v in value.items())
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(args, command: str, parameters: dict, result) -> None:
    report = {"command": command, "parameters": _jsonify(parameters),
              "master_seed": args.seed, "versions": _versions(),
              "result": _jsonify(result)}
    text = _dumps(report) + "\n"
    if args.out:
        _write_report(args.out, text)
    else:
        sys.stdout.write(text)


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise ValueError(f"bad seed list {text!r}") from exc


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once: parsing leaves it unchanged, and a fresh
    parser per call leaves reference cycles for the cyclic collector."""
    parser = argparse.ArgumentParser(
        prog="infmax",
        description="Influence estimation and maximization from i.i.d. simulations")
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    parser.add_argument("--out", type=str, default=None, help="write the report here")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--threads", type=int, default=1)
    # The same flags are accepted after the subcommand; SUPPRESS keeps an
    # unset subcommand flag from clobbering a value given before it.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--out", type=str, default=argparse.SUPPRESS)
    common.add_argument("--format", choices=("json", "csv"), default=argparse.SUPPRESS)
    common.add_argument("--threads", type=int, default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="subcommand", parser_class=argparse.ArgumentParser)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("gen", help="generate a benchmark model file")
    p.add_argument("--family", required=True,
                   choices=("tree", "star", "polysimu", "mixture", "random"))
    p.add_argument("--tau", type=int, help="tree depth (edge levels)")
    p.add_argument("--leaves", type=int, default=200)
    p.add_argument("--dependent", action="store_true")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--m", type=int, default=20)
    p.add_argument("--p-lo", type=float, default=0.1)
    p.add_argument("--p-hi", type=float, default=0.9)
    p.add_argument("--model-out", help="model file to write (defaults to --out)")

    p = add_parser("simulate", help="sample simulations and report reach values")
    p.add_argument("--model", required=True)
    p.add_argument("--seeds", required=True, help="comma-separated node ids")
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--num", type=int, default=1000)
    p.add_argument("--emit-values", action="store_true")

    p = add_parser("exact", help="exact influence report by enumeration")
    p.add_argument("--model", required=True)
    p.add_argument("--seeds", required=True)
    p.add_argument("--tau", type=int, required=True)

    p = add_parser("estimate", help="oracle influence estimate")
    p.add_argument("--model", required=True)
    p.add_argument("--seeds", required=True)
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--eps", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--mode", choices=("avg", "moa"), help="default avg, with --eps/--delta")
    p.add_argument("--pools", type=int)
    p.add_argument("--pool-size", type=int)

    p = add_parser("sketch-build", help="build and persist per-node sketches")
    p.add_argument("--model", required=True)
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--pool-size", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--rank-seed", type=int, default=0)
    p.add_argument("--sketch-out", required=True)

    p = add_parser("sketch-query", help="query persisted sketches")
    p.add_argument("--sketches", required=True)
    p.add_argument("--seeds", required=True)

    p = add_parser("maximize", help="seed-set maximization")
    p.add_argument("--model", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--eps", type=float, default=0.25)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--method", choices=("brute", "greedy", "adaptive"), default="greedy")

    p = add_parser("audit-variance", help="exact variance-bound audit")
    p.add_argument("--model", required=True)
    p.add_argument("--seeds", required=True)
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--c", type=float, help="bound scale; defaults to c_value")

    p = add_parser("rrs-compare", help="reverse-search estimators vs enumeration")
    p.add_argument("--model", required=True)
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--num-searches", type=int, default=10000)

    p = add_parser("bench", help="run the acceptance benchmark")
    p.add_argument("--only", type=str, default=None,
                   help="comma-separated criterion numbers")
    return parser


def _cmd_gen(args):
    # `gen --out x.model` writes the model there and reports on stdout;
    # with --model-out the report goes to --out like any other subcommand.
    model_path = args.model_out
    if model_path is None:
        if args.out is None:
            raise ValueError("gen needs --model-out or --out for the model file")
        model_path, args.out = args.out, None
    if args.family == "tree":
        if args.tau is None:
            raise ValueError("tree family needs --tau")
        model = families.gen_tree(args.tau)
        params = {"family": "tree", "tau": args.tau}
    elif args.family == "star":
        model = families.gen_star(args.leaves, args.dependent)
        params = {"family": "star", "leaves": args.leaves, "dependent": args.dependent}
    elif args.family == "polysimu":
        model = families.gen_polysimu(args.n)
        params = {"family": "polysimu", "n": args.n}
    elif args.family == "mixture":
        model = families.gen_two_world_mixture()
        params = {"family": "mixture"}
    else:
        model = families.gen_random_ic(args.n, args.m, (args.p_lo, args.p_hi),
                                       seed=args.seed)
        params = {"family": "random", "n": args.n, "m": args.m,
                  "p_range": [args.p_lo, args.p_hi]}
    save_model(model, model_path)
    _emit(args, "gen", params,
          {"model_path": str(model_path), "kind": model.kind,
           "num_nodes": model.num_nodes, "num_edges": model.graph.num_edges})


def _cmd_simulate(args):
    model = load_model(args.model)
    seeds = as_seed_tuple(model.num_nodes, _parse_seeds(args.seeds))
    if args.num < 1:
        raise ValueError("simulation count must be at least 1")
    live, _ = sample_pool(model, args.seed, args.num, threads=args.threads, packed=True)
    values = row_values(model.graph, reach_mask_batch(model.graph, live, seeds, args.tau),
                        args.num)
    result = {"num": args.num, "mean": float(values.mean()),
              "variance": float(values.var(ddof=1)) if args.num > 1 else 0.0}
    if args.emit_values:
        result["values"] = values.tolist()
    _emit(args, "simulate", {"model": args.model, "seeds": list(seeds), "tau": args.tau,
                             "num": args.num}, result)


def _cmd_exact(args):
    model = load_model(args.model)
    seeds = as_seed_tuple(model.num_nodes, _parse_seeds(args.seeds))
    report = exact_report(model, seeds, args.tau)
    _emit(args, "exact", {"model": args.model, "seeds": list(seeds), "tau": args.tau},
          {"influence": report.influence, "variance": report.variance,
           "opt1": report.opt1, "enumeration_size": report.enumeration_size,
           "outcomes_enumerated": report.outcomes_enumerated,
           "step_probs": report.step_probs.tolist()})


def _cmd_estimate(args):
    model = load_model(args.model)
    seeds = as_seed_tuple(model.num_nodes, _parse_seeds(args.seeds))
    if args.pools is not None or args.pool_size is not None:
        if args.pools is None or args.pool_size is None:
            raise ValueError("--pools and --pool-size go together")
        if (args.eps, args.delta, args.mode) != (None, None, None):
            raise ValueError("--eps, --delta and --mode do not go with --pools/--pool-size")
        config = OracleConfig(args.pools, args.pool_size, args.tau, args.seed)
    else:
        if args.eps is None or args.delta is None:
            raise ValueError("give --eps/--delta or --pools/--pool-size")
        args.mode = args.mode or "avg"
        mode = AVERAGING if args.mode == "avg" else MEDIAN_OF_AVERAGES
        c = c_value(model, args.tau)
        config = size_for_guarantee(args.eps, args.delta, c, mode,
                                    tau=args.tau, master_seed=args.seed)
    averages = seed_set_pool_averages(model, config, seeds, threads=args.threads)
    _emit(args, "estimate",
          {"model": args.model, "seeds": list(seeds), "tau": args.tau,
           "eps": args.eps, "delta": args.delta, "mode": args.mode},
          {"estimate": float(pool_median(averages)),
           "config": {"pools": config.pools, "pool_size": config.pool_size,
                      "total_simulations": config.total_simulations},
           "pool_averages": averages.tolist()})


def _cmd_sketch_build(args):
    model = load_model(args.model)
    live, _ = sample_pool(model, args.seed, args.pool_size, threads=args.threads)
    sketch_set = build_sketches(model, live, args.tau, args.k, args.rank_seed)
    doc = {"k": sketch_set.k, "tau": sketch_set.tau, "ell": sketch_set.ell,
           "rank_seed": sketch_set.rank_seed, "master_seed": args.seed,
           "model": args.model,
           "node_weights": sketch_set.node_weights.tolist(),
           "sketches": [{"node": sk.node, "ranks": sk.ranks.tolist(),
                         "pair_nodes": sk.pair_nodes.tolist(),
                         "pair_sims": sk.pair_sims.tolist()}
                        for sk in sketch_set.sketches]}
    _write_report(args.sketch_out, json.dumps(doc) + "\n")
    _emit(args, "sketch-build",
          {"model": args.model, "tau": args.tau, "pool_size": args.pool_size,
           "k": args.k, "rank_seed": args.rank_seed},
          {"sketch_path": args.sketch_out,
           "stored_entries": int(sketch_set.start[-1])})


def _sketch_array(values, dtype, what: str) -> np.ndarray:
    """A sketch file's list ``values`` as a ``dtype`` array: JSON integers
    for ``np.int64``, JSON numbers for ``np.float64``; a bool, a string or
    a fraction where an integer belongs is refused, not cast."""
    kinds = (int,) if dtype == np.int64 else (int, float)
    try:
        if isinstance(values, list) and all(type(v) in kinds for v in values):
            return np.array(values, dtype=dtype)
    except OverflowError:
        pass
    raise ValueError(f"sketch file: {what} must be a list of JSON "
                     f"{'integers' if dtype == np.int64 else 'numbers'} in range")


def _cmd_sketch_query(args):
    doc = json.loads(Path(args.sketches).read_text())
    if not isinstance(doc, dict):
        raise ValueError("sketch file must hold a JSON object")
    for key, low in (("k", MIN_SKETCH_SIZE), ("ell", 1), ("tau", 0)):
        if not (type(doc[key]) is int and doc[key] >= low):
            raise ValueError(f"sketch file: {key} must be an integer of at least {low}, "
                             f"got {doc[key]!r}")
    if not (type(doc["rank_seed"]) is int and 0 <= doc["rank_seed"] < 1 << 64):
        raise ValueError("sketch file: rank_seed must be an integer in [0, 2**64), "
                         f"got {doc['rank_seed']!r}")
    weights = _sketch_array(doc["node_weights"], np.float64, "node_weights")
    entries = doc["sketches"]
    if not (isinstance(entries, list) and weights.shape == (len(entries),)
            and all(isinstance(entry, dict) for entry in entries)):
        raise ValueError("sketch file: sketches must hold one object per node weight")
    for v, entry in enumerate(entries):
        if not (type(entry["node"]) is int and entry["node"] == v):
            raise ValueError(f"sketch file: sketch {v} must have node {v}, "
                             f"got {entry['node']!r}")
    if not np.all(np.isfinite(weights) & (weights >= 0)):
        raise ValueError("sketch file: node weights must be finite and nonnegative")
    columns = [(_sketch_array(entry["ranks"], np.float64, "ranks"),
                _sketch_array(entry["pair_nodes"], np.int64, "pair_nodes"),
                _sketch_array(entry["pair_sims"], np.int64, "pair_sims"))
               for entry in entries]
    for ranks, nodes, sims in columns:
        if not (nodes.shape == sims.shape == ranks.shape
                and np.all((nodes >= 0) & (nodes < len(entries))
                           & (sims >= 0) & (sims < doc["ell"]))
                and np.unique(sims * len(entries) + nodes).size == ranks.size
                # build_sketches writes ranks in increasing order, and a
                # truncated query reads the k-th as the k-th smallest.
                and np.all(np.isfinite(ranks) & (ranks >= 0))
                and np.all(np.diff(ranks) >= 0)):
            raise ValueError("sketch file: a sketch's pairs are misshapen, out of range "
                             "or repeated, or its ranks are not finite, nonnegative "
                             "and nondecreasing")
    # The entries, node after node, are the set's flat arrays.
    start = np.cumsum([0] + [ranks.size for ranks, _, _ in columns])
    flat = [np.concatenate([np.empty(0, dtype)] + [column[j] for column in columns])
            for j, dtype in enumerate((np.float64, np.int64, np.int64))]
    sketch_set = SketchSet(doc["k"], doc["tau"], doc["ell"], doc["rank_seed"],
                           weights, start, *flat)
    seeds = as_seed_tuple(weights.shape[0], _parse_seeds(args.seeds))
    estimate = sketch_query(sketch_set, seeds, sketch_set.ell)
    _emit(args, "sketch-query", {"sketches": args.sketches, "seeds": list(seeds)},
          {"estimate": estimate, "k": sketch_set.k, "ell": sketch_set.ell})


def _cmd_maximize(args):
    model = load_model(args.model)
    if args.method == "adaptive":
        result = adaptive_maximize(model, args.s, args.tau, args.eps, args.delta,
                                   master_seed=args.seed, threads=args.threads)
    else:
        c = c_value(model, args.tau)
        config = im_oracle_config(model.num_nodes, args.s, args.tau, args.eps,
                                  args.delta, c, args.seed)
        # Checked here, before any sampling, as well as in brute_force_max.
        if args.method == "brute" and not brute_force_fits(model.num_nodes, args.s):
            raise ValueError("subset count exceeds the brute-force budget")
        oracle = build_oracle(model, config, threads=args.threads)
        maximizer = brute_force_max if args.method == "brute" else greedy_max
        result = maximizer(oracle, args.s)
        # Named as maximize_im names the same sizing and maximizer.
        result = replace(result, method="moa-" + result.method)
    _emit(args, "maximize",
          {"model": args.model, "s": args.s, "tau": args.tau, "eps": args.eps,
           "delta": args.delta, "method": args.method}, result)


def _cmd_audit_variance(args):
    model = load_model(args.model)
    seeds = as_seed_tuple(model.num_nodes, _parse_seeds(args.seeds))
    c = args.c if args.c is not None else c_value(model, args.tau)
    audit = audit_variance_bound(model, seeds, args.tau, c)
    _emit(args, "audit-variance",
          {"model": args.model, "seeds": list(seeds), "tau": args.tau, "c": c},
          {"lhs": audit.lhs, "rhs": audit.rhs, "holds": audit.holds,
           "influence": audit.influence, "opt1": audit.opt1})


def _cmd_rrs_compare(args):
    if args.num_searches < 1:
        raise ValueError("search count must be at least 1")
    model = load_model(args.model)
    singles = [(v,) for v in range(model.num_nodes)]
    truth = exact_values(model, args.tau, singles).tolist()
    marg_expect = exact_values(marginal_edge_model(model), args.tau, singles).tolist()
    full = rrs_estimate(model, FULL_SIMULATION, args.num_searches, args.tau, args.seed)
    marg = rrs_estimate(model, MARGINAL, args.num_searches, args.tau, args.seed)
    _emit(args, "rrs-compare",
          {"model": args.model, "tau": args.tau, "num_searches": args.num_searches},
          {"exact": truth, "marginal_expectation": marg_expect,
           "full_estimates": full.tolist(), "marginal_estimates": marg.tolist(),
           "true_argmax": int(np.argmax(truth)),
           "full_argmax": int(np.argmax(full)),
           "marginal_argmax": int(np.argmax(marg))})


def _cmd_bench(args):
    only = None
    if args.only:
        try:
            only = {int(part) for part in args.only.split(",")}
        except ValueError:
            raise ValueError(f"--only takes comma-separated criterion numbers "
                             f"{sorted(bench.ALL_CRITERIA)}, got {args.only!r}") from None
    results = bench.run_all(args.seed, args.threads, only)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["criterion", "passed", "metrics"])
        for r in results:
            writer.writerow([r.name, r.passed, json.dumps(_jsonify(r.metrics))])
        text = buf.getvalue()
        if args.out:
            _write_report(args.out, text)
        else:
            sys.stdout.write(text)
    else:
        payload = [{"criterion": r.name, "passed": r.passed,
                    "metrics": _jsonify(r.metrics), "notes": r.notes,
                    "runtime_s": r.runtime_s} for r in results]
        _emit(args, "bench", {"only": sorted(only) if only else None}, payload)
    sys.stderr.write(bench.results_table(results) + "\n")
    return EXIT_OK if all(r.passed for r in results) else 1


_COMMANDS = {
    "gen": _cmd_gen,
    "simulate": _cmd_simulate,
    "exact": _cmd_exact,
    "estimate": _cmd_estimate,
    "sketch-build": _cmd_sketch_build,
    "sketch-query": _cmd_sketch_query,
    "maximize": _cmd_maximize,
    "audit-variance": _cmd_audit_variance,
    "rrs-compare": _cmd_rrs_compare,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    if args.threads < 1:
        sys.stderr.write(f"error: --threads must be at least 1, got {args.threads}\n")
        return EXIT_USAGE
    if args.format == "csv" and args.subcommand != "bench":
        sys.stderr.write("csv output is only supported for bench\n")
        return EXIT_USAGE
    handler = _COMMANDS[args.subcommand]
    try:
        code = handler(args)
    except EnumerationBudgetError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BUDGET
    except (ValueError, OSError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    return EXIT_OK if code is None else code


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
