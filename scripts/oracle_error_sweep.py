#!/usr/bin/env python3
"""Empirical failure-rate sweep: averaging vs median-of-averages oracles.

For a range of total simulation budgets, rebuild both oracle layouts many
times on a chosen instance and record how often the estimate of a probe
seed set violates the (eps, opt1)-approximation. Writes a CSV row per
(budget, layout).

    python scripts/oracle_error_sweep.py --family tree --depth 3 --eps 0.5 \
        --trials 400 --out sweep.csv
"""

import argparse
import csv
import sys

from infmax import families, rng
from infmax.exact import c_value, exact_report
from infmax.estimators import OracleConfig, build_oracle, check_eps_approx, required_pools


def build_instance(args):
    if args.family == "tree":
        return families.gen_tree(args.depth), args.depth
    if args.family == "polysimu":
        return families.gen_polysimu(args.n), 2
    raise SystemExit(f"unknown family {args.family}")


def failure_rate(model, config_fn, truth, opt1, eps, trials, seed, purpose):
    failures = 0
    for i in range(trials):
        config = config_fn(rng.derive_seed(seed, purpose, i))
        oracle = build_oracle(model, config)
        if not check_eps_approx(oracle.query((0,)), truth, opt1, eps):
            failures += 1
    return failures / trials


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--family", choices=("tree", "polysimu"), default="tree")
    parser.add_argument("--depth", type=int, default=3)
    parser.add_argument("--n", type=int, default=300)
    parser.add_argument("--eps", type=float, default=0.15)
    parser.add_argument("--trials", type=int, default=400)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budgets", type=str, default="60,120,240,480,960")
    parser.add_argument("--out", type=str, default=None)
    args = parser.parse_args()

    model, tau = build_instance(args)
    report = exact_report(model, (0,), tau)
    c = c_value(model, tau)
    pools = required_pools(0.1)
    rows = []
    for budget in (int(b) for b in args.budgets.split(",")):
        avg = failure_rate(
            model, lambda s: OracleConfig(1, budget, tau, s),
            report.influence, report.opt1, args.eps, args.trials, args.seed, budget)
        pool_size = max(1, budget // pools)
        moa = failure_rate(
            model, lambda s: OracleConfig(pools, pool_size, tau, s),
            report.influence, report.opt1, args.eps, args.trials, args.seed,
            budget + 1)
        rows.append({"budget": budget, "layout": "averaging", "failure_rate": avg})
        rows.append({"budget": pools * pool_size, "layout": f"moa-{pools}pools",
                     "failure_rate": moa})
        print(f"budget {budget:6d}  averaging {avg:.4f}   "
              f"moa({pools}x{pool_size}) {moa:.4f}")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["budget", "layout", "failure_rate"])
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
