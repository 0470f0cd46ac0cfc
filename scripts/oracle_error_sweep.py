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

from infmax import families
from infmax.bench import rebuild_failures
from infmax.exact import exact_report
from infmax.estimators import OracleConfig, required_pools


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

    # --depth is the tree's tau; polysimu pins node 0's influence at tau 2.
    model, tau = ((families.gen_tree(args.depth), args.depth) if args.family == "tree"
                  else (families.gen_polysimu(args.n), 2))
    report = exact_report(model, (0,), tau)
    pools = required_pools(0.1)
    rows = []
    for budget in (int(b) for b in args.budgets.split(",")):
        avg = rebuild_failures(model, OracleConfig(1, budget, tau), report.influence,
                               report.opt1, args.eps, args.trials, args.seed, budget,
                               threads=1) / args.trials
        pool_size = max(1, budget // pools)
        moa = rebuild_failures(model, OracleConfig(pools, pool_size, tau), report.influence,
                               report.opt1, args.eps, args.trials, args.seed, budget + 1,
                               threads=1) / args.trials
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
