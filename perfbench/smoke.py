"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

For every workload it checks that:

* a timed run and a traced run at seed 0 pass every output check and
  report exactly the metrics that BENCHMARK.json names, each with its unit;
* a second workload seed passes every check and reports the same names;
* two traced runs at the same seed give identical work counts (every
  metric in ``count`` or ``B`` units, computed or counted at the layers,
  and ``ops.sims_per_op``).

It also checks that the benchmark fails without printing a result in a
directory that holds only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = (0, 1)


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        traced = []
        for seed in SEEDS:
            for trace in (0, 1):
                try:
                    res = result_of(run(workload, seed, trace))
                except (AssertionError, ValueError, IndexError) as exc:
                    problems.append(f"{workload} seed {seed} trace {trace}: {exc}")
                    continue
                got = {name: m["unit"] for name, m in res["metrics"].items()}
                if got != wanted[trace]:
                    problems.append(f"{workload} seed {seed} trace {trace}: metric names "
                                    f"or units differ from BENCHMARK.json")
                if not res["correct"] or res["failed"] or res["attempted"] < 1:
                    problems.append(f"{workload} seed {seed} trace {trace}: "
                                    f"correct={res['correct']} failed={res['failed']}")
                if trace and seed == SEEDS[0]:
                    traced.append(res)
        try:
            traced.append(result_of(run(workload, SEEDS[0], 1)))
        except (AssertionError, ValueError, IndexError) as exc:
            problems.append(f"{workload} repeat trace: {exc}")
        if len(traced) == 2:
            counts = [{name: m["value"] for name, m in res["metrics"].items()
                       if m["unit"] in ("count", "B")} for res in traced]
            if counts[0] != counts[1]:
                diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
                problems.append(f"{workload}: counts differ between two runs: {diff}")
        print(f"{workload}: done", flush=True)

    bare = ROOT / ".perfbench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("exact", 0, 0, cwd=bare)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            problems.append("the benchmark did not fail in a directory without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
