"""Benchmark runner for infmax: one workload per invocation.

    python3 perfbench/run.py --workload estimate --seed 0 --seconds 20 --trace 0

The program is imported from ``src/`` next to this directory and nowhere
else; without it the runner exits with code 2 and prints no result.
With ``--trace 0`` it times the workload with tracing off for
``--seconds`` and reports the end-to-end metrics, with timings scaled to
a reference host speed (see ``hostspeed``) and the raw figures printed
beside them.  With ``--trace 1`` it runs each instance variant's cycle
once untraced, once traced and once under ``tracemalloc``, and reports
the per-layer metrics.  Human-readable lines go to standard output
first; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spans and a full result record are written
under ``.perfbench_run/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# Pin BLAS pools to one thread so an op's thread count is what its own
# arguments ask for; set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
EXIT_NO_PROGRAM = 2


def load_program():
    """Import infmax from ``src/`` of the checkout, or exit without a result."""
    src = ROOT / "src"
    if not (src / "infmax" / "__init__.py").is_file():
        sys.stderr.write(f"error: no infmax sources under {src}\n")
        raise SystemExit(EXIT_NO_PROGRAM)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import infmax
    if Path(infmax.__file__).resolve().parent != (src / "infmax").resolve():
        sys.stderr.write(f"error: infmax imported from {infmax.__file__}, not {src}\n")
        raise SystemExit(EXIT_NO_PROGRAM)


def p90(values) -> float:
    """90th percentile, interpolated linearly between order statistics."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class Runner:
    """Runs op cycles of one workload and keeps per-op records."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies: list[float] = []
        self.kinds: list[str] = []
        self.worlds: list[int] = []
        self.failures: list[str] = []   # every failure, warm-up included
        self.failed = 0                  # failed ops among the recorded ones

    def run_cycle(self, index: int, record: bool = True, tracer=None) -> float:
        """Run cycle ``index``; return the time spent inside its ops."""
        from workloads import CheckFailed
        busy = 0.0
        for j, op in enumerate(self.workload.cycle(index)):
            op_id = index * 1000 + j
            error = None
            start = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.op_scope(op_id):
                        output = op.run()
                else:
                    output = op.run()
            except Exception as exc:  # an op that raises counts as failed
                error = f"{op.kind}: {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            busy += elapsed
            worlds = 0
            if error is None:
                try:
                    worlds = op.check(output)
                except CheckFailed as exc:
                    error = f"{op.kind}: check failed: {exc}"
                except Exception as exc:
                    error = f"{op.kind}: check raised {type(exc).__name__}: {exc}"
            if error is not None:
                self.failures.append(error)
            if record:
                self.failed += error is not None
                self.latencies.append(elapsed)
                self.kinds.append(op.kind)
                self.worlds.append(worlds)
        return busy


def environment(workload, seed: int) -> dict:
    """Machine and library facts recorded with every result (read-only)."""
    import numpy as np
    import platform

    def read(path: str) -> str | None:
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpu_model = "unknown"
    info = read("/proc/cpuinfo") or ""
    for line in info.splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, kind, size = read(base + "/level"), read(base + "/type"), read(base + "/size")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
            "L2": caches.get("L2", "unknown"), "L3": caches.get("L3", "unknown"),
            "numpy": np.__version__, "python": platform.python_version(),
            "threads": workload.threads, "workload_seed": seed,
            "working_set_computed": workload.working_set()}


def make_workload(args, tmp: Path):
    from workloads import SIZES, WORKLOADS
    cls = WORKLOADS[args.workload]
    return cls(args.seed, SIZES["tiny" if args.tiny else "full"], tmp)


def timed_setup(args, tmp: Path):
    """Set the workload up ``SETUP_REPEATS`` times; keep the last instance.

    Returns the workload, the raw setup times and the kernel times taken
    before each setup and after the last.
    """
    import hostspeed
    times, kernel = [], [hostspeed.kernel_seconds()]
    workload = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = make_workload(args, tmp)
        workload.setup()
        times.append(time.perf_counter() - start)
        kernel.append(hostspeed.kernel_seconds())
    return workload, times, kernel


def run_timed(args, tmp: Path) -> dict:
    """Closed loop over whole cycles until ``--seconds`` have passed.

    Timings are scaled to the reference host speed (see ``hostspeed``);
    the raw figures are printed next to them.
    """
    import hostspeed
    workload, setup_times, setup_kernel = timed_setup(args, tmp)
    runner = Runner(workload)
    runner.run_cycle(0, record=False)           # warm-up, checked but not timed
    warm_failures = len(runner.failures)
    kernel = [hostspeed.kernel_seconds()]
    cycle_ops = []
    start = time.perf_counter()
    while True:
        before = len(runner.latencies)
        runner.run_cycle(len(cycle_ops) + 1)
        cycle_ops.append(len(runner.latencies) - before)
        kernel.append(hostspeed.kernel_seconds())
        if time.perf_counter() - start >= args.seconds:
            break
    wall = time.perf_counter() - start
    raw = runner.latencies
    scales = hostspeed.cycle_scales(kernel, len(cycle_ops))
    per_op = [f for f, count in zip(scales, cycle_ops) for _ in range(count)]
    lat = [x * f for x, f in zip(raw, per_op)]
    setup_s = statistics.median(setup_times) * hostspeed.scale(setup_kernel)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (p90(lat) * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "sims_per_op": (sum(runner.worlds) / len(runner.worlds), "count"),
    }
    failed = runner.failed
    above = sum(1 for x in lat if x > metrics["op_p90_ms"][0] / 1e3)
    notes = [
        f"closed loop, 1 client, {workload.threads} thread(s) per op, "
        f"{len(cycle_ops)} cycles of {cycle_ops[0]} ops in {wall:.2f} s wall",
        f"latency samples: {len(lat)} ({above} above p90)",
        f"failed_op_share: {failed / len(lat):.4f} share ({failed} failed of "
        f"{len(lat)} attempted; warm-up failures {warm_failures})",
        "sims_per_op (exact count): live-edge worlds per op, sampled or enumerated",
        f"calibration kernel: median {statistics.median(kernel) * 1e3:.3f} ms over "
        f"{len(kernel)} runs (reference {hostspeed.REFERENCE_S * 1e3:.3f} ms); "
        f"timings below are scaled to the reference speed",
        f"raw, unscaled: setup_s {statistics.median(setup_times):.4f} s, ops_per_s "
        f"{len(raw) / sum(raw):.4f} 1/s, op_p50_ms {statistics.median(raw) * 1e3:.3f} ms, "
        f"op_p90_ms {p90(raw) * 1e3:.3f} ms",
        f"setup_s raw runs: {', '.join(f'{t:.4f}' for t in setup_times)}",
    ]
    kinds = {}
    for kind, op_lat in zip(runner.kinds, lat):
        kinds.setdefault(kind, []).append(op_lat)
    for kind, values in kinds.items():
        notes.append(f"  {kind}: n={len(values)} p50={statistics.median(values) * 1e3:.1f} ms "
                     f"busy={sum(values):.2f} s (scaled)")
    notes.append("raw op latencies in ms, in run order: "
                 + " ".join(f"{kind}:{x * 1e3:.1f}" for kind, x in zip(runner.kinds, raw)))
    return {"workload": workload, "metrics": metrics, "attempted": len(lat),
            "failed": failed, "failures": runner.failures, "notes": notes,
            "correct": not runner.failures}


def run_traced(args, tmp: Path) -> dict:
    """Untraced, traced and allocation-traced passes over the same cycles.

    Times and counts come from the traced pass, peak allocations from the
    allocation pass; the tracing overhead is traced minus untraced time.
    Times here are raw; the calibration kernel's median is printed with them.
    """
    import hostspeed
    from spans import Tracer, aggregate, span_records
    from layers import TARGETS, layer_metrics
    workload = make_workload(args, tmp)
    workload.setup()
    runner = Runner(workload)
    runner.run_cycle(0, record=False)
    cycles = range(1, workload.variant_count + 1)   # each variant once
    passes = {}
    for label, tracer in (("untraced", None), ("traced", Tracer()),
                          ("alloc", Tracer(alloc=True))):
        first = len(runner.worlds)
        if tracer is None:
            busy = sum(runner.run_cycle(c) for c in cycles)
        else:
            with tracer.patched(TARGETS):
                busy = sum(runner.run_cycle(c, tracer=tracer) for c in cycles)
        passes[label] = (busy, runner.worlds[first:], tracer)
    untraced, worlds, _ = passes["untraced"]
    traced, _, tracer = passes["traced"]
    alloc_spans = passes["alloc"][2].spans
    problems = []
    if any(passes[label][1] != worlds for label in passes):
        problems.append("sims_per_op differs between passes over the same cycles")
    if [s.name for s in alloc_spans] != [s.name for s in tracer.spans]:
        problems.append("the allocation pass made different calls than the traced pass")
    else:
        for span, peak in zip(tracer.spans, alloc_spans):
            span.peak_alloc = peak.peak_alloc
    stats = aggregate(tracer.spans)
    metrics = layer_metrics(stats)
    metrics["ops.sims_per_op"] = (sum(worlds) / len(worlds), "count")
    metrics["trace_overhead_s"] = (traced - untraced, "s")
    span_worlds = metrics["models.sample_pool.sims"][0] \
        + metrics["estimators.rrs_estimate.searches"][0] \
        + metrics["exact.exact_report.outcomes"][0]
    if span_worlds != sum(worlds):
        problems.append(f"worlds counted at the layers ({span_worlds}) differ from "
                        f"the ops' own counts ({sum(worlds)})")
    kernel = [hostspeed.kernel_seconds() for _ in range(5)]
    notes = [f"calibration kernel: median {statistics.median(kernel) * 1e3:.3f} ms "
             f"(reference {hostspeed.REFERENCE_S * 1e3:.3f} ms); span times are raw",
             f"{len(cycles)} cycles ({len(worlds)} ops) per pass: untraced "
             f"{untraced:.3f} s, traced {traced:.3f} s, with tracemalloc "
             f"{passes['alloc'][0]:.3f} s"]
    for name, st in sorted(stats.items()):
        notes.append(f"  span {name}: calls={st.calls} busy={st.busy_s:.4f} s "
                     f"self={st.self_s:.4f} s")
    out = ROOT / ".perfbench_run" / f"spans-{args.workload}-seed{args.seed}.json"
    out.write_text(json.dumps(span_records(tracer.spans)) + "\n")
    notes.append(f"spans written to {out.relative_to(ROOT)}")
    return {"workload": workload, "metrics": metrics, "attempted": len(runner.latencies),
            "failed": runner.failed, "failures": runner.failures + problems,
            "notes": notes, "correct": not runner.failures and not problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("estimate", "maximize", "exact", "reverse"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny instances, for the benchmark's own smoke test")
    args = parser.parse_args(argv)
    load_program()
    outdir = ROOT / ".perfbench_run"
    tmp = outdir / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        result = run_traced(args, tmp) if args.trace else run_timed(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    env = environment(result["workload"], args.seed)
    from layers import COMPUTED
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("environment: " + json.dumps(env))
    ws = env["working_set_computed"]
    print(f"largest working set (computed): {ws['bytes'] / 1e6:.2f} MB, {ws['what']}; "
          f"L2 {env['L2']}, L3 {env['L3']}")
    for line in result["notes"]:
        print(line)
    for message in result["failures"][:20]:
        print(f"FAILED {message}")
    for name, (value, unit) in result["metrics"].items():
        tag = " (computed)" if name in COMPUTED else ""
        print(f"{name} = {value:.6g} {unit}{tag}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": env,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
              "computed": sorted(COMPUTED & set(result["metrics"])),
              "attempted": result["attempted"], "failed": result["failed"],
              "failures": result["failures"], "notes": result["notes"]}
    (outdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
