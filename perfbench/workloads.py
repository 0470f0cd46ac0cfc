"""The four workloads: instances, op lists and the check of every op's output.

Every workload is a closed loop driven by one client: the next op starts
when the previous one returns.  Instances come from the workload seed
only.  An op is a call into the program's public API; its check runs
after the op's clock stops and raises ``CheckFailed`` when the output is
wrong.  Each op also reports the live-edge worlds it evaluated: the
simulations it sampled (one per reverse search), or the outcomes it
enumerated on ``exact``.

Sizes are set so that one op takes roughly 0.02 to 0.15 s on a 2-core
x86 machine, which gives each timed run a few hundred ops, and so that
no single op kind dominates a workload's time.  Setup builds several
instance variants from the workload seed and the cycles rotate through
them, so a run's figures average over instance structure instead of
depending on one random graph.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from types import SimpleNamespace
from pathlib import Path
from typing import Callable

import numpy as np

from infmax import cli, estimators, exact, families, maximize, models, sketches
from infmax.graph import Graph

from reference import Tau2Reference

TAU = 2
BDEP_GROUP = 3      # group size bound b: out-edges grouped in threes
LT_CAP = 0.9        # largest incoming weight sum per threshold node


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    """One call into the program: ``run`` is timed, ``check`` is not.

    ``check(output)`` raises ``CheckFailed`` on a wrong output and returns
    the number of live-edge worlds the op evaluated.
    """
    kind: str
    run: Callable[[], object]
    check: Callable[[object], int]


SIZES = {
    "full": {
        "variants": 4,
        "estimate": {"ic": (100, 300), "bdep": (24, 48), "mix": (40, 45), "poly": 300},
        "maximize": {"im": (20, 50, 14), "greedy": (60, 200), "greedy_sims": 300,
                     "greedy_s": 5, "adaptive": (50, 150)},
        "exact": {"ic": (10, 15), "lt": 9, "bdep": (5, 9), "mix": (10, 13), "tree": 3},
        "reverse": {"rrs": (100, 400), "rrs_searches": 3000, "tw_searches": 10000,
                    "sketch": (100, 4), "pool": 100, "k": 32, "lossless_pool": 20,
                    "queries": 10},
    },
    "tiny": {
        "variants": 2,
        "estimate": {"ic": (12, 24), "bdep": (8, 12), "mix": (10, 12), "poly": 102},
        "maximize": {"im": (8, 12, 6), "greedy": (10, 20), "greedy_sims": 20,
                     "greedy_s": 2, "adaptive": (8, 16)},
        "exact": {"ic": (5, 6), "lt": 3, "bdep": (2, 3), "mix": (5, 4), "tree": 2},
        "reverse": {"rrs": (12, 24), "rrs_searches": 2000, "tw_searches": 10000,
                    "sketch": (8, 2), "pool": 10, "k": 8, "lossless_pool": 4,
                    "queries": 3},
    },
}


def child_seed(seed: int, *key: int) -> int:
    """Independent 32-bit seed for one purpose of one workload seed."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def op_rng(seed: int, cycle: int) -> np.random.Generator:
    return np.random.default_rng([seed, 0xC1C1E, cycle])


def random_seed_set(rng: np.random.Generator, n: int, size: int) -> tuple[int, ...]:
    return tuple(sorted(int(v) for v in rng.choice(n, size=size, replace=False)))


def lt_scaled(graph: Graph) -> models.DiffusionModel:
    """Threshold model on ``graph`` with each node's incoming weights
    scaled to sum to at most ``LT_CAP``."""
    sums = np.bincount(graph.heads, weights=graph.probs, minlength=graph.num_nodes)
    scale = np.minimum(1.0, LT_CAP / np.maximum(sums, 1e-300))
    probs = graph.probs * scale[graph.heads]
    return models.lt_model(Graph(graph.num_nodes, graph.tails, graph.heads, probs,
                                 graph.groups, graph.node_weights))


def bdep_grouped(graph: Graph) -> models.DiffusionModel:
    """All-or-none model: each node's out-edges grouped in runs of
    ``BDEP_GROUP``, every group live with the probability of its first edge."""
    b = BDEP_GROUP
    edges = []
    gid = 0
    for v in range(graph.num_nodes):
        out = graph.out_edges(v)
        for lo in range(0, out.size, b):
            members = out[lo:lo + b]
            p = float(graph.probs[members[0]])
            edges.extend((v, int(graph.heads[e]), p, gid) for e in members)
            gid += 1
    return models.bdep_model(Graph.from_edges(graph.num_nodes, edges,
                                              node_weights=graph.node_weights), b)


def fixed_indegree_lt(rng: np.random.Generator, n: int, indegree: int) -> models.DiffusionModel:
    """Threshold model where nodes ``1..n-1`` each have ``indegree`` incoming
    edges from random tails; weights sum to at most ``LT_CAP`` per node."""
    edges = []
    for v in range(1, n):
        tails = rng.choice([u for u in range(n) if u != v], size=indegree, replace=False)
        share = rng.dirichlet(np.ones(indegree + 1))[:indegree] * LT_CAP
        edges.extend((int(t), v, float(w)) for t, w in zip(sorted(tails), share))
    return models.lt_model(Graph.from_edges(n, edges))


def ic_fixed_outdegree(rng: np.random.Generator, n: int, outdegree: int) -> models.DiffusionModel:
    """Independent-edge model where every node has ``outdegree`` outgoing
    edges to random heads, each live with probability in [0.5, 0.9]."""
    edges = []
    for v in range(n):
        heads = rng.choice([u for u in range(n) if u != v], size=outdegree, replace=False)
        probs = rng.uniform(0.5, 0.9, size=outdegree)
        edges.extend((v, int(h), float(p)) for h, p in zip(sorted(heads), probs))
    return models.ic_model(Graph.from_edges(n, edges))


def bdep_fixed_units(rng: np.random.Generator, n: int, groups: int,
                     loose: int) -> models.DiffusionModel:
    """All-or-none model with ``groups`` random groups of ``BDEP_GROUP`` edges
    and ``loose`` random ungrouped edges, so it has ``2**(groups+loose)``
    outcomes."""
    pairs = [(t, h) for t in range(n) for h in range(n) if t != h]
    picks = rng.permutation(len(pairs))
    used = set()
    edges = []
    tails = rng.choice(n, size=groups, replace=False)
    for gid, t in enumerate(tails):
        heads = [h for h in rng.permutation(n) if h != t][:BDEP_GROUP]
        p = float(rng.uniform(0.1, 0.9))
        for h in heads:
            used.add((int(t), int(h)))
            edges.append((int(t), int(h), p, gid))
    for i in picks:
        if loose == 0:
            break
        if pairs[i] not in used:
            used.add(pairs[i])
            edges.append((pairs[i][0], pairs[i][1], float(rng.uniform(0.1, 0.9))))
            loose -= 1
    return models.bdep_model(Graph.from_edges(n, edges), BDEP_GROUP)


class Workload:
    """Instance variants built in ``setup`` and the op list of every cycle."""
    name = ""
    threads = 1

    def __init__(self, seed: int, sizes: dict, tmp: Path):
        self.seed = seed
        self.sizes = sizes[self.name]
        self.variant_count = sizes["variants"]
        self.tmp = tmp

    def setup(self) -> None:
        self.variants = [self.build(v, child_seed(self.seed, v))
                         for v in range(self.variant_count)]

    def cycle(self, index: int) -> list[Op]:
        """The fixed op list of cycle ``index``; ops take fresh seeds per cycle."""
        return self.ops(self.variants[index % len(self.variants)], op_rng(self.seed, index))

    def build(self, variant: int, seed: int) -> SimpleNamespace:
        raise NotImplementedError

    def ops(self, inst: SimpleNamespace, rng: np.random.Generator) -> list[Op]:
        raise NotImplementedError

    def working_set(self) -> dict:
        """Largest bool matrix an op allocates, computed from input sizes."""
        best = max(row for inst in self.variants for row in self.matrices(inst))
        return {"bytes": best[0], "what": best[1]}

    def matrices(self, inst: SimpleNamespace) -> list[tuple[int, str]]:
        raise NotImplementedError


# ---------------------------------------------------------------------------

class Estimate(Workload):
    """Build-heavy: sampling and batched propagation do most of the work,
    and the model rotation reaches every sampler branch (the LT per-node
    loop, BDEP groups, mixture components, polysimu's pinned edges)."""
    name = "estimate"
    threads = 2
    EPS, DELTA = 0.25, 0.1

    def build(self, variant: int, seed: int) -> SimpleNamespace:
        sz = self.sizes
        ic = families.gen_random_ic(*sz["ic"], seed=child_seed(seed, 1))
        bdep_base = families.gen_random_ic(*sz["bdep"], seed=child_seed(seed, 4))
        mix = models.mixture_model(
            [(families.gen_random_ic(*sz["mix"], seed=child_seed(seed, 2)), 0.5),
             (families.gen_random_ic(*sz["mix"], seed=child_seed(seed, 3)), 0.5)])
        inst = SimpleNamespace(models={
            "ic": ic,
            "lt": lt_scaled(ic.graph),
            "bdep": bdep_grouped(bdep_base.graph),
            "mixture": mix,
            "polysimu": families.gen_polysimu(sz["poly"]),
        }, paths={}, refs={})
        for kind, model in inst.models.items():
            path = self.tmp / f"v{variant}-{kind}.model"
            models.save_model(model, path)
            inst.paths[kind] = path
            if model.kind != models.BDEP:
                ref = Tau2Reference(model)
                inst.refs[kind] = (ref, ref.opt1())
        return inst

    def ops(self, inst, rng) -> list[Op]:
        ops = []
        for kind, model in inst.models.items():
            seeds = (0,) if kind == "polysimu" else random_seed_set(rng, model.num_nodes, 2)
            ops.append(self._op(inst, kind, seeds, int(rng.integers(1 << 31))))
        return ops

    def _op(self, inst, kind: str, seeds: tuple[int, ...], master_seed: int) -> Op:
        report = self.tmp / "estimate.json"
        argv = ["--seed", str(master_seed), "--threads", str(self.threads),
                "--out", str(report), "estimate", "--model", str(inst.paths[kind]),
                "--seeds", ",".join(map(str, seeds)), "--tau", str(TAU),
                "--eps", str(self.EPS), "--delta", str(self.DELTA), "--mode", "moa"]

        def run():
            return cli.main(argv)

        def check(code) -> int:
            require(code == 0, f"infmax estimate exited with {code}")
            result = json.loads(report.read_text())["result"]
            averages = result["pool_averages"]
            require(len(averages) == result["config"]["pools"] and len(averages) % 2 == 1,
                    "pool average count")
            require(result["estimate"] == sorted(averages)[len(averages) // 2],
                    "estimate is not the median of its pool averages")
            if kind in inst.refs:
                ref, opt1 = inst.refs[kind]
                truth = ref.influence(seeds)
                require(abs(result["estimate"] - truth) <= self.EPS * max(truth, opt1),
                        f"{kind} estimate {result['estimate']} vs exact {truth}")
            return int(result["config"]["total_simulations"])

        return Op(kind, run, check)

    def matrices(self, inst) -> list[tuple[int, str]]:
        rows = []
        for kind, model in inst.models.items():
            c = exact.c_value(model, TAU)
            sims = estimators.size_for_guarantee(self.EPS, self.DELTA, c,
                                                 estimators.MEDIAN_OF_AVERAGES).total_simulations
            m = model.graph.num_edges
            rows.append((sims * m, f"{kind} live matrix {sims} x {m} bool"))
        return rows


# ---------------------------------------------------------------------------

class Maximize(Workload):
    """Read-heavy: each oracle is built once and read many times through
    mask unions and value reductions, so brute force and greedy show here
    and a sampler change barely does."""
    name = "maximize"
    IM_S, IM_EPS, DELTA = 2, 0.5, 0.1
    AD_S, AD_EPS = 3, 0.25

    def build(self, variant: int, seed: int) -> SimpleNamespace:
        sz = self.sizes
        n, m, random_edges = sz["im"]
        base = families.gen_random_ic(n, m, seed=child_seed(seed, 1)).graph
        rng = np.random.default_rng(child_seed(seed, 2))
        probs = np.ones(m)
        keep = rng.choice(m, size=random_edges, replace=False)
        probs[keep] = base.probs[keep]
        # Edges outside ``keep`` are always live, so exact enumeration
        # covers only 2**random_edges outcomes.
        im_model = models.ic_model(Graph(n, base.tails, base.heads, probs,
                                         base.groups, base.node_weights))
        im_truth = exact.exact_influence_map(im_model, TAU, self.IM_S)
        adaptive_model = families.gen_random_ic(*sz["adaptive"], seed=child_seed(seed, 4))
        adaptive_ref = Tau2Reference(adaptive_model)
        return SimpleNamespace(
            im_model=im_model, im_truth=im_truth, im_opt=max(im_truth.values()),
            greedy_model=families.gen_random_ic(*sz["greedy"], seed=child_seed(seed, 3)),
            adaptive_model=adaptive_model, adaptive_ref=adaptive_ref,
            adaptive_opt1=adaptive_ref.opt1())

    def ops(self, inst, rng) -> list[Op]:
        seeds = [int(s) for s in rng.integers(1 << 31, size=3)]
        return [self._maximize_im(inst, seeds[0]), self._greedy(inst, seeds[1]),
                self._adaptive(inst, seeds[2])]

    def _maximize_im(self, inst, master_seed: int) -> Op:
        def run():
            return maximize.maximize_im(inst.im_model, self.IM_S, TAU, self.IM_EPS,
                                        self.DELTA, master_seed=master_seed)

        def check(result) -> int:
            require(1 <= len(result.seeds) <= self.IM_S, "seed count")
            value = inst.im_truth[tuple(result.seeds)]
            # (1 - 2 eps) is vacuous at eps = 0.5; (1 - eps) / (1 + eps) is
            # what the uniform (eps, delta) oracle implies for the argmax.
            bound = (1 - self.IM_EPS) / (1 + self.IM_EPS) * inst.im_opt
            require(value >= bound, f"maximize_im value {value} below {bound}")
            return result.simulations_used

        return Op("maximize_im", run, check)

    def _greedy(self, inst, master_seed: int) -> Op:
        sims, s = self.sizes["greedy_sims"], self.sizes["greedy_s"]

        def run():
            config = estimators.OracleConfig(1, sims, TAU, master_seed)
            oracle = estimators.build_oracle(inst.greedy_model, config)
            return oracle, maximize.greedy_max(oracle, s)

        def check(output) -> int:
            oracle, result = output
            require(len(result.seeds) == s, "seed count")
            require(result.trace[-1].value == result.oracle_value, "trace end value")
            require(oracle.query(result.seeds) == result.oracle_value,
                    "greedy value differs from a fresh query")
            return oracle.config.total_simulations

        return Op("greedy_max", run, check)

    def _adaptive(self, inst, master_seed: int) -> Op:
        def run():
            return maximize.adaptive_maximize(inst.adaptive_model, self.AD_S, TAU,
                                              self.AD_EPS, self.DELTA, base="greedy",
                                              master_seed=master_seed)

        def check(result) -> int:
            require(len(result.seeds) == self.AD_S, "seed count")
            truth = inst.adaptive_ref.influence(result.seeds)
            require(abs(result.oracle_value - truth)
                    <= self.AD_EPS * max(truth, inst.adaptive_opt1),
                    f"validated value {result.oracle_value} vs exact {truth}")
            return result.simulations_used + result.validation_simulations

        return Op("adaptive_maximize", run, check)

    def matrices(self, inst) -> list[tuple[int, str]]:
        n, m, _ = self.sizes["im"]
        c = exact.c_value(inst.im_model, TAU)
        rows = maximize.im_oracle_config(n, self.IM_S, TAU, self.IM_EPS, self.DELTA,
                                         c).total_simulations
        gn, gs = inst.greedy_model.num_nodes, self.sizes["greedy_sims"]
        return [(rows * n * n, f"maximize_im single-reach cache {n} x {rows} x {n} bool"),
                (rows * m, f"maximize_im live matrix {rows} x {m} bool"),
                (gn * gs * gn, f"greedy single-reach cache {gn} x {gs} x {gn} bool")]


# ---------------------------------------------------------------------------

class Exact(Workload):
    """No sampling and no oracle: outcome enumeration and the propagation
    loops inside ``exact`` take all the time."""
    name = "exact"

    def build(self, variant: int, seed: int) -> SimpleNamespace:
        sz = self.sizes
        rng = np.random.default_rng(child_seed(seed, 1))
        ic_n, ic_m = sz["ic"]
        mix_n, mix_m = sz["mix"]
        instances = {
            "ic": (families.gen_random_ic(ic_n, ic_m, seed=child_seed(seed, 2)), 2),
            "lt": (fixed_indegree_lt(rng, sz["lt"] + 1, 2), 2),
            "bdep": (bdep_fixed_units(rng, 10, *sz["bdep"]), 3),
            "mixture": (models.mixture_model(
                [(families.gen_random_ic(mix_n, mix_m, seed=child_seed(seed, 3)), 0.5),
                 (families.gen_random_ic(mix_n, mix_m, seed=child_seed(seed, 4)), 0.5)]), 2),
            "tree": (families.gen_tree(sz["tree"]), sz["tree"]),
        }
        refs = {kind: Tau2Reference(model) for kind, (model, tau) in instances.items()
                if tau == 2 and model.kind != models.BDEP}
        return SimpleNamespace(
            instances=instances, refs=refs,
            opt1={kind: ref.opt1() for kind, ref in refs.items()},
            outcomes={kind: expected_outcomes(model)
                      for kind, (model, _) in instances.items()})

    def ops(self, inst, rng) -> list[Op]:
        ops = []
        for kind, (model, tau) in inst.instances.items():
            if kind == "tree":
                seeds = (0,)
            else:
                seeds = random_seed_set(rng, model.num_nodes, int(rng.integers(1, 3)))
            ops.append(self._op(inst, kind, seeds))
        return ops

    def _op(self, inst, kind, seeds) -> Op:
        model, tau = inst.instances[kind]

        def run():
            return exact.exact_report(model, seeds, tau)

        def check(report) -> int:
            w = model.graph.node_weights
            total = float((report.step_probs @ w).sum())
            require(abs(total - report.influence) <= 1e-9,
                    "step profile does not sum to the influence")
            require(report.variance >= 0.0, "negative variance")
            require(report.enumeration_size == inst.outcomes[kind], "outcome count")
            if kind in inst.refs:
                truth = inst.refs[kind].influence(seeds)
                require(abs(report.influence - truth) <= 1e-9,
                        f"{kind} influence {report.influence} vs closed form {truth}")
                require(abs(report.opt1 - inst.opt1[kind]) <= 1e-9, "opt1")
            if kind == "tree":
                d = tau
                require(abs(report.influence - (d + 1)) <= 1e-9, "tree influence")
                require(abs(report.variance - d * (d + 1) * (2 * d + 1) / 12) <= 1e-9,
                        "tree variance")
            return report.enumeration_size

        return Op(kind, run, check)

    def matrices(self, inst) -> list[tuple[int, str]]:
        rows = []
        for kind, (model, _) in inst.instances.items():
            r, m = min(inst.outcomes[kind], 1 << 16), model.graph.num_edges
            rows.append((r * m, f"{kind} outcome chunk {r} x {m} bool"))
        return rows


def expected_outcomes(model) -> int:
    """Outcome count from the model's structure: one binary unit per random
    edge or group, one choice per threshold node with incoming edges."""
    g = model.graph
    if model.kind == models.MIXTURE:
        return sum(expected_outcomes(c) for c in model.components)
    if model.kind == models.LT:
        indeg = np.bincount(g.heads, minlength=g.num_nodes)
        return math.prod(int(d) + 1 for d in indeg if d)
    random_edge = (g.probs > 0.0) & (g.probs < 1.0)
    units = np.count_nonzero(random_edge & (g.groups < 0))
    units += np.unique(g.groups[random_edge & (g.groups >= 0)]).size
    return 1 << int(units)


# ---------------------------------------------------------------------------

class Reverse(Workload):
    """Scalar searches only: no op calls the batched propagation.  Sketches
    at tau = n - 1 and tau = 2 split the case where pruning a full sketch's
    search is sound from the case where it is not."""
    name = "reverse"

    def setup(self) -> None:
        self.two_world = families.gen_two_world_mixture()
        super().setup()

    def build(self, variant: int, seed: int) -> SimpleNamespace:
        sz = self.sizes
        rrs_model = families.gen_random_ic(*sz["rrs"], seed=child_seed(seed, 1))
        ref = Tau2Reference(rrs_model)
        rng = np.random.default_rng(child_seed(seed, 4))
        # A sketch fills from the pairs its node reaches, and the build runs
        # until every sketch is full.  Giving every node likely live out-edges
        # keeps the tau = n - 1 build's cost from swinging with one node that
        # reaches only itself.
        sketch_model = ic_fixed_outdegree(rng, *sz["sketch"])
        n = sketch_model.num_nodes
        live, _ = models.sample_pool(sketch_model, child_seed(seed, 3), sz["pool"])
        queries = [random_seed_set(rng, n, 1 + q % 2) for q in range(sz["queries"])]
        lossless = live[:sz["lossless_pool"]]
        # k above pool x n pairs, so no merged sketch is ever truncated.
        cases = {
            "sketch_tau2": (live, TAU, sz["k"]),
            "sketch_full": (live, n - 1, sz["k"]),
            "sketch_lossless": (lossless, TAU, lossless.shape[0] * n + 1),
        }
        truth = {}
        for kind, (pool, tau, _) in cases.items():
            oracle = estimators.Oracle(sketch_model,
                                       estimators.OracleConfig(1, pool.shape[0], tau),
                                       pool.copy(), None)
            truth[kind] = [oracle.query(s) for s in queries]
        return SimpleNamespace(
            rrs_model=rrs_model,
            rrs_total=sum(ref.influence((v,)) for v in range(rrs_model.num_nodes)),
            sketch_model=sketch_model, queries=queries, cases=cases, truth=truth)

    def ops(self, inst, rng) -> list[Op]:
        seeds = [int(s) for s in rng.integers(1 << 31, size=7)]
        sz = self.sizes
        ops = [
            self._rrs(inst, "rrs_full", inst.rrs_model, estimators.FULL_SIMULATION,
                      sz["rrs_searches"], TAU, seeds[0]),
            self._rrs(inst, "rrs_marginal", inst.rrs_model, estimators.MARGINAL,
                      sz["rrs_searches"], TAU, seeds[1]),
            self._rrs(inst, "two_world_full", self.two_world, estimators.FULL_SIMULATION,
                      sz["tw_searches"], families.TWO_WORLD_TAU, seeds[2]),
            self._rrs(inst, "two_world_marginal", self.two_world, estimators.MARGINAL,
                      sz["tw_searches"], families.TWO_WORLD_TAU, seeds[3]),
        ]
        for kind, rank_seed in zip(inst.cases, seeds[4:]):
            ops.append(self._sketch(inst, kind, rank_seed))
        return ops

    def _rrs(self, inst, kind, model, mode, searches, tau, master_seed) -> Op:
        def run():
            return estimators.rrs_estimate(model, mode, searches, tau, master_seed)

        def check(est) -> int:
            require(est.shape == (model.num_nodes,) and np.all(np.isfinite(est))
                    and np.all(est >= 0.0), "malformed estimates")
            if model is self.two_world:
                want = 0 if mode == estimators.FULL_SIMULATION else 5
                require(int(np.argmax(est)) == want, f"{kind} argmax {int(np.argmax(est))}")
            else:
                # For an IC model both modes are unbiased for every node's
                # influence; 15% is over ten standard errors at these sizes.
                total = float(est.sum())
                require(abs(total - inst.rrs_total) <= 0.15 * inst.rrs_total,
                        f"{kind} total {total} vs exact {inst.rrs_total}")
            return searches

        return Op(kind, run, check)
    def _sketch(self, inst, kind: str, rank_seed: int) -> Op:
        pool, tau, k = inst.cases[kind]
        ell = pool.shape[0]

        def run():
            built = sketches.build_sketches(inst.sketch_model, pool, tau, k, rank_seed)
            return built, [sketches.sketch_query(built, s, ell) for s in inst.queries]

        def check(output) -> int:
            built, answers = output
            for seeds, got, truth in zip(inst.queries, answers, inst.truth[kind]):
                if kind == "sketch_lossless":
                    require(sketches.merged_seed_sketch(built, seeds).size < k,
                            "lossless sketch was truncated")
                    require(got == truth, "lossless sketch differs from the averaging oracle")
                else:
                    require(truth / 4 <= got <= truth * 4,
                            f"sketch estimate {got} vs pool average {truth}")
            return 0

        return Op(kind, run, check)

    def matrices(self, inst) -> list[tuple[int, str]]:
        m = inst.rrs_model.graph.num_edges
        rows = min(self.sizes["rrs_searches"], 8192)
        return [(rows * m, f"rrs search chunk {rows} x {m} bool")]


WORKLOADS = {cls.name: cls for cls in (Estimate, Maximize, Exact, Reverse)}
