"""The three workloads: seeded inputs, the timed bslab calls of one pass,
and the checks of their outputs.

Each workload has `ops(traced)`, the named calls of one pass;
`checks(outputs)`, a (name, ok) pair per check of those calls' outputs;
and `named(op_seconds)`, the workload's own figures by name and unit. A
pass runs the ops one at a time, timing each, and then checks every output
against oracles.py. Every pass of a run repeats the
same inputs, so every run attempts whole rounds of the same checks.

bslab is reached only through its public surface: the `python -m
bslab.cli` command line (cli-cold) and the package attributes named in the
README's "Library use" (the other two). Calls go through module attribute
lookups at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracles
import spans

HERE = Path(__file__).resolve().parent


def _spec_params(rng: np.random.Generator, size=None):
    """Near-the-money contracts in the ranges the tree and Monte Carlo
    checks were sized for (spot 40-60, vol 0.1-0.4)."""
    spot = rng.uniform(40.0, 60.0, size)
    return dict(spot=spot, strike=spot * np.exp(rng.uniform(-0.2, 0.2, size)),
                rate=rng.uniform(0.0, 0.06, size), expiry=rng.uniform(0.5, 2.0, size),
                volatility=rng.uniform(0.1, 0.4, size))


def _as_floats(params: dict, i=None) -> dict:
    return {k: float(v if i is None else v[i]) for k, v in params.items()}


def _mp_price(p: dict) -> float:
    return oracles.mp_call_price(p["spot"], p["strike"], p["rate"], p["expiry"],
                                 p["volatility"])


class CliCold:
    """README price, tree and mc commands, each in a fresh interpreter."""

    TREE_STEPS = 10_000
    MC_PATHS = 1_000_000

    def __init__(self, seed: int, env: dict, spans_dir: Path):
        rng = np.random.default_rng(seed)
        self.params = _as_floats(_spec_params(rng))
        self.mc_seed = int(rng.integers(0, 2 ** 63))
        self.spans_dir = spans_dir
        self.ref = _mp_price(self.params)
        p = self.params
        option = ["--spot", repr(p["spot"]), "--strike", repr(p["strike"]),
                  "--rate", repr(p["rate"]), "--expiry", repr(p["expiry"]),
                  "--vol", repr(p["volatility"])]
        self.commands = {
            "price": ["price", *option],
            "tree": ["tree", *option, "--steps", str(self.TREE_STEPS)],
            "mc": ["mc", *option, "--paths", str(self.MC_PATHS), "--seed", str(self.mc_seed)],
        }
        self.rss_mb: dict[str, float] = {}    # peak RSS of each command's process
        self.span_files: list[Path] = []
        # commands are forked from this small process (see spawn.py)
        self._spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py"), str(spans_dir / "stderr.txt")],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def _run(self, argv: list[str], traced: bool):
        if traced:
            spans_path = self.spans_dir / f"cli-{len(self.span_files)}.json"
            self.span_files.append(spans_path)
            cmd = [sys.executable, str(HERE / "child.py"), str(spans_path), *argv]
        else:
            cmd = [sys.executable, "-m", "bslab.cli", *argv]
        self._spawner.stdin.write(json.dumps(cmd + ["--format", "json"]) + "\n")
        self._spawner.stdin.flush()
        reply = json.loads(self._spawner.stdout.readline())
        if reply["code"] != 0:
            sys.stderr.write(reply["err"])
        self.rss_mb[argv[0]] = reply["rss_mb"]
        return reply["code"], reply["out"]

    def close(self) -> None:
        """Stop the spawner and wait for it."""
        self._spawner.stdin.close()
        self._spawner.wait()

    def take_spans(self) -> list[list]:
        """The spans the traced commands wrote since the last call, merged."""
        merged = spans.merge(json.loads(path.read_text()) for path in self.span_files)
        for path in self.span_files:
            path.unlink()
        self.span_files.clear()
        return merged

    def ops(self, traced):
        return [(name, lambda argv=argv: self._run(argv, traced))
                for name, argv in self.commands.items()]

    def checks(self, outputs):
        results, res = [], {}
        for name, (code, out) in outputs.items():
            ok = code == 0 and oracles.reemit_ok(out)
            results.append((f"{name}.exit_and_reemit", ok))
            res[name] = json.loads(out)["results"] if ok else None
        spot = self.params["spot"]
        results.append(("price.closed_form", res["price"] is not None
                        and oracles.closed_form_ok(res["price"]["price"], self.ref)))
        results.append(("tree.error", res["tree"] is not None
                        and oracles.tree_ok(res["tree"]["price"], self.ref, self.TREE_STEPS, spot)))
        results.append(("mc.within_4se", res["mc"] is not None
                        and oracles.within_sigmas(res["mc"]["price"], self.ref,
                                                  res["mc"]["std_error"])))
        return results

    def named(self, op_s):
        return {f"cli_{name}_s": (op_s[name], "s") for name in self.commands}


class PriceThreeWays:
    """One call priced by the closed form over a grid, by the CRR lattice
    over a step ladder, and by Monte Carlo with its forward check."""

    GRID = 20_000
    MP_SUBSET = 200
    LADDER = (10, 100, 1_000, 10_000, 100_000, 1_000_000)
    TREE_SPECS = 3
    MC_PATHS = 2 ** 23
    SPLIT_TOTAL = 1 << 16

    def __init__(self, seed: int, bslab):
        self.bslab = bslab
        rng = np.random.default_rng(seed)
        # the grid ranges over moneyness e^{+-0.5}, vol 0.05-0.6 and
        # expiry 0.1-3 years, so it reaches deep in and out of the money
        spot = rng.uniform(20.0, 200.0, self.GRID)
        self.grid = dict(spot=spot, strike=spot * np.exp(rng.uniform(-0.5, 0.5, self.GRID)),
                         rate=rng.uniform(0.0, 0.08, self.GRID),
                         expiry=rng.uniform(0.1, 3.0, self.GRID),
                         volatility=rng.uniform(0.05, 0.6, self.GRID))
        self.specs = [bslab.OptionSpec(**_as_floats(self.grid, i)) for i in range(self.GRID)]
        self.mp_subset = rng.choice(self.GRID, self.MP_SUBSET, replace=False)
        self.mp_refs = [_mp_price(_as_floats(self.grid, i)) for i in self.mp_subset]

        tree = _spec_params(rng, self.TREE_SPECS)
        self.tree_params = [_as_floats(tree, i) for i in range(self.TREE_SPECS)]
        self.tree_specs = [bslab.OptionSpec(**p) for p in self.tree_params]
        self.tree_refs = [_mp_price(p) for p in self.tree_params]
        self.tree_configs = [bslab.TreeConfig(steps=n) for n in self.LADDER]

        self.mc_params = _as_floats(_spec_params(rng))
        self.mc_spec = bslab.OptionSpec(**self.mc_params)
        self.mc_ref = _mp_price(self.mc_params)
        self.mc_config = bslab.McConfig(paths=self.MC_PATHS, seed=int(rng.integers(0, 2 ** 63)))

        self.split_seed = int(rng.integers(0, 2 ** 63))
        self.split_at = int(rng.integers(1, self.SPLIT_TOTAL))

    def ops(self, traced):
        b = self.bslab
        return [
            ("closed_form", lambda: [b.bs_call_price(s).price for s in self.specs]),
            ("tree_ladder", lambda: [[b.crr_tree_price(s, c).price for c in self.tree_configs]
                                     for s in self.tree_specs]),
            ("mc_price", lambda: b.mc_price(self.mc_spec, self.mc_config)),
            ("mc_forward_check", lambda: b.mc_forward_check(self.mc_spec, self.mc_config)),
        ]

    def checks(self, out):
        g = self.grid
        prices = out["closed_form"]
        results = [(f"closed_form.mpmath[{i}]", oracles.closed_form_ok(prices[i], ref))
                   for i, ref in zip(self.mp_subset, self.mp_refs)]
        results.append(("closed_form.no_arbitrage",
                        oracles.no_arbitrage_ok(prices, g["spot"], g["strike"], g["rate"],
                                                g["expiry"])))
        for p, ref, row in zip(self.tree_params, self.tree_refs, out["tree_ladder"]):
            results += [(f"tree.envelope[{n}]", oracles.tree_ok(price, ref, n, p["spot"]))
                        for n, price in zip(self.LADDER, row)]
        mc = out["mc_price"]
        results.append(("mc_price.within_4se",
                        oracles.within_sigmas(mc.price, self.mc_ref, mc.std_error)))
        fwd_se = oracles.forward_std_error(self.mc_params["volatility"],
                                           self.mc_params["expiry"], self.MC_PATHS)
        results.append(("mc_forward_check.within_4se",
                        oracles.within_sigmas(out["mc_forward_check"], 1.0, fwd_se)))
        for stream in (self.bslab.uniform_stream, self.bslab.normal_stream):
            n, a, s = self.SPLIT_TOTAL, self.split_at, self.split_seed
            results.append((f"{stream.__name__}.split",
                            oracles.split_ok(stream(s, 0, n), stream(s, 0, a),
                                             stream(s, a, n - a))))
        return results

    def named(self, op_s):
        nodes = self.TREE_SPECS * sum(n + 1 for n in self.LADDER)
        return {
            "closed_form_prices_per_s": (self.GRID / op_s["closed_form"], "1/s"),
            "tree_nodes_per_s": (nodes / op_s["tree_ladder"], "1/s"),
            "mc_paths_per_s": (2 * self.MC_PATHS / (op_s["mc_price"] + op_s["mc_forward_check"]),
                               "1/s"),
        }


class CltLadder:
    """The README's CLT experiments at the README's sizes, as library calls."""

    VARIANCE = 0.0225
    JUMP, INTENSITY = 1.0, 2.0
    HORIZON = 1.0
    SAMPLES = 5000
    N_LADDER = (16, 256, 4096)
    EPSILON = 0.01
    LINDEBERG_SAMPLES = 100_000
    VAR_SAMPLES = 200_000
    VAR_HORIZONS = (0.25, 0.5, 1.0, 2.0)
    KINDS = spans.KINDS

    def __init__(self, seed: int, bslab):
        self.bslab = bslab
        rng = np.random.default_rng(seed)
        model = bslab.IncrementModel
        self.models = {k: getattr(model, k)(self.VARIANCE) for k in self.KINDS[:-1]}
        self.models["poisson_jump"] = model.poisson_jump(self.JUMP, self.INTENSITY)
        self.seeds = {k: int(rng.integers(0, 2 ** 63)) for k in self.KINDS}
        self.lindeberg_seed = int(rng.integers(0, 2 ** 63))
        self.var_seed = int(rng.integers(0, 2 ** 63))
        self.law_seed = int(rng.integers(0, 2 ** 63))

        self.two_point_floor = {n: oracles.two_point_ks_floor(n) for n in self.N_LADDER}
        self.poisson_floor = oracles.poisson_ks_floor(self.INTENSITY * self.HORIZON)
        self.lindeberg_refs = {
            (k, n): oracles.lindeberg_reference(k, self.VARIANCE, n, self.HORIZON,
                                                self.EPSILON, self.SAMPLES)
            for k in ("uniform", "centered_exponential", "normal") for n in self.N_LADDER}
        self.poisson_refs = {n: oracles.poisson_lindeberg_reference(
            self.JUMP, self.INTENSITY, n, self.HORIZON, self.EPSILON, self.LINDEBERG_SAMPLES)
            for n in self.N_LADDER}

    def ops(self, traced):
        b = self.bslab

        def demo(kind):
            spec = b.ArraySpec(self.models[kind], self.HORIZON, 1, self.SAMPLES, self.seeds[kind])
            return b.run_convergence_experiment(spec, self.N_LADDER, self.EPSILON)

        def lindeberg():
            return [b.lindeberg_statistic(self.models["poisson_jump"], n, self.HORIZON,
                                          self.EPSILON, self.LINDEBERG_SAMPLES,
                                          b.substream(self.lindeberg_seed, k))
                    for k, n in enumerate(self.N_LADDER)]

        return ([(f"clt_demo.{kind}", lambda kind=kind: demo(kind)) for kind in self.KINDS]
                + [("lindeberg", lindeberg),
                   ("var_linearity", lambda: b.variance_linearity_check(
                       self.models["normal"], self.VAR_HORIZONS, self.VAR_SAMPLES,
                       self.var_seed))])

    def checks(self, out):
        results = []
        m = self.SAMPLES
        tp = out["clt_demo.two_point"]
        for n, ks in zip(self.N_LADDER, tp.ks_statistics):
            results.append((f"two_point.ks_vs_lattice[{n}]",
                            oracles.ks_near_floor(ks, self.two_point_floor[n], m)))
            step = math.sqrt(self.VARIANCE * self.HORIZON / n)
            sums = self.bslab.sample_row_sum(self.bslab.ArraySpec(
                self.models["two_point"], self.HORIZON, n, m, self.law_seed))
            results.append((f"two_point.binomial_law[{n}]",
                            oracles.two_point_law_ok(sums, n, step)))
        for kind in ("uniform", "centered_exponential"):
            rep = out[f"clt_demo.{kind}"]
            for n, value in zip(self.N_LADDER, rep.lindeberg_values):
                ref, se = self.lindeberg_refs[(kind, n)]
                results.append((f"{kind}.lindeberg_tail[{n}]",
                                oracles.within_sigmas(value, ref, se)))
        normal = out["clt_demo.normal"]
        results.append(("normal.verdict", oracles.normal_verdict_ok(
            normal.verdict, normal.ks_statistics[-1], normal.ks_threshold, m)))
        for n, value in zip(self.N_LADDER, normal.lindeberg_values):
            results.append((f"normal.lindeberg_tail[{n}]", oracles.closed_form_ok(
                value, self.lindeberg_refs[("normal", n)][0])))
        pj = out["clt_demo.poisson_jump"]
        results.append(("poisson_jump.verdict", pj.verdict == "non_normal_limit"))
        for n, ks in zip(self.N_LADDER, pj.ks_statistics):
            results.append((f"poisson_jump.ks_vs_law[{n}]",
                            oracles.ks_near_floor(ks, self.poisson_floor, m)))
        for n, value in zip(self.N_LADDER, pj.lindeberg_values):
            results.append((f"poisson_jump.lindeberg_series[{n}]",
                            oracles.series_ok(value, self.poisson_refs[n][0])))
        for n, res in zip(self.N_LADDER, out["lindeberg"]):
            ref, se = self.poisson_refs[n]
            results.append((f"lindeberg.analytic[{n}]",
                            res.analytic is not None and oracles.series_ok(res.analytic, ref)))
            results.append((f"lindeberg.estimate[{n}]",
                            oracles.within_sigmas(res.estimate, ref, se)))
        var = out["var_linearity"]
        results.append(("var_linearity.fit", oracles.variance_fit_ok(
            var.slope, var.slope_std_error, var.intercept, var.intercept_std_error,
            self.VARIANCE)))
        return results

    def named(self, op_s):
        out = {f"clt_demo_s.{kind}": (op_s[f"clt_demo.{kind}"], "s") for kind in self.KINDS}
        out["lindeberg_s"] = (op_s["lindeberg"], "s")
        out["var_linearity_s"] = (op_s["var_linearity"], "s")
        return out
