"""Command-line front door.

Subcommands: price | mc | tree | clt-demo | lindeberg | var-linearity.
Every subcommand takes --format json|csv|text, --output PATH and --config
PATH; a config file holds flat key=value lines (using the long option
names, '#' starts a comment) and explicit command-line flags win over it.

Exit codes: 0 success, 1 usage error, 2 numerical/convergence error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from .cltlab import (ArraySpec, lindeberg_statistic, run_convergence_experiment,
                     variance_linearity_check)
from .increments import KINDS, IncrementModel
from .montecarlo import McConfig, mc_price
from .pricing import OptionSpec, PriceResult, bs_call_price
from .quadrature import QuadratureConvergenceError
from .reports import render_csv, render_json, render_text
from .rng import substream
from .tree import TreeConfig, TreeParameterizationError, crr_tree_price

COMMANDS = ("price", "mc", "tree", "clt-demo", "lindeberg", "var-linearity")
FORMATS = ("json", "csv", "text")


class UsageError(Exception):
    """Bad command line or config file; maps to exit code 1."""


@dataclass
class RunConfig:
    """A validated run: the command plus the domain objects it needs."""

    command: str
    output_format: str = "text"
    output_path: str | None = None
    option_spec: OptionSpec | None = None
    tree_config: TreeConfig | None = None
    mc_config: McConfig | None = None
    model: IncrementModel | None = None
    horizon: float | None = None
    samples: int | None = None
    seed: int | None = None
    epsilon: float | None = None
    n_ladder: tuple[int, ...] | None = None
    horizons: tuple[float, ...] | None = None

    def to_argv(self) -> list[str]:
        """Flags that parse back into an equal RunConfig."""
        argv = [self.command]
        if self.option_spec is not None:
            s = self.option_spec
            argv += ["--spot", repr(s.spot), "--strike", repr(s.strike),
                     "--rate", repr(s.rate), "--expiry", repr(s.expiry),
                     "--vol", repr(s.volatility)]
        if self.tree_config is not None:
            argv += ["--steps", str(self.tree_config.steps)]
        if self.mc_config is not None:
            argv += ["--paths", str(self.mc_config.paths), "--seed", str(self.mc_config.seed)]
            if self.mc_config.batch_size is not None:
                argv += ["--batch-size", str(self.mc_config.batch_size)]
        if self.model is not None:
            argv += ["--model", self.model.kind]
            if self.model.kind == "poisson_jump":
                argv += ["--jump-size", repr(self.model.jump_size),
                         "--intensity", repr(self.model.intensity)]
            else:
                argv += ["--variance", repr(self.model.per_unit_variance)]
        if self.horizon is not None:
            argv += ["--horizon", repr(self.horizon)]
        if self.samples is not None:
            argv += ["--samples", str(self.samples)]
        if self.seed is not None and self.mc_config is None:
            argv += ["--seed", str(self.seed)]
        if self.epsilon is not None:
            argv += ["--epsilon", repr(self.epsilon)]
        if self.n_ladder is not None:
            argv += ["--n-ladder", ",".join(str(n) for n in self.n_ladder)]
        if self.horizons is not None:
            argv += ["--horizons", ",".join(repr(t) for t in self.horizons)]
        argv += ["--format", self.output_format]
        if self.output_path is not None:
            argv += ["--output", self.output_path]
        return argv


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="bslab", allow_abbrev=False,
                     description="Black-Scholes pricing and central-limit convergence experiments")
    sub = parser.add_subparsers(dest="command", metavar="{" + ",".join(COMMANDS) + "}")

    common = _Parser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="text",
                        help="report format (default: text)")
    common.add_argument("--output", default=None, metavar="PATH",
                        help="write the report to PATH instead of stdout")
    common.add_argument("--config", default=None, metavar="PATH",
                        help="flat key=value file supplying defaults for any flag")

    option = _Parser(add_help=False)
    option.add_argument("--spot", type=float, required=True, help="current underlying price")
    option.add_argument("--strike", type=float, required=True, help="strike price")
    option.add_argument("--rate", type=float, required=True,
                        help="continuously compounded annual risk-free rate")
    option.add_argument("--expiry", type=float, required=True, help="time to expiry in years")
    option.add_argument("--vol", type=float, required=True,
                        help="annualized volatility of the log-return")

    model = _Parser(add_help=False)
    model.add_argument("--model", choices=KINDS, required=True, help="increment family")
    model.add_argument("--variance", type=float, default=None,
                       help="per-unit-time variance (all models except poisson_jump)")
    model.add_argument("--jump-size", type=float, default=None,
                       help="fixed jump size (poisson_jump only)")
    model.add_argument("--intensity", type=float, default=None,
                       help="jump intensity per unit time (poisson_jump only)")
    model.add_argument("--samples", type=int, required=True, help="number of sampled rows")
    model.add_argument("--seed", type=int, required=True, help="64-bit stream seed")

    sub.add_parser("price", parents=[option, common],
                   help="closed-form call price")
    p_tree = sub.add_parser("tree", parents=[option, common],
                            help="binomial-tree call price")
    p_tree.add_argument("--steps", type=int, required=True, help="number of tree steps")
    p_mc = sub.add_parser("mc", parents=[option, common],
                          help="Monte Carlo call price")
    p_mc.add_argument("--paths", type=int, required=True, help="number of sampled paths")
    p_mc.add_argument("--seed", type=int, required=True, help="64-bit stream seed")
    p_mc.add_argument("--batch-size", type=int, default=None,
                      help="validated (1..paths) but unused: sampling runs in fixed "
                           "blocks, so it changes neither results nor memory")

    p_clt = sub.add_parser("clt-demo", parents=[model, common],
                           help="row-sum normality experiment over an n ladder")
    p_clt.add_argument("--horizon", type=float, default=1.0, help="total horizon t (years)")
    p_clt.add_argument("--n-ladder", default="16,256,4096", metavar="N1,N2,...",
                       help="strictly increasing comma-separated row sizes")
    p_clt.add_argument("--epsilon", type=float, default=0.01,
                       help="truncation level for the Lindeberg statistic")

    p_lin = sub.add_parser("lindeberg", parents=[model, common],
                           help="Lindeberg statistic across an n ladder")
    p_lin.add_argument("--horizon", type=float, default=1.0, help="total horizon t (years)")
    p_lin.add_argument("--n-ladder", default="16,256,4096", metavar="N1,N2,...",
                       help="strictly increasing comma-separated row sizes")
    p_lin.add_argument("--epsilon", type=float, default=0.01,
                       help="truncation level for the Lindeberg statistic")

    p_var = sub.add_parser("var-linearity", parents=[model, common],
                           help="variance-vs-horizon linearity fit")
    p_var.add_argument("--horizons", default="0.25,0.5,1,2", metavar="T1,T2,...",
                       help="comma-separated horizons (at least 3 distinct)")

    return parser


def _load_config_flags(path: str) -> list[str]:
    flags: list[str] = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                if not key or not value:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
                if key in ("config", "--config"):
                    raise UsageError(f"{path}:{lineno}: config files cannot nest --config")
                flags += ["--" + key.lstrip("-").replace("_", "-"), value]
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return flags


def _splice_config(argv: list[str]) -> list[str]:
    """Insert config-file flags after the subcommand so that explicit
    command-line flags, parsed later, take precedence."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise UsageError("--config requires a file path")
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2:]
    if not rest or rest[0].startswith("-"):
        raise UsageError("--config requires a subcommand")
    return [rest[0]] + _load_config_flags(path) + rest[1:]


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in str(text).split(","))
    except ValueError as exc:
        raise UsageError(f"{flag}: expected comma-separated integers, got {text!r}") from exc


def _parse_float_list(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in str(text).split(","))
    except ValueError as exc:
        raise UsageError(f"{flag}: expected comma-separated numbers, got {text!r}") from exc


def _build_model(args) -> IncrementModel:
    try:
        if args.model == "poisson_jump":
            if args.variance is not None:
                raise UsageError("poisson_jump takes --jump-size/--intensity, not --variance")
            if args.jump_size is None or args.intensity is None:
                raise UsageError("poisson_jump requires --jump-size and --intensity")
            return IncrementModel.poisson_jump(args.jump_size, args.intensity)
        if args.jump_size is not None or args.intensity is not None:
            raise UsageError(f"--jump-size/--intensity only apply to poisson_jump, not {args.model}")
        if args.variance is None:
            raise UsageError(f"{args.model} requires --variance")
        return getattr(IncrementModel, args.model)(args.variance)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def parse_args(argv: list[str]) -> RunConfig:
    """Turn an argv list into a validated RunConfig or raise UsageError."""
    parser = _build_parser()
    argv = _splice_config(list(argv))
    args = parser.parse_args(argv)
    if args.command is None:
        parser.error("a command is required")

    cfg = RunConfig(command=args.command, output_format=args.format, output_path=args.output)
    try:
        if args.command in ("price", "tree", "mc"):
            cfg.option_spec = OptionSpec(spot=args.spot, strike=args.strike, rate=args.rate,
                                         expiry=args.expiry, volatility=args.vol)
        if args.command == "tree":
            cfg.tree_config = TreeConfig(steps=args.steps)
        if args.command == "mc":
            cfg.mc_config = McConfig(paths=args.paths, seed=args.seed,
                                     batch_size=args.batch_size)
        if args.command in ("clt-demo", "lindeberg", "var-linearity"):
            cfg.model = _build_model(args)
            cfg.samples = args.samples
            cfg.seed = args.seed
            if args.samples < 1:
                raise ValueError(f"samples must be >= 1, got {args.samples}")
            if not 0 <= args.seed < 2 ** 64:
                raise ValueError(f"seed must fit in 64 unsigned bits, got {args.seed}")
        if args.command in ("clt-demo", "lindeberg"):
            cfg.horizon = args.horizon
            cfg.epsilon = args.epsilon
            cfg.n_ladder = _parse_int_list(args.n_ladder, "--n-ladder")
            if any(b <= a for a, b in zip(cfg.n_ladder, cfg.n_ladder[1:])) or \
                    any(n < 1 for n in cfg.n_ladder):
                raise ValueError(f"--n-ladder must be strictly increasing and >= 1, "
                                 f"got {list(cfg.n_ladder)}")
            if not (cfg.horizon > 0.0 and math.isfinite(cfg.horizon)):
                raise ValueError(f"horizon must be positive, got {cfg.horizon}")
            if not (cfg.epsilon > 0.0 and math.isfinite(cfg.epsilon)):
                raise ValueError(f"epsilon must be positive, got {cfg.epsilon}")
        if args.command == "var-linearity":
            cfg.horizons = _parse_float_list(args.horizons, "--horizons")
            if len(set(cfg.horizons)) < 3 or any(t <= 0.0 for t in cfg.horizons):
                raise ValueError("--horizons needs at least 3 distinct positive values")
    except UsageError:
        raise
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return cfg


# ---------------------------------------------------------------------------
# report assembly


def _option_inputs(spec: OptionSpec) -> dict:
    return {"spot": spec.spot, "strike": spec.strike, "rate": spec.rate,
            "expiry": spec.expiry, "vol": spec.volatility}


def _model_inputs(cfg: RunConfig) -> dict:
    inputs = {"model": cfg.model.kind, "samples": int(cfg.samples), "seed": int(cfg.seed)}
    if cfg.model.kind == "poisson_jump":
        inputs["jump_size"] = cfg.model.jump_size
        inputs["intensity"] = cfg.model.intensity
    inputs["variance"] = cfg.model.per_unit_variance
    return inputs


def _price_report(cfg: RunConfig, result: PriceResult) -> tuple[dict, list[str], list[dict]]:
    inputs = _option_inputs(cfg.option_spec)
    results = {"price": result.price, "d_plus": result.d_plus, "d_minus": result.d_minus}
    if result.std_error is not None:
        results["std_error"] = result.std_error
    diagnostics: dict = {"method": result.method}
    if cfg.command == "tree":
        inputs["steps"] = cfg.tree_config.steps
        diagnostics.update(result.detail or {})
        diagnostics.pop("steps", None)
    if cfg.command == "mc":
        # batch_size changes neither results nor memory (the pricer samples
        # in fixed blocks), so it stays out of the report: runs that differ
        # only in batching emit identical bytes
        inputs["paths"] = cfg.mc_config.paths
        inputs["seed"] = cfg.mc_config.seed
    report = {"command": cfg.command, "inputs": inputs, "results": results,
              "diagnostics": diagnostics}
    flat = {**inputs, **results, **diagnostics}
    columns = list(inputs) + list(results) + list(diagnostics)
    return report, columns, [flat]


def _clt_demo_report(cfg: RunConfig) -> tuple[dict, list[str], list[dict]]:
    spec = ArraySpec(model=cfg.model, horizon=cfg.horizon, rows=1,
                     samples=cfg.samples, seed=cfg.seed)
    rep = run_convergence_experiment(spec, cfg.n_ladder, cfg.epsilon)
    inputs = {**_model_inputs(cfg), "horizon": cfg.horizon, "epsilon": cfg.epsilon,
              "n_ladder": list(rep.n_ladder)}
    rows = [{"n": n, "ks_statistic": ks, "lindeberg": lv, "max_cell_variance": mv}
            for n, ks, lv, mv in zip(rep.n_ladder, rep.ks_statistics,
                                     rep.lindeberg_values, rep.max_cell_variance)]
    results = {"verdict": rep.verdict, "ks_threshold": rep.ks_threshold}
    report = {"command": cfg.command, "inputs": inputs, "results": results, "rows": rows}
    csv_inputs = {k: v for k, v in inputs.items() if k != "n_ladder"}
    columns = list(csv_inputs) + ["n", "ks_statistic", "lindeberg", "max_cell_variance"] \
        + list(results)
    flat_rows = [{**csv_inputs, **row, **results} for row in rows]
    return report, columns, flat_rows


def _lindeberg_report(cfg: RunConfig) -> tuple[dict, list[str], list[dict]]:
    rows = []
    has_analytic = False
    for k, n in enumerate(cfg.n_ladder):
        res = lindeberg_statistic(cfg.model, n, cfg.horizon, cfg.epsilon,
                                  cfg.samples, substream(cfg.seed, k))
        has_analytic = res.analytic is not None
        rows.append({"n": n, "lindeberg": res.value, "mc_estimate": res.estimate,
                     "mc_std_error": res.std_error})
    inputs = {**_model_inputs(cfg), "horizon": cfg.horizon, "epsilon": cfg.epsilon,
              "n_ladder": list(cfg.n_ladder)}
    diagnostics = {"lindeberg_source": "analytic" if has_analytic else "monte_carlo"}
    report = {"command": cfg.command, "inputs": inputs, "diagnostics": diagnostics,
              "rows": rows}
    csv_inputs = {k: v for k, v in inputs.items() if k != "n_ladder"}
    columns = list(csv_inputs) + ["n", "lindeberg", "mc_estimate", "mc_std_error"] \
        + list(diagnostics)
    flat_rows = [{**csv_inputs, **row, **diagnostics} for row in rows]
    return report, columns, flat_rows


def _var_linearity_report(cfg: RunConfig) -> tuple[dict, list[str], list[dict]]:
    res = variance_linearity_check(cfg.model, cfg.horizons, cfg.samples, cfg.seed)
    inputs = {**_model_inputs(cfg), "horizons": list(res.horizons)}
    rows = [{"horizon": t, "variance": v, "variance_std_error": se}
            for t, v, se in zip(res.horizons, res.variances, res.variance_std_errors)]
    results = {"slope": res.slope, "intercept": res.intercept,
               "slope_std_error": res.slope_std_error,
               "intercept_std_error": res.intercept_std_error,
               "max_residual": res.max_residual}
    report = {"command": cfg.command, "inputs": inputs, "results": results, "rows": rows}
    csv_inputs = {k: v for k, v in inputs.items() if k != "horizons"}
    columns = list(csv_inputs) + ["horizon", "variance", "variance_std_error"] + list(results)
    flat_rows = [{**csv_inputs, **row, **results} for row in rows]
    return report, columns, flat_rows


def execute(cfg: RunConfig, out=None) -> int:
    """Run a validated config, emit its report, return the exit code."""
    try:
        if cfg.command == "price":
            report, columns, rows = _price_report(cfg, bs_call_price(cfg.option_spec))
        elif cfg.command == "tree":
            report, columns, rows = _price_report(cfg, crr_tree_price(cfg.option_spec,
                                                                      cfg.tree_config))
        elif cfg.command == "mc":
            report, columns, rows = _price_report(cfg, mc_price(cfg.option_spec, cfg.mc_config))
        elif cfg.command == "clt-demo":
            report, columns, rows = _clt_demo_report(cfg)
        elif cfg.command == "lindeberg":
            report, columns, rows = _lindeberg_report(cfg)
        elif cfg.command == "var-linearity":
            report, columns, rows = _var_linearity_report(cfg)
        else:  # pragma: no cover - parse_args guarantees a known command
            raise UsageError(f"unknown command {cfg.command!r}")
    except (TreeParameterizationError, QuadratureConvergenceError, ValueError,
            RuntimeError) as exc:
        print(f"bslab {cfg.command}: {exc}", file=sys.stderr)
        return 2

    if cfg.output_format == "json":
        text = render_json(_jsonable(report))
    elif cfg.output_format == "csv":
        text = render_csv(columns, rows)
    else:
        text = render_text(report)

    if cfg.output_path is not None:
        with open(cfg.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        (out or sys.stdout).write(text)
    return 0


def _jsonable(obj):
    """Plain Python scalars/containers only, so json emits canonical text."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        cfg = parse_args(argv)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    return execute(cfg)


if __name__ == "__main__":
    sys.exit(main())
