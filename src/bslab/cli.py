"""Command-line front door.

Subcommands: price | mc | tree | clt-demo | lindeberg | var-linearity.
Every subcommand takes --format json|csv|text, --output PATH and --config
PATH; a config file holds flat key=value lines (using the long option
names, '#' starts a comment) and explicit command-line flags win over it.

Each subcommand is one COMMANDS entry: flag groups, a build step making
its domain objects and a run step returning its report. Steps import the
domain modules they use when they run, so `price` and `tree` load neither
numpy nor scipy, and call the pricers and experiments through those
modules, so a tracer that rebinds a function in its home module sees every
call.

Exit codes: 0 success, 1 usage error, 2 numerical/convergence error.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections import namedtuple
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import pricing
from .reports import render_csv, render_json, render_text

if TYPE_CHECKING:
    from .increments import IncrementModel
    from .montecarlo import McConfig
    from .tree import TreeConfig

FORMATS = {"json": render_json, "csv": render_csv, "text": render_text}


class UsageError(Exception):
    """Bad command line or config file; maps to exit code 1."""


@dataclass
class RunConfig:
    """A validated run: the command, its flag values and the domain objects
    built from them."""

    command: str
    flags: dict
    output_format: str = "text"
    output_path: str | None = None
    option_spec: pricing.OptionSpec | None = None
    tree_config: TreeConfig | None = None
    mc_config: McConfig | None = None
    model: IncrementModel | None = None
    samples: int | None = None
    seed: int | None = None
    horizon: float | None = None
    n_ladder: tuple[int, ...] | None = None
    epsilon: float | None = None
    horizons: tuple[float, ...] | None = None

    def to_argv(self) -> list[str]:
        """Flags that parse back into an equal RunConfig (repr keeps every
        float exact)."""
        argv = [self.command]
        for dest, value in self.flags.items():
            if value is not None:
                text = repr(value) if isinstance(value, float) else str(value)
                argv += ["--" + dest.replace("_", "-"), text]
        return argv


# flag groups: (flag, argparse keyword arguments) pairs
_SEED = ("--seed", dict(type=int, required=True, help="64-bit stream seed"))
_OPTION = (
    ("--spot", dict(type=float, required=True, help="current underlying price")),
    ("--strike", dict(type=float, required=True, help="strike price")),
    ("--rate", dict(type=float, required=True, help="continuously compounded annual rate")),
    ("--expiry", dict(type=float, required=True, help="time to expiry in years")),
    ("--vol", dict(type=float, required=True, help="annualized volatility of the log-return")),
)
_PATHS = (("--paths", dict(type=int, required=True, help="number of sampled paths")), _SEED)
_STEPS = (("--steps", dict(type=int, required=True, help="number of tree steps")),)
_MODEL = (
    ("--model", dict(required=True, metavar="KIND",
                     help="increment family (an unknown KIND is reported with the valid ones)")),
    ("--variance", dict(type=float, help="per-unit-time variance (not for poisson_jump)")),
    ("--jump-size", dict(type=float, help="fixed jump size (poisson_jump only)")),
    ("--intensity", dict(type=float, help="jump intensity per unit time (poisson_jump only)")),
    ("--samples", dict(type=int, required=True, help="number of sampled rows")),
    _SEED,
)
_LADDER = (
    ("--horizon", dict(type=float, default=1.0, help="total horizon t (years)")),
    ("--n-ladder", dict(default="16,256,4096", metavar="N1,N2,...",
                        help="strictly increasing comma-separated row sizes")),
    ("--epsilon", dict(type=float, default=0.01, help="Lindeberg truncation level")),
)
_HORIZONS = (("--horizons", dict(default="0.25,0.5,1,2", metavar="T1,T2,...",
                                 help="comma-separated horizons (at least 3 distinct)")),)
_COMMON = (
    ("--format", dict(choices=FORMATS, default="text", help="report format (default: text)")),
    ("--output", dict(metavar="PATH", help="write the report to PATH instead of stdout")),
    ("--config", dict(metavar="PATH", help="flat key=value file supplying defaults for any flag")),
)


# build steps: parsed flags -> RunConfig fields
def _build_option(a) -> dict:
    return {"option_spec": pricing.OptionSpec(spot=a.spot, strike=a.strike, rate=a.rate,
                                              expiry=a.expiry, volatility=a.vol)}


def _build_mc(a) -> dict:
    from . import montecarlo
    return {**_build_option(a), "mc_config": montecarlo.McConfig(a.paths, a.seed)}


def _build_tree(a) -> dict:
    from . import tree
    return {**_build_option(a), "tree_config": tree.TreeConfig(a.steps)}


def _build_model(a) -> IncrementModel:
    from .increments import KINDS, IncrementModel
    if a.model == "poisson_jump":
        if a.variance is not None or a.jump_size is None or a.intensity is None:
            raise UsageError("poisson_jump takes --jump-size and --intensity, not --variance")
        return IncrementModel.poisson_jump(a.jump_size, a.intensity)
    if a.variance is None and a.model in KINDS:
        raise UsageError(f"{a.model} requires --variance")
    # IncrementModel rejects an unknown kind, naming the valid ones
    return IncrementModel(a.model, a.variance, a.jump_size, a.intensity)


def _build_sampling(a, min_samples: int) -> dict:
    from . import rng
    return {"samples": pricing.require_count("samples", a.samples, min_samples),
            "model": _build_model(a), "seed": int(rng.check_seed(a.seed))}


def _build_ladder(a, ks: bool) -> dict:
    # clt-demo runs a KS test on its row sums; lindeberg needs only a variance
    from . import cltlab
    sampling = _build_sampling(a, cltlab.KS_MIN_SAMPLES if ks else cltlab.VARIANCE_MIN_SAMPLES)
    try:
        ladder = [int(n) for n in a.n_ladder.split(",")]
    except ValueError:
        raise UsageError(f"--n-ladder takes comma-separated integers, got {a.n_ladder!r}") from None
    return {**sampling, "horizon": a.horizon, "epsilon": a.epsilon,
            "n_ladder": cltlab.check_ladder(ladder, a.horizon, a.epsilon)}


def _build_var_linearity(a) -> dict:
    from . import cltlab
    sampling = _build_sampling(a, cltlab.VARIANCE_MIN_SAMPLES)
    try:
        horizons = [float(t) for t in a.horizons.split(",")]
    except ValueError:
        raise UsageError(f"--horizons takes comma-separated numbers, got {a.horizons!r}") from None
    return {**sampling, "horizons": cltlab.check_horizons(horizons)}


# run steps: RunConfig -> report sections (inputs, results, diagnostics, rows)
def _price_report(spec: pricing.OptionSpec, result: pricing.PriceResult, **inputs) -> dict:
    results = {"price": result.price, "d_plus": result.d_plus, "d_minus": result.d_minus}
    if result.std_error is not None:
        results["std_error"] = result.std_error
    return {"inputs": {"spot": spec.spot, "strike": spec.strike, "rate": spec.rate,
                       "expiry": spec.expiry, "vol": spec.volatility, **inputs},
            "results": results, "diagnostics": {"method": result.method}}


def _mc_report(cfg: RunConfig) -> dict:
    from . import montecarlo
    return _price_report(cfg.option_spec, montecarlo.mc_price(cfg.option_spec, cfg.mc_config),
                         paths=cfg.mc_config.paths, seed=cfg.mc_config.seed)


def _tree_report(cfg: RunConfig) -> dict:
    from . import tree
    result = tree.crr_tree_price(cfg.option_spec, cfg.tree_config)
    report = _price_report(cfg.option_spec, result, steps=cfg.tree_config.steps)
    report["diagnostics"].update((k, v) for k, v in result.detail.items() if k != "steps")
    return report


def _model_inputs(cfg: RunConfig) -> dict:
    """Inputs of the three model commands, ending in their horizons."""
    m = cfg.model
    inputs = {"model": m.kind, "samples": cfg.samples, "seed": cfg.seed}
    if m.kind == "poisson_jump":
        inputs.update(jump_size=m.jump_size, intensity=m.intensity)
    inputs["variance"] = m.per_unit_variance
    if cfg.horizons is not None:
        return {**inputs, "horizons": list(cfg.horizons)}
    return {**inputs, "horizon": cfg.horizon, "epsilon": cfg.epsilon,
            "n_ladder": list(cfg.n_ladder)}


def _clt_demo_report(cfg: RunConfig) -> dict:
    from . import cltlab
    spec = cltlab.ArraySpec(cfg.model, cfg.horizon, 1, cfg.samples, cfg.seed)
    rep = cltlab.run_convergence_experiment(spec, cfg.n_ladder, cfg.epsilon)
    rows = [{"n": n, "ks_statistic": ks, "lindeberg": lv, "max_cell_variance": mv}
            for n, ks, lv, mv in zip(rep.n_ladder, rep.ks_statistics,
                                     rep.lindeberg_values, rep.max_cell_variance)]
    return {"inputs": _model_inputs(cfg), "rows": rows,
            "results": {"verdict": rep.verdict, "ks_threshold": rep.ks_threshold}}


def _lindeberg_report(cfg: RunConfig) -> dict:
    from . import cltlab, rng
    stats = [cltlab.lindeberg_statistic(cfg.model, n, cfg.horizon, cfg.epsilon, cfg.samples,
                                        rng.substream(cfg.seed, k))
             for k, n in enumerate(cfg.n_ladder)]
    rows = [{"n": n, "lindeberg": s.analytic, "mc_estimate": s.estimate,
             "mc_std_error": s.std_error} for n, s in zip(cfg.n_ladder, stats)]
    return {"inputs": _model_inputs(cfg), "rows": rows}


def _var_linearity_report(cfg: RunConfig) -> dict:
    from . import cltlab
    res = cltlab.variance_linearity_check(cfg.model, cfg.horizons, cfg.samples, cfg.seed)
    rows = [{"horizon": t, "variance": v, "variance_std_error": se}
            for t, v, se in zip(res.horizons, res.variances, res.variance_std_errors)]
    fit = ("slope", "intercept", "slope_std_error", "intercept_std_error", "max_residual")
    return {"inputs": _model_inputs(cfg), "rows": rows,
            "results": {key: getattr(res, key) for key in fit}}


# One entry per subcommand. Run steps look the pricers and experiments up in
# their home modules when they run, so a tracer that rebinds them sees them.
Command = namedtuple("Command", "help groups build run")
COMMANDS = {
    "price": Command("closed-form call price", (_OPTION,), _build_option,
                     lambda cfg: _price_report(cfg.option_spec,
                                               pricing.bs_call_price(cfg.option_spec))),
    "mc": Command("Monte Carlo call price", (_OPTION, _PATHS), _build_mc, _mc_report),
    "tree": Command("binomial-tree call price", (_OPTION, _STEPS), _build_tree, _tree_report),
    "clt-demo": Command("row-sum normality experiment over an n ladder", (_MODEL, _LADDER),
                        lambda a: _build_ladder(a, ks=True), _clt_demo_report),
    "lindeberg": Command("Lindeberg statistic across an n ladder", (_MODEL, _LADDER),
                         lambda a: _build_ladder(a, ks=False), _lindeberg_report),
    "var-linearity": Command("variance-vs-horizon linearity fit", (_MODEL, _HORIZONS),
                             _build_var_linearity, _var_linearity_report),
}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)  # argparse takes -1 for a value but -1e-05 for a flag
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="bslab", allow_abbrev=False,
                     description="Black-Scholes pricing and central-limit convergence experiments")
    sub = parser.add_subparsers(dest="command", metavar="{" + ",".join(COMMANDS) + "}")
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for group in command.groups + (_COMMON,):
            for flag, kwargs in group:
                p.add_argument(flag, **kwargs)
    return parser


def _splice_config(argv: list[str]) -> list[str]:
    """Insert the flags of a --config file after the subcommand, so that
    explicit command-line flags, parsed later, take precedence."""
    argv = [part for arg in argv  # --config=PATH is read as --config PATH
            for part in (arg.split("=", 1) if arg.startswith("--config=") else (arg,))]
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise UsageError("--config requires a file path")
    path, rest = argv[i + 1], argv[:i] + argv[i + 2:]
    if not rest or rest[0].startswith("-"):
        raise UsageError("--config requires a subcommand")
    flags: list[str] = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, sep, value = (part.strip() for part in line.partition("="))
                if not (sep and key and value):
                    raise UsageError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
                if key in ("config", "--config"):
                    raise UsageError(f"{path}:{lineno}: config files cannot nest --config")
                flags += ["--" + key.lstrip("-").replace("_", "-"), value]
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return [rest[0]] + flags + rest[1:]


def parse_args(argv: list[str]) -> RunConfig:
    """Turn an argv list into a validated RunConfig or raise UsageError."""
    parser = _build_parser()
    args = parser.parse_args(_splice_config(list(argv)))
    if args.command is None:
        parser.error("a command is required")
    try:
        built = COMMANDS[args.command].build(args)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    return RunConfig(args.command, flags, args.format, args.output, **built)


def execute(cfg: RunConfig, out=None) -> int:
    """Run a validated config, emit its report, return the exit code."""
    try:
        report = {"command": cfg.command, **COMMANDS[cfg.command].run(cfg)}
        text = FORMATS[cfg.output_format](report)
    except (ValueError, RuntimeError) as exc:
        print(f"bslab {cfg.command}: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # backstop: an input overflowed or divided by zero
        print(f"bslab {cfg.command}: numerical failure ({type(exc).__name__}: {exc}); "
              "the inputs are outside the computable range", file=sys.stderr)
        return 2
    if cfg.output_path is not None:
        try:
            with open(cfg.output_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"bslab {cfg.command}: cannot write output file {cfg.output_path}: {exc}",
                  file=sys.stderr)
            return 1
    else:
        (out or sys.stdout).write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    return execute(cfg)


if __name__ == "__main__":
    sys.exit(main())
