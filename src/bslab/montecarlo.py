"""Monte Carlo call pricer under the risk-neutral lognormal law.

Terminal log-returns are sampled with the counter-based streams from
bslab.rng, so draw i depends only on (seed, i). The payoffs are reduced
by rng.block_mean_m2 and the forward check's sums are taken over
rng.map_blocks: both cut the paths into canonical rng.BLOCK-sized pieces
from index 0 and combine them in order, so memory is O(block) for any
number of paths and the results are bit-identical on one thread or two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pricing import (NormalParams, OptionSpec, PriceResult, d_plus_minus, degenerate_result,
                      discount_factor, require_count, risk_neutral_params)
from .rng import block_mean_m2, check_seed, map_blocks, normal_stream


@dataclass(frozen=True)
class McConfig:
    paths: int
    seed: int

    def __post_init__(self) -> None:
        # two paths at least, for a standard error
        object.__setattr__(self, "paths", require_count("paths", self.paths, 2))
        check_seed(self.seed)


def _terminal_log_returns(params: NormalParams, cfg: McConfig, lo: int, hi: int) -> np.ndarray:
    """Terminal log-returns for paths lo..hi-1."""
    z = normal_stream(cfg.seed, lo, hi - lo)
    z *= params.std_dev
    z += params.mean
    return z


def mc_price(spec: OptionSpec, cfg: McConfig) -> PriceResult:
    """Average discounted payoff over cfg.paths sampled terminal prices.

    std_error is the sample standard deviation over sqrt(paths). With zero
    volatility the law is a point mass and the exact deterministic value is
    returned with std_error 0.
    """
    if spec.vol_sqrt_t == 0.0:
        return degenerate_result(spec, "monte_carlo", std_error=0.0,
                                 detail={"paths": cfg.paths, "seed": cfg.seed, "degenerate": True})

    params = risk_neutral_params(spec)
    disc = discount_factor(spec)

    def discounted_payoff(lo: int, hi: int) -> np.ndarray:
        # disc * max(spot * e^y - strike, 0), in place over the block
        payoff = _terminal_log_returns(params, cfg, lo, hi)
        np.exp(payoff, out=payoff)
        payoff *= spec.spot
        payoff -= spec.strike
        np.maximum(payoff, 0.0, out=payoff)
        payoff *= disc
        return payoff

    with np.errstate(over="ignore", invalid="ignore"):  # a payoff overflow is rejected below
        estimate, m2 = block_mean_m2(discounted_payoff, cfg.paths)
    std_error = math.sqrt(m2 / (cfg.paths - 1)) / math.sqrt(cfg.paths)
    if not (math.isfinite(estimate) and math.isfinite(std_error)):
        raise ValueError(f"the Monte Carlo estimate {estimate} +- {std_error} is not finite")
    dp, dm = d_plus_minus(spec)
    return PriceResult(price=max(estimate, 0.0), d_plus=dp, d_minus=dm,
                       method="monte_carlo", std_error=std_error,
                       detail={"paths": cfg.paths, "seed": cfg.seed})


def mc_forward_check(spec: OptionSpec, cfg: McConfig) -> float:
    """Monte Carlo estimate of E[X_t] / (spot * e^{rt}).

    Under the risk-neutral law the ratio is exactly 1; the estimator's
    standard error is sqrt((e^{vol^2 t} - 1)/paths). Zero volatility returns
    exactly 1.0.
    """
    if spec.vol_sqrt_t == 0.0:
        return 1.0
    params = risk_neutral_params(spec)
    rt = spec.rate * spec.expiry

    def growth_sum(lo: int, hi: int) -> float:
        y = _terminal_log_returns(params, cfg, lo, hi)
        y -= rt
        return float(np.exp(y, out=y).sum())

    return math.fsum(map_blocks(growth_sum, cfg.paths)) / cfg.paths
