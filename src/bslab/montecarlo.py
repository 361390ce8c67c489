"""Monte Carlo call pricer under the risk-neutral lognormal law.

Paths are in forward units: the terminal price over the forward spot*e^{rT}
is g = exp(s*z - s^2/2), of mean 1, for s = vol*sqrt(T) and z from the
counter-based normal stream of bslab.rng (draw i depends only on (seed, i)).
The present value of the payoff is spot*max(g - kappa, 0), kappa =
strike*e^{-rT}/spot held to twice the precision as in the lattice
(pricing.forward_strike), so no draw passes the largest double whatever the spot,
and the mean and standard error are scaled by spot once. rng.block_mean_m2
and rng.map_blocks cut the paths into canonical rng.BLOCK-sized pieces and
combine them in order: memory is O(block) and the bits are the same on one
thread or two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pricing import (OptionSpec, PriceResult, forward_strike, intrinsic_forward_value,
                      require_count)
from .rng import block_mean_m2, check_seed, map_blocks, normal_stream


@dataclass(frozen=True)
class McConfig:
    paths: int
    seed: int

    def __post_init__(self) -> None:
        # two paths at least, for a standard error
        object.__setattr__(self, "paths", require_count("paths", self.paths, 2))
        check_seed(self.seed)


def _forward_units(spec: OptionSpec, cfg: McConfig, lo: int, hi: int) -> np.ndarray:
    """Terminal prices over the forward, exp(s*z - s^2/2), for paths lo..hi-1."""
    s = spec.vol_sqrt_t
    g = normal_stream(cfg.seed, lo, hi - lo)
    with np.errstate(over="ignore"):  # past s ~ 1e154 s*(z - s/2) overflows to -inf: g is 0
        g -= 0.5 * s
        g *= s
    return np.exp(g, out=g)


def mc_price(spec: OptionSpec, cfg: McConfig) -> PriceResult:
    """Average discounted payoff over cfg.paths sampled terminal prices.

    std_error is the sample standard deviation over sqrt(paths). Zero
    volatility is a point mass: its exact value, with std_error 0.
    """
    if spec.vol_sqrt_t == 0.0:
        return PriceResult(intrinsic_forward_value(spec), std_error=0.0)

    kappa, kappa_lo = forward_strike(spec)

    def payoff(lo: int, hi: int) -> np.ndarray:
        g = _forward_units(spec, cfg, lo, hi)
        g -= kappa
        g -= kappa_lo
        return np.maximum(g, 0.0, out=g)

    mean, m2 = block_mean_m2(payoff, cfg.paths)
    estimate = spec.spot * mean
    std_error = spec.spot * (math.sqrt(m2 / (cfg.paths - 1)) / math.sqrt(cfg.paths))
    if not (estimate < math.inf and std_error < math.inf):
        raise ValueError(f"the Monte Carlo estimate {estimate} +- {std_error} is not finite")
    return PriceResult(estimate, std_error=std_error)


def mc_forward_check(spec: OptionSpec, cfg: McConfig) -> float:
    """Monte Carlo estimate of E[X_t] / (spot * e^{rt}), the mean of g.

    Under the risk-neutral law the ratio is exactly 1; the estimator's
    standard error is sqrt((e^{vol^2 t} - 1)/paths). Zero volatility returns
    exactly 1.0, since every g is then 1.
    """
    sums = map_blocks(lambda lo, hi: float(_forward_units(spec, cfg, lo, hi).sum()), cfg.paths)
    return math.fsum(sums) / cfg.paths
