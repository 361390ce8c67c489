"""Monte Carlo call pricer under the risk-neutral lognormal law.

Terminal log-returns are sampled with the counter-based streams from
bslab.rng, so draw i depends only on (seed, i). Paths are processed in
canonical rng.BLOCK-sized blocks starting at index 0; each block is reduced
to (count, mean, M2) and the blocks are merged in order with Chan's
pairwise update. Memory is therefore O(block) for any number of paths, and
the result is bit-identical for any batch_size: batch_size is still
accepted and validated, but changes neither the result nor the memory used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pricing import (NormalParams, OptionSpec, PriceResult, _degenerate_d,
                      d_plus_minus, intrinsic_forward_value, risk_neutral_params)
from .rng import BLOCK, normal_stream


@dataclass(frozen=True)
class McConfig:
    paths: int
    seed: int
    batch_size: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.paths, (int, np.integer)) or isinstance(self.paths, bool):
            raise ValueError(f"paths must be an integer, got {self.paths!r}")
        if self.paths < 2:
            raise ValueError(f"paths must be >= 2 to report a standard error, got {self.paths}")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed}")
        if self.batch_size is not None:
            if self.batch_size < 1:
                raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
            if self.batch_size > self.paths:
                raise ValueError(
                    f"batch_size {self.batch_size} must not exceed paths {self.paths}")

    @property
    def effective_batch_size(self) -> int:
        """The configured batch size, or min(paths, BLOCK); the pricers
        always sample in rng.BLOCK blocks whatever this is."""
        if self.batch_size is not None:
            return self.batch_size
        return min(self.paths, BLOCK)


def _terminal_log_return_blocks(params: NormalParams, cfg: McConfig):
    """Terminal log-returns for paths [0, cfg.paths), one BLOCK at a time."""
    for lo in range(0, cfg.paths, BLOCK):
        z = normal_stream(cfg.seed, lo, min(BLOCK, cfg.paths - lo))
        z *= params.std_dev
        z += params.mean
        yield z


def mc_price(spec: OptionSpec, cfg: McConfig) -> PriceResult:
    """Average discounted payoff over cfg.paths sampled terminal prices.

    std_error is the sample standard deviation over sqrt(paths). With zero
    volatility the law is a point mass and the exact deterministic value is
    returned with std_error 0.
    """
    if spec.vol_sqrt_t == 0.0:
        d_lim = _degenerate_d(spec)
        return PriceResult(price=intrinsic_forward_value(spec), d_plus=d_lim, d_minus=d_lim,
                           method="monte_carlo", std_error=0.0,
                           detail={"paths": cfg.paths, "seed": cfg.seed, "degenerate": True})

    params = risk_neutral_params(spec)
    disc = math.exp(-spec.rate * spec.expiry)
    count, mean, m2 = 0, 0.0, 0.0
    for payoff in _terminal_log_return_blocks(params, cfg):
        # disc * max(spot * e^y - strike, 0), in place over the block
        np.exp(payoff, out=payoff)
        payoff *= spec.spot
        payoff -= spec.strike
        np.maximum(payoff, 0.0, out=payoff)
        payoff *= disc
        n_b = payoff.size
        mean_b = float(payoff.mean())
        payoff -= mean_b
        m2_b = float(np.square(payoff, out=payoff).sum())
        # Chan et al.'s pairwise merge of (count, mean, M2)
        total = count + n_b
        delta = mean_b - mean
        mean += delta * n_b / total
        m2 += m2_b + delta * delta * count * n_b / total
        count = total

    estimate = mean
    std_error = math.sqrt(m2 / (cfg.paths - 1)) / math.sqrt(cfg.paths)
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
    block_sums = []
    for y in _terminal_log_return_blocks(params, cfg):
        y -= rt
        block_sums.append(float(np.exp(y, out=y).sum()))
    return math.fsum(block_sums) / cfg.paths
