"""Recombining binomial lattice pricer (Cox-Ross-Rubinstein parameterization).

Per step of length t/n the price moves by u = exp(vol*sqrt(t/n)) or d = 1/u
with risk-neutral probability p = (exp(r*t/n) - d)/(u - d), so the one-step
martingale identity p*u + (1-p)*d = exp(r*t/n) holds by construction. The
discounted expected payoff is evaluated with log-space binomial weights,
which stays stable for step counts well beyond 10^4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .pricing import OptionSpec, PriceResult, d_plus_minus, degenerate_result


@dataclass(frozen=True)
class TreeConfig:
    steps: int

    def __post_init__(self) -> None:
        if not isinstance(self.steps, (int, np.integer)) or isinstance(self.steps, bool):
            raise ValueError(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")


class TreeParameterizationError(ValueError):
    """The risk-neutral step probability left (0, 1); use more steps."""


def crr_tree_price(spec: OptionSpec, cfg: TreeConfig) -> PriceResult:
    """Price a European call on a recombining binomial tree.

    Returns the discounted expected terminal payoff
    e^{-rt} * sum_k C(n,k) p^k (1-p)^{n-k} max(spot*u^k*d^{n-k} - strike, 0).
    With zero volatility or zero expiry the lattice is a single
    deterministic path, and the deterministic-limit price is returned.
    """
    n = cfg.steps
    if spec.vol_sqrt_t == 0.0:
        return degenerate_result(spec, "tree", detail={"steps": n, "degenerate": True})

    dt = spec.expiry / n
    step_vol = spec.volatility * math.sqrt(dt)
    u = math.exp(step_vol)
    d = 1.0 / u
    growth = math.exp(spec.rate * dt)
    p = (growth - d) / (u - d)
    if not 0.0 < p < 1.0:
        raise TreeParameterizationError(
            f"risk-neutral step probability {p:.6g} is outside (0, 1) for "
            f"steps={n}; increase steps until exp(r*t/n) lies between the "
            f"down and up factors")

    k = np.arange(n + 1)
    log_weights = (gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
                   + k * math.log(p) + (n - k) * math.log1p(-p))
    terminal = spec.spot * np.exp((2 * k - n) * step_vol)
    payoff = np.maximum(terminal - spec.strike, 0.0)
    price = math.exp(-spec.rate * spec.expiry) * float(np.exp(log_weights) @ payoff)

    dp, dm = d_plus_minus(spec)
    detail = {"steps": n, "terminal_nodes": n + 1, "up_factor": u, "down_factor": d,
              "prob_up": p}
    return PriceResult(price=max(price, 0.0), d_plus=dp, d_minus=dm, method="tree",
                       detail=detail)
