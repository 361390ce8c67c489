"""Recombining binomial lattice pricer (Cox-Ross-Rubinstein parameterization).

Per step of length t/n the price moves by u = exp(vol*sqrt(t/n)) or d = 1/u
with risk-neutral probability p = (exp(r*t/n) - d)/(u - d), so the one-step
martingale identity p*u + (1-p)*d = exp(r*t/n) holds by construction.

The terminal row is Binomial(n, p), which concentrates within O(sqrt(n))
nodes of its mode, so only those nodes are weighed: 37,636 at 10^6 steps,
in plain `math`, with no numpy or scipy.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from itertools import chain

from .pricing import (OptionSpec, PriceResult, d_plus_minus, degenerate_result,
                      require_count)


# most lattice steps: 10**9 weigh about 1.2M nodes (23 MiB, ~10 s); time and
# memory grow as sqrt(steps) past that, and the step probability p cancels
# enough that 10**10 steps already move the price by 2e-5
MAX_STEPS = 10 ** 9


@dataclass(frozen=True)
class TreeConfig:
    steps: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", require_count("steps", self.steps, 1))
        if self.steps > MAX_STEPS:
            raise ValueError(f"steps must be at most 10**9, got {self.steps}")


class TreeParameterizationError(ValueError):
    """The risk-neutral step probability left (0, 1); use more steps."""


def binomial_weights(n: int, p: float) -> tuple[int, array]:
    """Binomial(n, p) weights around the mode, scaled so the mode weighs 1.

    Returns (lo, weights) with weights[j] proportional to C(n,k) p^k (1-p)^(n-k)
    at k = lo + j. The ratio w[k+1]/w[k] = (n-k)/(k+1) * p/(1-p) is walked
    outward from the mode min(n, floor((n+1)p)), and each direction stops at
    the first weight below the smallest normal float: the nodes dropped weigh
    under 2.3e-308 of the mode's, and waiting for 0.0 instead would crawl
    through the subnormals (a third of the row at 10^6 steps).
    """
    mode = min(n, int((n + 1) * p))
    odds = p / (1.0 - p)
    below, above = array("d"), array("d", [1.0])
    w = 1.0
    for k in range(mode, n):
        w *= (n - k) / (k + 1) * odds
        if w < sys.float_info.min:
            break
        above.append(w)
    w = 1.0
    for k in range(mode, 0, -1):
        w *= k / (n - k + 1) / odds
        if w < sys.float_info.min:
            break
        below.append(w)
    below.reverse()
    return mode - len(below), below + above


def _exact_sum(values: array) -> float:
    """`math.fsum` of terms that rise and then fall, fed from the largest
    outward: the sum is correctly rounded in any order, but on terms that
    span the float range this order runs some 10x faster than left to right,
    where each rising term leaves another partial sum behind."""
    if not values:
        return 0.0
    peak = values.index(max(values))
    return math.fsum(chain(reversed(values[:peak]), values[peak:]))


def crr_tree_price(spec: OptionSpec, cfg: TreeConfig) -> PriceResult:
    """Price a European call on a recombining binomial tree.

    Returns the discounted expected terminal payoff
    e^{-rt} * sum_k C(n,k) p^k (1-p)^{n-k} max(spot*u^k*d^{n-k} - strike, 0),
    summed exactly over the weights of `binomial_weights`, with each
    in-the-money node spot*exp((2k-n)*vol*sqrt(t/n)) computed directly.
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

    lo, weights = binomial_weights(n, p)
    # nodes rise with k, so walk down from the top until the call expires worthless
    in_the_money = array("d")
    for k in range(lo + len(weights) - 1, lo - 1, -1):
        excess = spec.spot * math.exp((2 * k - n) * step_vol) - spec.strike
        if excess <= 0.0:
            break
        in_the_money.append(weights[k - lo] * excess)
    price = math.exp(-spec.rate * spec.expiry) * _exact_sum(in_the_money) / _exact_sum(weights)

    dp, dm = d_plus_minus(spec)
    detail = {"steps": n, "terminal_nodes": n + 1, "up_factor": u, "down_factor": d,
              "prob_up": p}
    return PriceResult(price=price, d_plus=dp, d_minus=dm, method="tree", detail=detail)
