"""Recombining binomial lattice pricer (Cox-Ross-Rubinstein parameterization).

Per step of length t/n the price moves by u = e^x or d = 1/u, x = vol*sqrt(t/n),
with risk-neutral probability p = (e^{r*t/n} - d)/(u - d), so the one-step
martingale identity p*u + (1-p)*d = e^{r*t/n} holds by construction. p is taken
as (expm1(r*t/n) - expm1(-x)) / (2*sinh(x)), which does not cancel near x = 0.

The terminal row is Binomial(n, p), which concentrates within O(sqrt(n))
nodes of its mode. Two plain loops, up and down from the mode, weigh the
nodes and form the payoff terms (below the strike, the weights alone), and
each ends where a double sum can no longer see them: 9,608 of the 1,000,001
nodes at 10^6 steps, in plain `math`, with no numpy or scipy. Node k is e^x,
x = (2k-n)*vol*sqrt(t/n) - r*t, in forward units as in bslab.montecarlo, against
kappa = strike*e^{-r*t}/spot (pricing.forward_strike): a martingale, so no term
passes the sum of the weights, and their ratio, capped at 1 against the rounding
of p, times spot is the price, so no price passes spot; a price under about
5e-324 of spot is 0.
"""

from __future__ import annotations

import bisect
import math
import sys
from array import array
from dataclasses import dataclass

from .pricing import (OptionSpec, PriceResult, finite_d_pair, forward_strike,
                      intrinsic_forward_value, require_count)


# most lattice steps: 10**9 weigh about 300K nodes (3.5 MiB, 0.12 s on a Xeon
# VM core under CPython 3.11); time and memory grow as sqrt(steps) past that
MAX_STEPS = 10 ** 9


@dataclass(frozen=True)
class TreeConfig:
    steps: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", require_count("steps", self.steps, 1))
        if self.steps > MAX_STEPS:
            raise ValueError(f"steps must be at most 10**9, got {self.steps}")


# largest vol*sqrt(expiry/steps) the lattice takes: in a 30,000-contract scan at
# steps 1-64 no price left its no-arbitrage bounds by 1e-12 of spot below 9, some
# did by 1e-3 past 9 and by the whole spot past 14, and u overflows from 709
MAX_STEP_VOL = 8.0


def _more_steps(spec: OptionSpec, n: int, ratio: float, strict: bool) -> str:
    """Names the inputs and the fewest steps m >= ratio^2 * expiry (m > it if strict) or, past
    10**9, the fewest m at which vol*sqrt(expiry/m), falling in m, underflows to 0."""
    bound = ratio * ratio * spec.expiry
    if bound < MAX_STEPS:
        fewest = math.floor(bound) + 1 if strict else math.ceil(bound)
    else:  # the deterministic path; MAX_STEPS + 1 if even 10**9 steps keep a step vol
        fewest = n + bisect.bisect(range(n, MAX_STEPS + 1), False,
                                   key=lambda m: not spec.volatility * math.sqrt(spec.expiry / m))
    advice = (f"increase steps to at least {fewest}" if fewest <= MAX_STEPS
              else "no step count up to 10**9 fits")
    return f"at vol={spec.volatility}, expiry={spec.expiry}, steps={n}; {advice}"


# past the smallest normal float the upward walk carries a weight times
# 2^512 per lift, so the true weight is w * 2^(-512*lifts): a power of two,
# exact, where the payoff terms of a contract with a large vol*sqrt(t) still
# peak (vol*sqrt(t) binomial standard deviations above the mode)
_LIFT_BITS = 512
_LIFT_LOG = _LIFT_BITS * math.log(2.0)


def binomial_weights(n: int, p: float) -> tuple[int, array]:
    """Binomial(n, p) weights around the mode min(n, floor((n+1)p)), scaled so
    the mode weighs 1, by the ratio w[k+1]/w[k] = (n-k)/(k+1) * p/(1-p).

    Returns (lo, weights) with weights[j] proportional to C(n,k) p^k (1-p)^(n-k)
    at k = lo + j. Each side ends where the next weight would fall under the
    smallest normal float, 2.3e-308 of the mode's, instead of crawling on through
    the subnormals (a third of the row at 10^6 steps).
    """
    tiny = sys.float_info.min
    mode, odds = min(n, int((n + 1) * p)), p / (1.0 - p)
    above, below, w = array("d", [1.0]), array("d"), 1.0
    for k in range(mode, n):
        w *= (n - k) / (k + 1) * odds
        if w < tiny:
            break
        above.append(w)
    w = 1.0
    for k in range(mode - 1, -1, -1):
        w *= (k + 1) / (n - k) / odds
        if w < tiny:
            break
        below.append(w)
    below.reverse()
    return mode - len(below), below + above


# the last bit of a double sum is at least 2^-53 of its largest term, so the
# walk ends upward once the weight and the payoff term are both under 2^-64
# of their sum's largest, and downward once the weight is. The terms
# w*(e^x - kappa) are log-concave, hence unimodal, and fall geometrically
# past the cut, so what is left out moves a sum only when it lies within
# ~2^-64 of a rounding boundary (one ulp, about one contract in 4000). Upward,
# a cut on the weights alone would drop deep out-of-the-money prices, whose
# terms peak vol*sqrt(t) binomial standard deviations above the mode
_CUT = 2.0 ** -64
# exp(x) rounds to 0 below _LOG_ZERO
_LOG_ZERO = -1075 * math.log(2.0)


def _term_in_logs(log_w: float, x: float, log_kappa: float) -> float:
    """e^log_w * max(e^x - kappa, 0), taken in logs, for a node e^x past the largest
    double; the martingale keeps the term under the sum of the weights."""
    gap = log_kappa - x  # log(kappa/e^x): in the money when negative
    return math.exp(log_w + x + math.log(-math.expm1(gap))) if gap < 0.0 else 0.0


def crr_tree_price(spec: OptionSpec, cfg: TreeConfig) -> PriceResult:
    """Price a European call on a recombining binomial tree.

    Returns spot * sum_k C(n,k) p^k (1-p)^{n-k} max(e^x_k - kappa, 0) in the module's forward
    units, the sum capped at 1, with kappa carried to twice the precision as kappa + kappa_lo,
    and each e^x_k computed directly (its term in logs past the largest double). A loop upward
    from the mode gathers the weights and the in-the-money terms until both fall past `_CUT`,
    one downward until the weight does, and `math.fsum` rounds each sum correctly. A
    vol*sqrt(t/n) that is zero (or underflows to it) is a single deterministic path, and so is a
    contract whose d+- are at their limit (pricing.finite_d_pair): the deterministic-limit price.
    """
    n = cfg.steps
    dt = spec.expiry / n
    step_vol = spec.volatility * math.sqrt(dt)
    if not step_vol or finite_d_pair(spec) is None:
        return PriceResult(intrinsic_forward_value(spec), detail={"degenerate": True})
    if step_vol > MAX_STEP_VOL:
        raise ValueError(f"the lattice is too coarse: vol*sqrt(expiry/steps) = {step_vol:.6g} "
                         f"passes {MAX_STEP_VOL} "
                         + _more_steps(spec, n, spec.volatility / MAX_STEP_VOL, False))
    rate_dt = spec.rate * dt
    # |r*t/n| < x keeps exp(r*t/n) between d and u, and expm1 finite
    p = ((math.expm1(rate_dt) - math.expm1(-step_vol)) / (2.0 * math.sinh(step_vol))
         if abs(rate_dt) < step_vol else math.nan)
    if not 0.0 < p < 1.0:
        raise ValueError(f"the risk-neutral step probability leaves (0, 1): rate*expiry/steps = "
                         f"{rate_dt:.6g} is not within +-vol*sqrt(expiry/steps) = +-{step_vol:.6g} "
                         + _more_steps(spec, n, spec.rate / spec.volatility, True))

    rate_t, (kappa, kappa_lo) = spec.rate * spec.expiry, forward_strike(spec)
    exp, inf = math.exp, math.inf
    log_kappa = math.log(spec.strike) - rate_t - math.log(spec.spot)
    tiny = sys.float_info.min
    mode, odds = min(n, int((n + 1) * p)), p / (1.0 - p)  # as in binomial_weights
    weights, terms = array("d"), array("d")
    largest, before = 0.0, -inf
    # upward from the mode, lifting the weight past the float floor
    w, lifts = 1.0, 0
    for k in range(mode, n + 1):
        if not lifts:  # a lifted weight is under 2^-1022 of the mode's: no sum of weights sees it
            weights.append(w)
        x = (2 * k - n) * step_vol - rate_t
        try:
            excess = exp(x) - kappa - kappa_lo
        except OverflowError:  # e^x passed the largest double
            excess = inf
        if excess > 0.0:
            if excess < inf:
                term = w * excess
                if lifts:
                    term = math.ldexp(term, -_LIFT_BITS * lifts)
            else:
                term = _term_in_logs(math.log(w) - lifts * _LIFT_LOG, x, log_kappa)
            terms.append(term)
            if term > largest:
                largest = term
            if (lifts or w < _CUT) and term < _CUT * largest:
                break
        elif lifts:
            # past the floor and out of the money: every higher term is under
            # w*e^x, which is log-concave in k, so once that falls and rounds
            # to 0 every later term does too
            log_weighted = math.log(w) - lifts * _LIFT_LOG + x
            if log_weighted < before and log_weighted < _LOG_ZERO:
                break
            before = log_weighted
        ratio = (n - k) / (k + 1) * odds  # 0 past node n, where the loop ends
        if w * ratio < tiny:
            w, lifts = math.ldexp(w, _LIFT_BITS), lifts + 1
        w *= ratio
    # downward no weight passes the mode's and e^x is at most about 1 (x <= 2(p-1)*vol*sqrt(t/n)
    # < 0 by Jensen, but for rounding near p = 1), so a term is under w times the mode's and w
    # alone ends the walk, far above the float floor; below the strike every node is out of the
    # money and is weighed alone
    w, excess = 1.0, inf
    for k in range(mode - 1, -1, -1):
        w *= (k + 1) / (n - k) / odds
        weights.append(w)
        if excess > 0.0:  # not below the strike yet
            excess = exp((2 * k - n) * step_vol - rate_t) - kappa - kappa_lo
            if excess > 0.0:
                terms.append(w * excess)
        if w < _CUT:
            break
    # a martingale's ratio is at most 1 (a call is worth at most spot) but for the rounding of p
    price = spec.spot * min(math.fsum(terms) / math.fsum(weights), 1.0)

    u = math.exp(step_vol)
    detail = {"terminal_nodes": n + 1, "up_factor": u, "down_factor": 1.0 / u,
              "prob_up": p}
    return PriceResult(price, detail=detail)
