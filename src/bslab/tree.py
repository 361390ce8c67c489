"""Recombining binomial lattice pricer (Cox-Ross-Rubinstein parameterization).

Per step of length t/n the price moves by u = e^x or d = 1/u, x = vol*sqrt(t/n),
with risk-neutral probability p = (e^{r*t/n} - d)/(u - d), so the one-step
martingale identity p*u + (1-p)*d = e^{r*t/n} holds by construction. p is taken
as (expm1(r*t/n) - expm1(-x)) / (2*sinh(x)), which does not cancel near x = 0.

The terminal row is Binomial(n, p), which concentrates within O(sqrt(n))
nodes of its mode. One walk outward from the mode weighs the nodes and
forms the payoff terms, and ends each direction where a double sum can no
longer see them: 9,608 of the 1,000,001 nodes at 10^6 steps, in plain
`math`, with no numpy or scipy.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass

from .pricing import (OptionSpec, PriceResult, d_plus_minus, degenerate_result,
                      discount_factor, require_count)


# most lattice steps: 10**9 weigh about 300K nodes (3.5 MiB, 0.3 s); time and
# memory grow as sqrt(steps) past that
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


class TreeParameterizationError(ValueError):
    """The risk-neutral step probability left (0, 1); use more steps."""


def _more_steps(spec: OptionSpec, n: int, ratio: float, strict: bool) -> str:
    """Names the inputs and the fewest steps m >= ratio^2 * expiry (m > it if strict)."""
    bound = ratio * ratio * spec.expiry
    fewest = (f"increase steps to at least {math.floor(bound) + 1 if strict else math.ceil(bound)}"
              if bound < MAX_STEPS else "no step count up to 10**9 fits")
    return f"at vol={spec.volatility}, expiry={spec.expiry}, steps={n}; {fewest}"


# past the smallest normal float the upward walk carries a weight times
# 2^512 per lift, so the true weight is w * 2^(-512*lifts): a power of two,
# exact, where the payoff terms of a contract with a large vol*sqrt(t) still
# peak (vol*sqrt(t) binomial standard deviations above the mode)
_LIFT_BITS = 512
_LIFT_LOG = _LIFT_BITS * math.log(2.0)


def _outward(n: int, p: float, lift: bool = False):
    """Yield (k, w, lifts) for the Binomial(n, p) weights w * 2^(-512*lifts),
    scaled so the mode min(n, floor((n+1)p)) weighs 1: from the mode up, then
    from below it down, by the ratio w[k+1]/w[k] = (n-k)/(k+1) * p/(1-p).

    A direction ends when the caller sends a true value in reply to a node,
    or where the next weight would fall below the smallest normal float:
    waiting for 0.0 instead would crawl through the subnormals (a third of
    the row at 10^6 steps). With lift set, the upward walk lifts w there and
    goes on until the caller ends it; every weight above the floor keeps its
    bits. lifts is 0 everywhere else.
    """
    tiny = sys.float_info.min
    mode = min(n, int((n + 1) * p))
    odds = p / (1.0 - p)
    w, lifts = 1.0, 0
    stop = yield mode, w, lifts
    for k in range(mode, n):
        if stop:
            break
        ratio = (n - k) / (k + 1) * odds
        below = w * ratio
        if below < tiny:
            if not lift:
                break
            w, lifts = math.ldexp(w, _LIFT_BITS), lifts + 1
            below = w * ratio
        w = below
        stop = yield k + 1, w, lifts
    w = 1.0
    for k in range(mode, 0, -1):
        w *= k / (n - k + 1) / odds
        if w < tiny or (yield k - 1, w, 0):
            break


def binomial_weights(n: int, p: float) -> tuple[int, array]:
    """Binomial(n, p) weights around the mode, scaled so the mode weighs 1.

    Returns (lo, weights) with weights[j] proportional to C(n,k) p^k (1-p)^(n-k)
    at k = lo + j; the nodes left out weigh under 2.3e-308 of the mode's.
    """
    walk = _outward(n, p)
    mode, w, _ = next(walk)
    below, above = array("d"), array("d", [w])
    for k, w, _ in walk:
        (above if k > mode else below).append(w)
    below.reverse()
    return mode - len(below), below + above


# the last bit of a double sum is at least 2^-53 of its largest term, so the
# walk ends a direction once the weight and the payoff term are both under
# 2^-64 of their sum's largest. The terms w*(node - strike) are log-concave,
# hence unimodal, and fall geometrically past the cut, so what is left out
# moves a sum only when it lies within ~2^-64 of a rounding boundary (one
# ulp, about one contract in 4000). A cut on the weights alone would drop
# deep out-of-the-money prices, whose terms peak vol*sqrt(t) binomial
# standard deviations above the mode
_CUT = 2.0 ** -64
# exp(x) is a finite double exactly when x <= _LOG_MAX, and rounds to 0
# below _LOG_ZERO
_LOG_MAX = math.log(sys.float_info.max)
_LOG_ZERO = -1075 * math.log(2.0)


def crr_tree_price(spec: OptionSpec, cfg: TreeConfig) -> PriceResult:
    """Price a European call on a recombining binomial tree.

    Returns the discounted expected terminal payoff
    e^{-rt} * sum_k C(n,k) p^k (1-p)^{n-k} max(spot*u^k*d^{n-k} - strike, 0), with each
    node spot*exp((2k-n)*vol*sqrt(t/n)) computed directly (its term in logs if it passes
    the largest double). One outward walk from the mode gathers the weights and the
    in-the-money terms until both fall past `_CUT`, and `math.fsum` rounds each sum
    correctly. When vol*sqrt(t/n) is zero (or underflows to it) the lattice is a single
    deterministic path, and the deterministic-limit price is returned.
    """
    n = cfg.steps
    dt = spec.expiry / n
    step_vol = spec.volatility * math.sqrt(dt)
    if not step_vol:
        return degenerate_result(spec, "tree", detail={"steps": n, "degenerate": True})
    if step_vol > MAX_STEP_VOL:
        raise ValueError(f"the lattice is too coarse: vol*sqrt(expiry/steps) = {step_vol:.6g} "
                         f"passes {MAX_STEP_VOL} "
                         + _more_steps(spec, n, spec.volatility / MAX_STEP_VOL, False))
    rate_dt = spec.rate * dt
    # |r*t/n| < x keeps exp(r*t/n) between d and u, and expm1 finite
    p = ((math.expm1(rate_dt) - math.expm1(-step_vol)) / (2.0 * math.sinh(step_vol))
         if abs(rate_dt) < step_vol else math.nan)
    if not 0.0 < p < 1.0:
        raise TreeParameterizationError(
            f"the risk-neutral step probability leaves (0, 1): rate*expiry/steps = {rate_dt:.6g} "
            f"is not within +-vol*sqrt(expiry/steps) = +-{step_vol:.6g} "
            + _more_steps(spec, n, spec.rate / spec.volatility, True))

    disc = discount_factor(spec)
    spot, strike, exp = spec.spot, spec.strike, math.exp
    log_spot, log_strike = math.log(spot), math.log(strike)
    weights, terms = array("d"), array("d")
    largest, before = 0.0, -math.inf
    walk = _outward(n, p, lift=True)
    k, w, lifts = next(walk)
    mode = k
    while True:
        if not lifts:  # a lifted weight is under 2^-1022 of the mode's: no sum of weights sees it
            weights.append(w)
        x = (2 * k - n) * step_vol
        try:
            excess = spot * exp(x) - strike
        except OverflowError:  # exp alone passed the largest double
            excess = math.inf
        if excess > 0.0:
            if excess < math.inf:
                term = w * excess
                if lifts:
                    term = math.ldexp(term, -_LIFT_BITS * lifts)
            else:  # the node passed the largest double: weigh its excess in logs
                log_node = log_spot + x
                shortfall = exp(log_strike - log_node)  # strike/node, under 1 but for rounding
                log_term = (math.log(w) - lifts * _LIFT_LOG + log_node
                            + (math.log1p(-shortfall) if shortfall < 1.0 else -math.inf))
                term = exp(log_term) if log_term <= _LOG_MAX else math.inf
            terms.append(term)
            if term > largest:
                largest = term
            done = (lifts or w < _CUT) and term < _CUT * largest
        elif lifts:
            # past the floor and out of the money: every higher term is under
            # weight*node, which is log-concave in k, so once that falls and
            # rounds to 0 every later term does too
            log_weighted = math.log(w) - lifts * _LIFT_LOG + log_spot + x
            done = log_weighted < before and log_weighted < _LOG_ZERO
            before = log_weighted
        else:
            # below the mode every lower node is out of the money too; above
            # it, a higher node may still pay
            done = w < _CUT and k < mode
        try:
            k, w, lifts = walk.send(done)
        except StopIteration:
            break
    try:
        price = disc * math.fsum(terms) / math.fsum(weights)
    except OverflowError:  # an infinite term, or a partial sum past the largest double
        price = math.inf
    if price == math.inf:
        raise ValueError(f"the payoff sum of the lattice overflows a double at steps={n}; "
                         f"use fewer steps")

    dp, dm = d_plus_minus(spec)
    u = math.exp(step_vol)
    detail = {"steps": n, "terminal_nodes": n + 1, "up_factor": u, "down_factor": 1.0 / u,
              "prob_up": p}
    return PriceResult(price=price, d_plus=dp, d_minus=dm, method="tree", detail=detail)
