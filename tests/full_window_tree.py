"""The CRR lattice price weighed over the whole window of `binomial_weights`.

An oracle for the cut walk of `bslab.tree.crr_tree_price`: it forms a term
for every in-the-money node down to 2.3e-308 of the mode's weight, and on
above the window until the terms round to 0, where the cut walk stops each
sum once its terms fall under 2^-64 of the largest. Both sums are correctly
rounded, so the two prices agree to the last bit unless a sum lies within
about 2^-64 of a rounding boundary.
"""

from __future__ import annotations

import math
from array import array
from itertools import chain

from bslab.pricing import OptionSpec
from bslab.tree import TreeParameterizationError, binomial_weights


def _exact_sum(values: array) -> float:
    """`math.fsum` of terms that rise and then fall, fed from the largest
    outward: on terms that span the float range this order runs some 10x
    faster than left to right."""
    if not values:
        return 0.0
    peak = values.index(max(values))
    return math.fsum(chain(reversed(values[:peak]), values[peak:]))


def _terms_above(spec: OptionSpec, n: int, step_vol: float, p: float, top: int,
                 weight: float) -> array:
    """In-the-money discounted terms of the nodes above `top`, the window's
    highest node, of weight `weight`: the window's recurrence carried on with each
    weight held as a mantissa and a binary exponent (math.frexp), so that it
    can pass the smallest normal float. A node past the largest double is
    weighed in logs. Ends at the top of the lattice, or once weight*node,
    which is log-concave in k, falls and rounds to 0."""
    odds, rate_t = p / (1.0 - p), spec.rate * spec.expiry
    log2, log_spot = math.log(2.0), math.log(spec.spot)
    log_strike = math.log(spec.strike) - rate_t
    m, e = math.frexp(weight)
    strike = spec.strike * math.exp(-rate_t)
    terms, before = array("d"), -math.inf
    for k in range(top + 1, n + 1):
        m, shift = math.frexp(m * ((n - k + 1) / k * odds))
        e += shift
        x = (2 * k - n) * step_vol - rate_t
        log_weighted_node = math.log(m) + e * log2 + log_spot + x
        if before > log_weighted_node and log_weighted_node < -1075 * log2:
            break
        before = log_weighted_node
        try:
            excess = spec.spot * math.exp(x) - strike
        except OverflowError:
            excess = math.inf
        if excess == math.inf:
            log_node = log_spot + x
            terms.append(math.exp(log_weighted_node
                                  + math.log1p(-math.exp(log_strike - log_node))))
        elif excess > 0.0:
            terms.append(math.ldexp(m * excess, e))
    return terms


def full_window_price(spec: OptionSpec, n: int) -> float:
    """Discounted expected payoff of the n-step lattice over every node that
    `binomial_weights` keeps and the in-the-money nodes above them (their
    weights are under 2.3e-308 of the mode's, so only the payoff sum sees
    them); spec must have positive vol*sqrt(t). Each node and the strike
    carry the discount e^{-r*t}, so no factor follows the sums."""
    dt = spec.expiry / n
    step_vol = spec.volatility * math.sqrt(dt)
    rate_dt = spec.rate * dt
    # the step probability of bslab.tree, formed the same way: this is the
    # reference for the cut walk; test_tree.exact_lattice_price checks p
    p = ((math.expm1(rate_dt) - math.expm1(-step_vol)) / (2.0 * math.sinh(step_vol))
         if abs(rate_dt) < step_vol else math.nan)
    if not 0.0 < p < 1.0:
        raise TreeParameterizationError(f"risk-neutral step probability {p!r} is outside (0, 1)")

    lo, weights = binomial_weights(n, p)
    rate_t = spec.rate * spec.expiry
    strike = spec.strike * math.exp(-rate_t)
    # nodes rise with k, so walk down from the top until the call expires worthless
    in_the_money = array("d")
    for k in range(lo + len(weights) - 1, lo - 1, -1):
        excess = spec.spot * math.exp((2 * k - n) * step_vol - rate_t) - strike
        if excess <= 0.0:
            break
        in_the_money.append(weights[k - lo] * excess)
    in_the_money.extend(_terms_above(spec, n, step_vol, p, lo + len(weights) - 1, weights[-1]))
    return _exact_sum(in_the_money) / _exact_sum(weights)
