"""The CRR lattice price weighed over the whole window of `binomial_weights`,
a second weight recurrence written apart from `bslab.tree.binomial_call_ratio`.

An oracle for the cut walk of `bslab.tree.crr_tree_price`, in the same
forward units: it forms a term for every in-the-money node down to 2.3e-308
of the mode's weight, and on above the window until the terms round to 0,
where the cut walk stops each sum once its terms fall under 2^-64 of the
largest. Both sums are correctly rounded, so the two prices agree to the
last bit unless a sum lies within about 2^-64 of a rounding boundary.
"""

from __future__ import annotations

import math
import sys
from array import array
from fractions import Fraction
from itertools import chain

from bslab.pricing import OptionSpec


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


def _exact_sum(values: array) -> float:
    """`math.fsum` of terms that rise and then fall, fed from the largest
    outward: on terms that span the float range this order runs some 10x
    faster than left to right."""
    if not values:
        return 0.0
    peak = values.index(max(values))
    return math.fsum(chain(reversed(values[:peak]), values[peak:]))


def _kappa(spec: OptionSpec) -> tuple[float, float]:
    """kappa, strike*e^{-r*t}/spot rounded to a double, and kappa_lo, the part
    that the rounding leaves out (0 when kappa overflows)."""
    strike = spec.strike * math.exp(-spec.rate * spec.expiry)
    kappa = strike / spec.spot
    return kappa, (float(Fraction(strike) / Fraction(spec.spot) - Fraction(kappa))
                   if kappa < math.inf else 0.0)


def _terms_above(spec: OptionSpec, n: int, step_vol: float, p: float, top: int,
                 weight: float) -> array:
    """In-the-money terms, in forward units, of the nodes above `top`, the
    window's highest node, of weight `weight`: the window's recurrence carried
    on with each weight held as a mantissa and a binary exponent (math.frexp),
    so that it can pass the smallest normal float. A node e^x past the largest
    double is weighed in logs. Ends at the top of the lattice, or once w*e^x,
    which is log-concave in k, falls and rounds to 0."""
    odds, rate_t, log2 = p / (1.0 - p), spec.rate * spec.expiry, math.log(2.0)
    log_kappa = math.log(spec.strike) - rate_t - math.log(spec.spot)
    kappa, kappa_lo = _kappa(spec)
    m, e = math.frexp(weight)
    terms, before = array("d"), -math.inf
    for k in range(top + 1, n + 1):
        m, shift = math.frexp(m * ((n - k + 1) / k * odds))
        e += shift
        x = (2 * k - n) * step_vol - rate_t
        log_weighted = math.log(m) + e * log2 + x
        if before > log_weighted and log_weighted < -1075 * log2:
            break
        before = log_weighted
        try:
            excess = math.exp(x) - kappa - kappa_lo
        except OverflowError:
            if log_kappa < x:
                terms.append(math.exp(log_weighted + math.log(-math.expm1(log_kappa - x))))
            continue
        if excess > 0.0:
            terms.append(math.ldexp(m * excess, e))
    return terms


def full_window_price(spec: OptionSpec, n: int) -> float:
    """Spot times the expected payoff, in forward units, of the n-step lattice
    over every node that `binomial_weights` keeps and the in-the-money nodes
    above them (their weights are under 2.3e-308 of the mode's, so only the
    payoff sum sees them); spec must have positive vol*sqrt(t). A node is e^x,
    x = (2k-n)*vol*sqrt(t/n) - r*t, against kappa = strike*e^{-r*t}/spot, held
    to twice the precision as kappa + kappa_lo, so that no term passes the sum
    of the weights; their ratio is capped at 1, which only the rounding of p
    passes, as in the cut walk."""
    dt = spec.expiry / n
    step_vol = spec.volatility * math.sqrt(dt)
    rate_dt = spec.rate * dt
    # the step probability of bslab.tree, formed the same way: this is the
    # reference for the cut walk; test_tree.exact_lattice_price checks p
    p = ((math.expm1(rate_dt) - math.expm1(-step_vol)) / (2.0 * math.sinh(step_vol))
         if abs(rate_dt) < step_vol else math.nan)
    if not 0.0 < p < 1.0:
        raise ValueError(f"risk-neutral step probability {p!r} is outside (0, 1)")

    lo, weights = binomial_weights(n, p)
    rate_t = spec.rate * spec.expiry
    kappa, kappa_lo = _kappa(spec)
    # nodes rise with k, so walk down from the top until the call expires worthless
    in_the_money = array("d")
    for k in range(lo + len(weights) - 1, lo - 1, -1):
        excess = math.exp((2 * k - n) * step_vol - rate_t) - kappa - kappa_lo
        if excess <= 0.0:
            break
        in_the_money.append(weights[k - lo] * excess)
    in_the_money.extend(_terms_above(spec, n, step_vol, p, lo + len(weights) - 1, weights[-1]))
    return spec.spot * min(_exact_sum(in_the_money) / _exact_sum(weights), 1.0)
