"""European call pricing: closed form, lognormal payoff expectation, and the
no-arbitrage identities tying them together.

The closed form is C = spot*N(d+) - strike*exp(-rate*expiry)*N(d-). When
volatility*sqrt(expiry) is zero the formula degenerates (it divides by that
quantity), and the price is defined by its continuous limit
max(spot - strike*exp(-rate*expiry), 0); so it is when volatility*sqrt(expiry)
is so small that d+- overflow. A discounted strike past the largest double
fails in one line that names strike, rate and expiry.

A PriceResult holds only what its pricer computed; d+- belong to the
contract's limit law, and a report takes them from d_plus_minus(spec).
bs_call_price is the hot path (a PriceResult per contract), so it takes
volatility*sqrt(expiry) once and hands it to the one d+- helper, and
PriceResult's __init__ writes its checked fields straight into the instance
dict: the __init__ a frozen dataclass generates makes one object.__setattr__
call per field, which was two thirds of a closed-form price's cost.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .normal import norm_cdf

_NORMAL_MIN = 2.0 ** -1022  # the smallest normal double
_INF = math.inf  # one global lookup on the closed-form path, where math.inf takes two


def _require_finite(name: str, value, positive: bool = False) -> float:
    """value as a float; ValueError unless it is a real number (not a bool or
    a string) that is finite and, if positive is set, above 0."""
    if type(value) is not float:  # floats, the common case, skip the conversion
        if isinstance(value, bool) or not hasattr(value, "__float__"):
            raise ValueError(f"{name} must be a real number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an int past the largest double
            value = math.inf
    if not (math.isfinite(value) and (value > 0.0 or not positive)):
        raise ValueError(f"{name} must be {'positive and ' * positive}finite, got {value}")
    return value


# bslab's two input rules; this module loads no numpy, so every module can import them
def require_count(name: str, value, minimum: int) -> int:
    """value as a Python int; ValueError unless it is an integer of at least
    minimum (numpy integers included, bools not)."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    count = operator.index(value)
    if count < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {count}")
    return count


def require_positive(name: str, value) -> float:
    """value as a float if it is a positive finite real, else ValueError."""
    return _require_finite(name, value, positive=True)


@dataclass(frozen=True)
class OptionSpec:
    """Market and contract parameters for one European call.

    spot and strike are in currency units; rate is the continuously
    compounded annual risk-free rate; expiry is in years; volatility is the
    annualized standard deviation of the log-return.
    """

    spot: float
    strike: float
    rate: float
    expiry: float
    volatility: float

    def __post_init__(self) -> None:
        for name in ("spot", "strike"):
            object.__setattr__(self, name, require_positive(name, getattr(self, name)))
        for name in ("rate", "expiry", "volatility"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        if self.expiry < 0.0:
            raise ValueError(f"expiry must be nonnegative, got {self.expiry}")
        if self.volatility < 0.0:
            raise ValueError(f"volatility must be nonnegative, got {self.volatility}")
        if self.vol_sqrt_t == math.inf:
            raise ValueError(f"volatility*sqrt(expiry) must be finite, got volatility "
                             f"{self.volatility} and expiry {self.expiry}")

    @property
    def vol_sqrt_t(self) -> float:
        return self.volatility * math.sqrt(self.expiry)


@dataclass(frozen=True)
class NormalParams:
    """Mean and standard deviation of the log-return law."""

    mean: float
    std_dev: float

    def __post_init__(self) -> None:
        _require_finite("mean", self.mean)
        _require_finite("std_dev", self.std_dev)
        if self.std_dev < 0.0:
            raise ValueError(f"std_dev must be nonnegative, got {self.std_dev}")


@dataclass(frozen=True, init=False)
class PriceResult:
    """A price, with std_error from Monte Carlo and detail from the lattice.

    A frozen dataclass with a written-out __init__ (see the module docstring).
    """

    price: float
    std_error: float | None = None
    detail: dict | None = None

    def __init__(self, price: float, std_error: float | None = None,
                 detail: dict | None = None) -> None:
        if price < 0.0:
            raise ValueError(f"price must be nonnegative, got {price}")
        if std_error is not None and std_error < 0.0:
            raise ValueError(f"std_error must be nonnegative, got {std_error}")
        # item stores into the instance's own dict skip the frozen __setattr__
        fields = self.__dict__
        fields["price"] = price
        fields["std_error"] = std_error
        fields["detail"] = detail


def _d_pair(spec: OptionSpec, s: float) -> tuple[float, float]:
    """d+- = m/s +- s/2 for s = volatility*sqrt(expiry), where m is the log
    forward moneyness log(e^{rt}*spot/strike). When s is zero both are at
    their limit: infinite with the sign of m, or 0 at the money; a subnormal
    s whose m/s overflows gives the same infinite limit."""
    ratio = spec.spot / spec.strike
    # log(e^{rt} * spot / strike), written to avoid the exp/log round trip; a
    # ratio that overflows, underflows or is subnormal (and so has lost bits)
    # takes the logs one by one
    m = (math.log(ratio) if _NORMAL_MIN <= ratio < _INF
         else math.log(spec.spot) - math.log(spec.strike)) + spec.rate * spec.expiry
    if s:
        return m / s + 0.5 * s, m / s - 0.5 * s
    d = math.copysign(_INF, m) if m else 0.0
    return d, d


def d_plus_minus(spec: OptionSpec) -> tuple[float, float]:
    """d+- = log(e^{rt}*spot/strike)/(vol*sqrt(t)) +- vol*sqrt(t)/2, at their
    limit when volatility*sqrt(expiry) is zero or too small for them to be
    finite (_d_pair)."""
    return _d_pair(spec, spec.vol_sqrt_t)


def discount_factor(spec: OptionSpec) -> float:
    """exp(-rate*expiry); ValueError naming strike, rate and expiry when the
    discounted strike strike*exp(-rate*expiry) overflows a double."""
    try:
        disc = math.exp(-spec.rate * spec.expiry)
    except OverflowError:  # exp itself passed the largest double
        disc = math.inf
    if spec.strike * disc == _INF:
        raise ValueError(f"the discounted strike strike*exp(-rate*expiry) overflows a double at "
                         f"strike={spec.strike}, rate={spec.rate}, expiry={spec.expiry}")
    return disc


def forward_strike(spec: OptionSpec) -> tuple[float, float]:
    """(kappa, kappa_lo): the strike in forward units, strike*e^{-rt}/spot, rounded,
    and the rest that the rounding leaves out, exact in integers (0 if kappa
    overflows), so that a node or path within rounding of it weighs its true excess."""
    strike = spec.strike * discount_factor(spec)
    kappa = strike / spec.spot
    (a, b), (c, d) = strike.as_integer_ratio(), spec.spot.as_integer_ratio()
    g, h = kappa.as_integer_ratio() if kappa < _INF else (a * d, b * c)
    return kappa, (a * d * h - g * b * c) / (b * c * h)


def intrinsic_forward_value(spec: OptionSpec) -> float:
    """Deterministic-limit price max(spot - strike*e^{-rt}, 0)."""
    return max(spec.spot - spec.strike * discount_factor(spec), 0.0)


def bs_call_price(spec: OptionSpec) -> PriceResult:
    """Closed-form call price; the deterministic limit when d+- are at theirs
    (volatility*sqrt(expiry) zero, or too small for m/s to be finite)."""
    s = spec.vol_sqrt_t
    dp, dm = _d_pair(spec, s)
    if s and -_INF < dm and dp < _INF:  # d+- finite: not at their limit
        raw = spec.spot * norm_cdf(dp) - spec.strike * discount_factor(spec) * norm_cdf(dm)
        # deep out-of-the-money rounding can leave a tiny negative difference
        return PriceResult(raw if raw > 0.0 else 0.0)
    return PriceResult(intrinsic_forward_value(spec))


def lognormal_h_plus_minus(params: NormalParams, threshold: float) -> tuple[float, float]:
    """h+- = [log(E[e^Y]/M) +- std^2/2]/std for threshold M, in the
    algebraically reduced form (mean + std^2 - log M)/std, (mean - log M)/std."""
    require_positive("threshold", threshold)
    sd = params.std_dev
    if sd == 0.0:
        raise ValueError("std_dev must be positive; handle the deterministic case in the caller")
    log_m = math.log(threshold)
    return (params.mean + sd * sd - log_m) / sd, (params.mean - log_m) / sd


def lognormal_call_expectation(params: NormalParams, threshold: float) -> float:
    """E[max(e^Y - M, 0)] = E[e^Y]*N(h+) - M*N(h-) for normal Y.

    E[e^Y] = exp(mean + std^2/2) is the lognormal moment identity.
    """
    hp, hm = lognormal_h_plus_minus(params, threshold)
    growth = math.exp(params.mean + 0.5 * params.std_dev ** 2)
    return growth * norm_cdf(hp) - threshold * norm_cdf(hm)
